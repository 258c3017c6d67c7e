"""Command-line front end.

    popstab spectrum --model builtin:ex1_1 --n 5
    popstab converge --model builtin:ex2_1 --n-min 8 --n-max 48 --n-step 8
    popstab examples

Models are either ``builtin:<name>`` or a path to a model file (see the
model module for the format).  Exit codes: 0 success, 2 configuration or
parse error, 3 numerical failure (running out of memory included).
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from . import spectra
from .assembly import assemble
from .expr import ExprSyntaxError
from .grid import DuplicateNodes, InvalidInterval
from .model import (
    BUILTIN_NAMES,
    ConfigSyntax,
    InvalidSample,
    MissingKey,
    UnknownExample,
    VariableMismatch,
    builtin,
    load_model,
)

CONFIG_ERRORS = (
    ConfigSyntax,
    MissingKey,
    VariableMismatch,
    UnknownExample,
    ExprSyntaxError,
    InvalidInterval,
    DuplicateNodes,
    InvalidSample,
    spectra.MissingReference,
    OSError,
    UnicodeDecodeError,
)


def _load(source: str):
    if source.startswith("builtin:"):
        return builtin(source[len("builtin:"):])[0]
    with open(source, "r", encoding="utf-8") as handle:
        return load_model(handle.read())


def _fmt(value: float) -> str:
    """17 significant digits, enough to round-trip a double."""
    return f"{value:.17g}"


def _write_csv(path: str, header: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(row + "\n")


def cmd_spectrum(args) -> int:
    model = _load(args.model)
    if args.m is not None and model.dimension < 2:
        raise ConfigSyntax(f"--m needs a 2-D model; {args.model} has one axis")
    generator = assemble(model, args.n, args.m, args.oversample)
    k = min(args.k, generator.dim)
    report = spectra.compute_spectrum(generator, k)
    verdict = spectra.stability_verdict(report.abscissa, args.tol)
    degrees = ", ".join(f"{name} = {axis.n}" for name, axis in zip("nm", generator.axes))
    print(f"model: {args.model}  ({degrees})")
    print(f"{k} rightmost eigenvalues (re, im):")
    for i in range(k):
        lam = report.eigenvalues[i]
        print(f"  {i:3d}  {_fmt(lam.real)}  {_fmt(lam.imag)}")
    print(f"spectral abscissa: {_fmt(report.abscissa)}")
    print(f"verdict: {verdict}")
    if args.out:
        rows = [
            f"{i},{_fmt(report.eigenvalues[i].real)},{_fmt(report.eigenvalues[i].imag)}"
            for i in range(k)
        ]
        _write_csv(args.out, "index,re,im", rows)
    return 0


def _record_row(record: spectra.ConvergenceRecord) -> str:
    m_text = "" if record.m is None else str(record.m)
    if record.lam is None:
        lam_re = lam_im = float("nan")
    else:
        lam_re, lam_im = record.lam.real, record.lam.imag
    return ",".join(
        [
            str(record.n),
            m_text,
            _fmt(record.eps_lambda),
            _fmt(record.eps_phi),
            _fmt(lam_re),
            _fmt(lam_im),
            _fmt(record.abscissa),
        ]
    )


def cmd_converge(args) -> int:
    model = _load(args.model)
    degrees = list(range(args.n_min, args.n_max + 1, args.n_step))
    records = spectra.convergence_sweep(model, degrees, args.oversample)
    rows = [_record_row(r) for r in records]
    header = "n,m,eps_lambda,eps_phi,lambda_re,lambda_im,abscissa"
    print(header)
    for row in rows:
        print(row)
    slopes = {}
    for fieldname in ("eps_lambda", "eps_phi"):
        try:
            slopes[fieldname] = spectra.fit_order(records, fieldname)
            print(f"fitted order of {fieldname}: {slopes[fieldname]:.3f}")
        except spectra.InsufficientData:
            slopes[fieldname] = None
            print(f"fitted order of {fieldname}: n/a (too few points above the plateau)")
    if args.out:
        _write_csv(args.out, header, rows)
    if args.svg:
        write_convergence_svg(args.svg, args.model, records, slopes, args.guide_slope)
    if all(r.error is not None for r in records):
        first = records[0]
        print(
            "popstab: numerical failure: every degree failed "
            f"(n = {first.n}: {first.error})",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_examples(args) -> int:
    print(f"{'name':<12} {'dim':<4} {'domain':<34} {'lambda':<22} note")
    for name in BUILTIN_NAMES:
        mdl, ref = builtin(name)
        domain = " x ".join(f"[{a:.6g}, {b:.6g}]" for a, b in mdl.bounds)
        print(f"{name:<12} {mdl.dimension:<4} {domain:<34} {_fmt(ref.lam):<22} {ref.note}")
    return 0


# ---------------------------------------------------------------------------
# SVG convergence plot (self-contained, no plotting dependency)

_SVG_W, _SVG_H = 640, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 36, 50
_SERIES = (("eps_lambda", "#1f77b4", "circle"), ("eps_phi", "#d62728", "square"))
# markup characters, and characters XML 1.0 cannot carry: controls, and the
# lone surrogates that stand for undecodable bytes in a file name
_XML_SPECIAL = re.compile(r"[&<>\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
_XML_ENTITIES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}


def _xml_text(text: str) -> str:
    """``text`` as XML character data: markup characters as entities, and
    each character XML cannot carry as its Python backslash escape.  (Not
    ``xml.sax.saxutils.escape``: importing it loads ``urllib.request`` and
    ``ssl``, over 1 MB of memory.)"""
    return _XML_SPECIAL.sub(
        lambda c: _XML_ENTITIES.get(c.group()) or c.group().encode("unicode_escape").decode(),
        text,
    )


def _svg_points(records, fieldname):
    points = []
    for record in records:
        err = getattr(record, fieldname)
        if record.error is None and np.isfinite(err) and err > 0:
            points.append((record.n, err))
    return points


def write_convergence_svg(path, title, records, slopes, guide_slopes=None) -> None:
    """Self-contained log-log error plot of a convergence sweep."""
    all_points = {f: _svg_points(records, f) for f, _, _ in _SERIES}
    flat = [p for pts in all_points.values() for p in pts]
    if flat:
        x_lo = math.log10(min(p[0] for p in flat))
        x_hi = math.log10(max(p[0] for p in flat))
        y_lo = math.floor(math.log10(min(p[1] for p in flat)))
        y_hi = math.ceil(math.log10(max(p[1] for p in flat)))
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, -1, 1
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def sx(n):
        return _MARGIN_L + (math.log10(n) - x_lo) / (x_hi - x_lo) * plot_w

    def sy_log(log_err):
        return _MARGIN_T + (y_hi - log_err) / (y_hi - y_lo) * plot_h

    def sy(err):
        return sy_log(math.log10(err))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_xml_text(title)}</text>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black"/>',
    ]
    for decade in range(y_lo, y_hi + 1):
        y = sy(10.0 ** decade)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y:.1f}" x2="{_MARGIN_L + plot_w}" y2="{y:.1f}" '
            'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{decade}</text>'
        )
    for n in sorted({r.n for r in records}):
        x = sx(n)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_T + plot_h}" x2="{x:.1f}" '
            f'y2="{_MARGIN_T + plot_h + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{n}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_SVG_H - 10}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12">n (log scale)</text>'
    )
    for slope in guide_slopes or ():
        anchors = all_points["eps_lambda"] or flat
        if not anchors:
            continue
        n_ref, e_ref = anchors[len(anchors) // 2]
        n0, n1 = 10.0 ** x_lo, 10.0 ** x_hi
        # end points in log10 space, clipped to the decades shown, so that
        # no finite slope overflows
        l0, l1 = (
            min(max(math.log10(e_ref) + slope * (x - math.log10(n_ref)), y_lo), y_hi)
            for x in (x_lo, x_hi)
        )
        parts.append(
            f'<line x1="{sx(n0):.1f}" y1="{sy_log(l0):.1f}" x2="{sx(n1):.1f}" '
            f'y2="{sy_log(l1):.1f}" stroke="#999999" stroke-dasharray="6,4"/>'
        )
        parts.append(
            f'<text x="{sx(n1) - 4:.1f}" y="{sy_log(l1) - 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10" fill="#777777">slope {slope:g}</text>'
        )
    legend_y = _MARGIN_T + 16
    for fieldname, color, marker in _SERIES:
        points = all_points[fieldname]
        if points:
            coords = " ".join(f"{sx(n):.1f},{sy(e):.1f}" for n, e in points)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
            for n, e in points:
                if marker == "circle":
                    parts.append(
                        f'<circle cx="{sx(n):.1f}" cy="{sy(e):.1f}" r="3.5" fill="{color}"/>'
                    )
                else:
                    parts.append(
                        f'<rect x="{sx(n) - 3:.1f}" y="{sy(e) - 3:.1f}" width="6" height="6" '
                        f'fill="{color}"/>'
                    )
        slope = slopes.get(fieldname)
        label = fieldname if slope is None else f"{fieldname} (order {slope:.2f})"
        parts.append(
            f'<text x="{_MARGIN_L + plot_w - 8}" y="{legend_y}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12" fill="{color}">{label}</text>'
        )
        legend_y += 16
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line, as a configuration error."""

    def error(self, message):
        print(f"popstab: configuration error: {message}", file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="popstab",
        description="Stability of structured population models by "
        "pseudospectral discretization of the integrated-state generator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spectrum = sub.add_parser("spectrum", help="compute the rightmost spectrum of a model")
    spectrum.add_argument("--model", required=True, help="builtin:<name> or model file path")
    spectrum.add_argument("--n", type=int, required=True)
    spectrum.add_argument("--m", type=int, default=None, help="2-D models only; default: same as --n")
    spectrum.add_argument("--k", type=int, default=10, help="eigenvalues to report")
    spectrum.add_argument("--oversample", type=int, default=2)
    spectrum.add_argument("--tol", type=float, default=1e-8, help="verdict tolerance")
    spectrum.add_argument("--out", default=None, help="CSV output path")
    spectrum.set_defaults(func=cmd_spectrum)

    converge = sub.add_parser("converge", help="error sweep against the reference eigenpair")
    converge.add_argument("--model", required=True)
    converge.add_argument("--n-min", type=int, required=True)
    converge.add_argument("--n-max", type=int, required=True)
    converge.add_argument("--n-step", type=int, default=1)
    converge.add_argument("--oversample", type=int, default=2)
    converge.add_argument("--out", default=None, help="CSV output path")
    converge.add_argument("--svg", default=None, help="log-log plot output path")
    converge.add_argument(
        "--guide-slope", type=float, action="append", default=None,
        help="draw a dashed reference line of this slope (repeatable)",
    )
    converge.set_defaults(func=cmd_converge)

    examples = sub.add_parser("examples", help="list builtin models")
    examples.set_defaults(func=cmd_examples)
    return parser


# Integer options that must be at least 1 (dest names; absent ones are None).
POSITIVE_INTS = ("n", "m", "k", "oversample", "n_min", "n_max", "n_step")


def _option_error(args) -> str | None:
    """Why an option value is out of range, or None when all are in range."""
    for dest in POSITIVE_INTS:
        value = getattr(args, dest, None)
        if value is not None and value < 1:
            flag = "--" + dest.replace("_", "-")
            return f"{flag} must be a positive integer, got {value}"
    tol = getattr(args, "tol", None)
    if tol is not None and not tol >= 0:
        return f"--tol must be nonnegative, got {tol}"
    for slope in getattr(args, "guide_slope", None) or ():
        if not math.isfinite(slope):
            return f"--guide-slope must be finite, got {slope}"
    n_min = getattr(args, "n_min", None)
    if n_min is not None and n_min > args.n_max:
        return f"--n-min must not exceed --n-max, got {n_min} > {args.n_max}"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _option_error(args)
    if problem is not None:
        print(f"popstab: configuration error: {problem}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except CONFIG_ERRORS as exc:
        print(f"popstab: configuration error: {exc}", file=sys.stderr)
        return 2
    except spectra.NUMERICAL_ERRORS as exc:
        print(f"popstab: numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"popstab: numerical failure: out of memory {exc}".rstrip(), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
