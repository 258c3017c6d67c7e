"""The benchmark's three workloads and the correctness gates on their answers.

Each workload is a closed loop with one client: :meth:`run_pass` issues one
pass of operations, each after the previous one returned, and checks every
answer.  A pass returns a :class:`PassResult`; the caller times it.

- ``spectrum-ex1_4-40``: one ``popstab spectrum`` call, a desk-scale
  stability query whose non-constant, separable mortality makes every 2-D
  assembly stage do real work.
- ``converge-ex2_1-8-48``: one ``popstab converge`` sweep, the C^2
  convergence study up to n = m = 48 (dim 2304); mortality is constant, and
  k = 1 makes eigenvector work and ``eigen_errors`` show.
- ``scan-small``: seeded bisections for stability thresholds on two model
  families written as model-file text; fixed per-call costs rival the
  eigensolve, and it is the only workload on the 1-D ``assemble_1d`` path.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

import popstab
from popstab import assembly, cli, model, spectra
from popstab.spectra import Verdict


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    bytes_written: int = 0
    gates: dict[str, bool] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def gate(self, name: str, ok: bool, ops: int = 1) -> None:
        """Record a gate; a failed gate fails the ``ops`` operations it covers."""
        self.gates[name] = self.gates.get(name, True) and bool(ok)
        if not ok:
            self.failed += ops

    def raised(self, name: str, exc: Exception, ops: int = 1) -> None:
        self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
        self.gate(name, False, ops)


def _csv_rows(path: str) -> int:
    with open(path, newline="", encoding="utf-8") as handle:
        return sum(1 for _ in csv.reader(handle)) - 1


class CliWorkload:
    """One in-process ``popstab.cli.main`` call per pass; its stdout is parsed."""

    traced_passes = 1
    min_solves = 1
    argv: list[str] = []
    outputs: tuple[str, ...] = ()

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult(attempted=1)
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(self.argv)
        except Exception as exc:  # a raise is a failed operation, not a crash
            result.raised(self.name, exc)
            return result
        result.latencies.append(time.perf_counter() - start)
        result.bytes_written = sum(
            os.path.getsize(p) for p in self.outputs if os.path.exists(p))
        result.gate(self.name, code == 0 and self.check(out.getvalue()))
        return result


class Spectrum(CliWorkload):
    name = "spectrum-ex1_4-40"
    traced_passes = 2

    def __init__(self, workdir: str, rng: np.random.Generator):
        self.csv = os.path.join(workdir, "spectrum.csv")
        self.outputs = (self.csv,)
        self.argv = ["spectrum", "--model", "builtin:ex1_4", "--n", "40",
                     "--k", "10", "--out", self.csv]

    def check(self, text: str) -> bool:
        """Verdict Stable, |abscissa + 2| <= 1e-10, and 10 CSV rows."""
        abscissa = re.search(r"^spectral abscissa: (\S+)$", text, re.M)
        verdict = re.search(r"^verdict: (\S+)$", text, re.M)
        return (verdict is not None and verdict.group(1) == "Stable"
                and abscissa is not None and abs(float(abscissa.group(1)) + 2.0) <= 1e-10
                and _csv_rows(self.csv) == 10)


class Converge(CliWorkload):
    name = "converge-ex2_1-8-48"

    # acceptance criterion 4 for ex2_1: fitted eps_lambda order -5.5 +- 0.75
    ORDER, ORDER_TOL = -5.5, 0.75

    def __init__(self, workdir: str, rng: np.random.Generator):
        self.csv = os.path.join(workdir, "converge.csv")
        self.svg = os.path.join(workdir, "converge.svg")
        self.outputs = (self.csv, self.svg)
        self.argv = ["converge", "--model", "builtin:ex2_1", "--n-min", "8",
                     "--n-max", "48", "--n-step", "8", "--out", self.csv,
                     "--svg", self.svg]

    def check(self, text: str) -> bool:
        """Fitted eps_lambda order in -5.5 +- 0.75, 6 CSV rows, SVG parses."""
        order = re.search(r"^fitted order of eps_lambda: (\S+)$", text, re.M)
        try:
            svg_ok = ET.parse(self.svg).getroot().tag.endswith("svg")
        except ET.ParseError:
            svg_ok = False
        return (order is not None
                and abs(float(order.group(1)) - self.ORDER) <= self.ORDER_TOL
                and _csv_rows(self.csv) == 6 and svg_ok)


# 1-D renewal family: mu = 1, beta = c*exp(-x) on [0, 2].  R0 = c(1 - e^-4)/2,
# so the exact threshold is c* = 2/(1 - e^-4); stable below it.
RENEWAL = 'x_min = 0\nx_max = 2\nmu = "1"\nbeta = "{value!r} * exp(-x)"\n'
C_STAR = 2.0 / (1.0 - math.exp(-4.0))


class Scan:
    """Bisection for stability thresholds, each probe a full solve.

    Each bisection starts with a solve at both ends of a bracket whose
    offsets from the nominal threshold are drawn from the seed, then halves
    it a fixed number of times, so every pass does the same work.  The 1-D
    family has twice the solves of the 2-D one, so the per-solve p50 is a
    1-D solve (fixed per-call costs) and the p95 a 2-D solve.
    """

    name = "scan-small"
    traced_passes = 8
    min_solves = 200
    N_1D, ITERS_1D = 30, 30
    N_2D, ITERS_2D = 12, 14

    def __init__(self, workdir: str, rng: np.random.Generator):
        self.rng = rng
        ex14, _ = popstab.builtin("ex1_4")
        # 2-D family: ex1_4 with mortality 2x + 1 + h.  The mortality block is
        # Dx^-1 Dy^-1 diag(mu) Dx Dy, so G(h) = G(0) - h I and the threshold is
        # the abscissa of ex1_4 at the same degree; stable above it.
        self.family_2d = (
            "x_min = 0\nx_max = 2\ny_min = 0\ny_max = 1\n"
            'mu = "2*x + 1 + ({value!r})"\n'
            f'alpha = "{ex14.alpha.source}"\nbeta = "{ex14.beta.source}"\n'
        )
        generator = assembly.assemble_2d(ex14, self.N_2D, self.N_2D)
        self.h_star = spectra.compute_spectrum(generator, k=1).abscissa

    def _solve(self, text: str, n: int, result: PassResult) -> bool:
        """One stability solve of model-file text; True when Stable."""
        result.attempted += 1
        start = time.perf_counter()
        mdl = model.load_model(text)
        if mdl.dimension == 1:
            generator = assembly.assemble_1d(mdl, n)
        else:
            generator = assembly.assemble_2d(mdl, n, n)
        report = spectra.compute_spectrum(generator, k=1)
        verdict = spectra.stability_verdict(report.abscissa, 0.0)
        result.latencies.append(time.perf_counter() - start)
        return verdict is Verdict.STABLE

    def _bisect(self, name, template, n, stable_end, unstable_end, iters, exact,
                tracer, result: PassResult) -> None:
        """Gate: both ends on their side, and ``exact`` within the final width."""

        def stable(value) -> bool:
            text = template.format(value=value)
            if tracer is None:
                return self._solve(text, n, result)
            tracer.solve_id += 1
            with tracer.span("bench.solve"):
                return self._solve(text, n, result)

        first = result.attempted
        try:
            ends_ok = stable(stable_end)
            ends_ok = not stable(unstable_end) and ends_ok
            lo, hi = stable_end, unstable_end
            for _ in range(iters):
                mid = 0.5 * (lo + hi)
                if stable(mid):
                    lo = mid
                else:
                    hi = mid
        except Exception as exc:  # a raise fails the bisection, not the run
            result.raised(name, exc, result.attempted - first)
            return
        width = abs(hi - lo)
        ok = ends_ok and min(lo, hi) - width <= exact <= max(lo, hi) + width
        result.gate(name, ok, result.attempted - first)

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult()
        d1, d2, d3, d4 = (float(d) for d in self.rng.uniform(0.5, 1.5, size=4))
        self._bisect("scan.renewal_1d", RENEWAL, self.N_1D, C_STAR - d1,
                     C_STAR + d2, self.ITERS_1D, C_STAR, tracer, result)
        self._bisect("scan.ex1_4_2d", self.family_2d, self.N_2D, -2.0 + d3,
                     -2.0 - d4, self.ITERS_2D, self.h_star, tracer, result)
        return result


def warm_up() -> None:
    """Registry, parser, first LAPACK and einsum calls: paid once, not timed."""
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["spectrum", "--model", "builtin:ex1_4", "--n", "6", "--k", "1"])
    renewal = model.load_model(RENEWAL.format(value=1.0))
    spectra.compute_spectrum(assembly.assemble_1d(renewal, 6), k=1)


WORKLOADS = {w.name: w for w in (Spectrum, Converge, Scan)}
