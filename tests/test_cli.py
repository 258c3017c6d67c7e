import contextlib
import io
import math
import os
import tempfile
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from popstab import cli, spectra, structured
from popstab.cli import main

EX11_CONFIG = """
x_min = 0
x_max = 1
y_min = 0
y_max = 1
mu = "1"
alpha = "1"
beta = "1"
ref_lambda = -1
ref_phi = "1"
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_builtin(capsys):
    code, out, err = run(
        capsys, "spectrum", "--model", "builtin:ex1_1", "--n", "5", "--m", "5"
    )
    assert code == 0
    abscissa = float(out.split("spectral abscissa: ")[1].splitlines()[0])
    assert abs(abscissa - (-1.0)) <= 1e-8
    assert "verdict: Stable" in out


def test_spectrum_csv_deterministic(tmp_path, capsys):
    out_csv = tmp_path / "spectrum.csv"
    args = ("spectrum", "--model", "builtin:ex1_2", "--n", "6", "--k", "5",
            "--out", str(out_csv))
    assert run(capsys, *args)[0] == 0
    first = out_csv.read_bytes()
    assert run(capsys, *args)[0] == 0
    assert out_csv.read_bytes() == first
    lines = first.decode().splitlines()
    assert lines[0] == "index,re,im"
    assert len(lines) == 6


def test_spectrum_missing_file(capsys):
    code, out, err = run(capsys, "spectrum", "--model", "missing.txt", "--n", "4")
    assert code == 2
    assert "configuration error" in err


def test_spectrum_unknown_builtin(capsys):
    code, _, err = run(capsys, "spectrum", "--model", "builtin:nope", "--n", "4")
    assert code == 2
    assert err == (
        "popstab: configuration error: unknown example 'nope'; choose from ex1_1, ex1_2, "
        "ex1_3, ex1_4, ex2_1, ex2_2, ex2_3, ex2_4, velocity, appendix1d\n"
    )


def test_spectrum_numerical_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(EX11_CONFIG + 'gx = "x"\n')  # velocity vanishes at x = 0
    code, _, err = run(capsys, "spectrum", "--model", str(bad), "--n", "4")
    assert code == 3
    assert "numerical failure" in err
    # the dense matrix, or a block at assembly, beyond the float range
    domain = 'x_min = 0\nx_max = 2\ny_min = 0\ny_max = 1\nalpha = "1"\nbeta = "1"\n'
    for coefficients in ('mu = "1e307*x*y + 1"\n', 'mu = "1"\ngx = "1e308"\n'):
        bad.write_text(domain + coefficients)
        assert run(capsys, "spectrum", "--model", str(bad), "--n", "6") == (
            3,
            "",
            "popstab: numerical failure: the generator of degree 6 x 6 overflows the float range\n",
        )


@pytest.mark.parametrize(
    "message",
    ["Unable to allocate 335. GiB for an array with shape (299999, 149999)", ""],
    ids=["numpy", "bare"],
)
def test_out_of_memory_exits_three(monkeypatch, capsys, message):
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    # stands in for the allocation that --oversample 100000 asks for
    monkeypatch.setattr(cli, "assemble", no_memory)
    code, out, err = run(
        capsys, "spectrum", "--model", "builtin:ex1_1", "--n", "3", "--oversample", "100000"
    )
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert "out of memory" in lines[0]
    assert message in lines[0]


def _sweep_without_memory(monkeypatch, failing):
    sweep_degree = spectra._sweep_degree

    def degree(model, n, *args):
        if n in failing:
            # stands in for numpy refusing a huge allocation
            raise MemoryError(f"Unable to allocate 74.5 GiB at n = {n}")
        return sweep_degree(model, n, *args)

    monkeypatch.setattr(spectra, "_sweep_degree", degree)


def test_converge_records_a_degree_out_of_memory(monkeypatch, capsys):
    _sweep_without_memory(monkeypatch, {16})
    code, out, err = run(
        capsys, "converge", "--model", "builtin:ex2_1", "--n-min", "8", "--n-max", "24",
        "--n-step", "8",
    )
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:4]]
    assert [row[0] for row in rows] == ["8", "16", "24"]
    assert [row[2] == "nan" for row in rows] == [False, True, False]


def test_converge_exits_three_when_every_degree_is_out_of_memory(monkeypatch, capsys):
    _sweep_without_memory(monkeypatch, {8, 16, 24})
    code, out, err = run(
        capsys, "converge", "--model", "builtin:ex2_1", "--n-min", "8", "--n-max", "24",
        "--n-step", "8",
    )
    assert code == 3
    rows = [line.split(",") for line in out.splitlines()[1:4]]
    assert [row[0] for row in rows] == ["8", "16", "24"]
    assert all(row[2] == "nan" for row in rows)
    lines = err.splitlines()
    assert len(lines) == 1
    assert "out of memory Unable to allocate 74.5 GiB at n = 8" in lines[0]


def test_spectrum_default_m_matches_n(capsys):
    code, out, _ = run(capsys, "spectrum", "--model", "builtin:ex1_1", "--n", "3")
    assert code == 0
    assert "(n = 3, m = 3)" in out


def test_converge_appendix1d(tmp_path, capsys):
    out_csv = tmp_path / "conv.csv"
    code, out, _ = run(
        capsys, "converge", "--model", "builtin:appendix1d",
        "--n-min", "5", "--n-max", "30", "--n-step", "5", "--out", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "n,m,eps_lambda,eps_phi,lambda_re,lambda_im,abscissa"
    eps = [float(line.split(",")[2]) for line in lines[1:]]
    assert min(eps) < 1e-10
    assert len(lines) == 7


def test_converge_ex11_exact_zero_row(tmp_path, capsys):
    out_csv = tmp_path / "conv.csv"
    code, _, _ = run(
        capsys, "converge", "--model", "builtin:ex1_1",
        "--n-min", "1", "--n-max", "3", "--out", str(out_csv),
    )
    assert code == 0
    first_row = out_csv.read_text().splitlines()[1].split(",")
    assert first_row[0] == "1"
    assert float(first_row[3]) == 0.0


def test_converge_requires_reference(tmp_path, capsys):
    no_ref = tmp_path / "noref.txt"
    no_ref.write_text('x_min = 0\nx_max = 2\nmu = "1"\nbeta = "exp(-x)"\n')
    code, _, err = run(
        capsys, "converge", "--model", str(no_ref),
        "--n-min", "2", "--n-max", "4", "--n-step", "2",
    )
    assert code == 2
    assert "reference" in err


@pytest.mark.parametrize(
    "text,error",
    [
        (EX11_CONFIG + 'gx = "x"\n', "gx must be strictly positive"),
        (
            'x_min = 0\nx_max = 1e-300\nmu = "1"\nbeta = "1"\nref_lambda = -1\nref_phi = "1"\n',
            "inverse iteration",
        ),
    ],
    ids=["vanishing-velocity", "tiny-domain"],
)
def test_converge_exits_three_when_every_degree_failed(tmp_path, capsys, text, error):
    model = tmp_path / "model.txt"
    model.write_text(text)
    out_csv, out_svg = tmp_path / "conv.csv", tmp_path / "conv.svg"
    code, out, err = run(
        capsys, "converge", "--model", str(model), "--n-min", "2", "--n-max", "4",
        "--out", str(out_csv), "--svg", str(out_svg), "--guide-slope", "-3",
    )
    assert code == 3
    lines = err.splitlines()
    assert len(lines) == 1
    assert "numerical failure: every degree failed (n = 2: " in lines[0]
    assert error in lines[0]
    rows = out_csv.read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["2", "3", "4"]
    assert all(row.split(",")[4] == "nan" for row in rows)
    assert "\n".join(rows) in out
    # no degree has an error to anchor the guide on: the plot has none
    root = ET.parse(out_svg).getroot()
    assert not [line for line in root.iter("{http://www.w3.org/2000/svg}line")
                if line.get("stroke-dasharray")]


def test_converge_without_reference_eigenfunction_computes_no_eigenvector(tmp_path, capsys):
    # the tiny-domain file above without ref_phi: eps_lambda needs only the
    # eigenvalue, so the inverse iteration that fails there is never run
    model = tmp_path / "model.txt"
    model.write_text('x_min = 0\nx_max = 1e-300\nmu = "1"\nbeta = "1"\nref_lambda = -1\n')
    out_csv = tmp_path / "conv.csv"
    code, _, err = run(
        capsys, "converge", "--model", str(model), "--n-min", "2", "--n-max", "4",
        "--out", str(out_csv),
    )
    assert code == 0
    assert err == ""
    rows = [row.split(",") for row in out_csv.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["2", "3", "4"]
    assert all(np.isfinite(float(row[4])) and row[3] == "nan" for row in rows)


def test_converge_svg_does_not_change_csv(tmp_path, capsys):
    plain_csv = tmp_path / "plain.csv"
    args = ["converge", "--model", "builtin:appendix1d",
            "--n-min", "4", "--n-max", "12", "--n-step", "4"]
    assert run(capsys, *args, "--out", str(plain_csv))[0] == 0
    with_svg_csv = tmp_path / "withsvg.csv"
    svg = tmp_path / "plot.svg"
    assert run(capsys, *args, "--out", str(with_svg_csv), "--svg", str(svg),
               "--guide-slope", "-3")[0] == 0
    assert plain_csv.read_bytes() == with_svg_csv.read_bytes()
    text = svg.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert "slope -3" in text


@pytest.mark.parametrize(
    "name, shown",
    [("a&b<c.txt", "a&b<c.txt"), ("a\x01b.txt", "a\\x01b.txt"),
     (os.fsdecode(b"a\xffb.txt"), "a\\udcffb.txt")],
    ids=["markup", "control-character", "undecodable-byte"],
)
def test_converge_svg_title_is_well_formed(tmp_path, capsys, name, shown):
    model = tmp_path / name
    model.write_text('x_min = 0\nx_max = 1\nmu = "1"\nbeta = "1"\nref_lambda = -1\n')
    svg = tmp_path / "plot.svg"
    code, _, err = run(capsys, "converge", "--model", str(model),
                       "--n-min", "4", "--n-max", "12", "--n-step", "4", "--svg", str(svg))
    assert (code, err) == (0, "")
    root = ET.parse(svg).getroot()
    assert root.find("{http://www.w3.org/2000/svg}text").text == os.path.join(tmp_path, shown)


def test_converge_svg_of_one_degree(tmp_path, capsys):
    # one degree spans no range of n: the plot widens its x-range
    svg = tmp_path / "plot.svg"
    code, _, err = run(capsys, "converge", "--model", "builtin:ex2_1",
                       "--n-min", "8", "--n-max", "8", "--svg", str(svg))
    assert (code, err) == (0, "")
    assert ET.parse(svg).getroot().tag == "{http://www.w3.org/2000/svg}svg"


def test_huge_guide_slopes_are_clipped_to_the_plot(tmp_path, capsys):
    svg = tmp_path / "plot.svg"
    code, _, err = run(capsys, "converge", "--model", "builtin:appendix1d",
                       "--n-min", "4", "--n-max", "12", "--n-step", "4", "--svg", str(svg),
                       "--guide-slope", "1e308", "--guide-slope=-1e308")
    assert code == 0
    assert err == ""
    root = ET.parse(svg).getroot()
    frame = root.findall("{http://www.w3.org/2000/svg}rect")[1]
    top, height = float(frame.get("y")), float(frame.get("height"))
    guides = [line for line in root.iter("{http://www.w3.org/2000/svg}line")
              if line.get("stroke-dasharray")]
    assert len(guides) == 2
    for line in guides:
        for y in (float(line.get("y1")), float(line.get("y2"))):
            assert top <= y <= top + height


def test_converge_prints_fitted_orders(capsys):
    code, out, _ = run(
        capsys, "converge", "--model", "builtin:ex2_3",
        "--n-min", "4", "--n-max", "16", "--n-step", "4",
    )
    assert code == 0
    assert "fitted order of eps_lambda" in out
    assert "fitted order of eps_phi" in out


def test_examples_listing(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11  # header + ten builtins
    row = next(line for line in lines if line.startswith("ex2_3"))
    assert "-1" in row and row.rstrip().endswith("C0")
    assert any("velocity" in line for line in lines)


def test_examples_byte_identical(capsys):
    _, first, _ = run(capsys, "examples")
    _, second, _ = run(capsys, "examples")
    assert first == second


def test_bad_arguments_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "--model", "builtin:ex1_1"])  # missing required --n
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--n", "3"],
        ["spectrum", "--model", "builtin:ex1_1", "--n", "x"],
        [],
        ["spectrum", "--model", "builtin:ex1_1", "--n", "3", "--bogus"],
        ["converge", "--model", "builtin:ex2_1", "--n-min", "8"],
    ],
    ids=["missing-option", "not-an-integer", "no-command", "unknown-flag", "missing-n-max"],
)
def test_usage_errors_are_one_line(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("popstab: configuration error: ")


def test_model_file_pipeline(tmp_path, capsys):
    path = tmp_path / "model.txt"
    path.write_text(EX11_CONFIG)
    code, out, _ = run(capsys, "spectrum", "--model", str(path), "--n", "4")
    assert code == 0
    assert "verdict: Stable" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--model", "builtin:ex1_1", "--n", "0"),
        ("spectrum", "--model", "builtin:ex1_1", "--n", "3", "--m", "-2"),
        ("spectrum", "--model", "builtin:ex1_1", "--n", "3", "--k", "0"),
        ("spectrum", "--model", "builtin:ex1_1", "--n", "3", "--oversample", "0"),
        ("converge", "--model", "builtin:ex1_1", "--n-min", "0", "--n-max", "3"),
        ("converge", "--model", "builtin:ex1_1", "--n-min", "1", "--n-max", "-1"),
        ("converge", "--model", "builtin:ex1_1", "--n-min", "1", "--n-max", "3",
         "--n-step", "0"),
    ],
    ids=["n", "m", "k", "oversample", "n-min", "n-max", "n-step"],
)
def test_nonpositive_integer_arguments_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert "must be a positive integer" in lines[0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("spectrum", "--model", "builtin:ex1_1", "--n", "3", "--tol", "-1"),
         "--tol must be nonnegative"),
        (("converge", "--model", "builtin:ex1_1", "--n-min", "5", "--n-max", "3"),
         "--n-min must not exceed --n-max"),
        (("spectrum", "--model", "builtin:appendix1d", "--n", "4", "--m", "9"),
         "--m needs a 2-D model"),
        *(
            (("converge", "--model", "builtin:appendix1d", "--n-min", "4", "--n-max", "12",
              "--guide-slope", "-3", f"--guide-slope={slope}"),
             f"--guide-slope must be finite, got {float(slope)}")
            for slope in ("nan", "inf", "-inf")
        ),
    ],
    ids=["negative-tol", "empty-degree-range", "m-on-1d-model",
         "nan-guide-slope", "inf-guide-slope", "minus-inf-guide-slope"],
)
def test_out_of_range_options_exit_two(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert message in lines[0]


@pytest.mark.parametrize(
    "text, expected, point",
    [
        ('x_min = 0\nx_max = 1\nmu = "1"\nbeta = "log(x)"\n', "beta is undefined", "at x = 0"),
        (EX11_CONFIG.replace('alpha = "1"', 'alpha = "1/xi"'), "alpha is not finite", "xi = 0,"),
    ],
    ids=["log-domain", "non-finite-kernel"],
)
def test_bad_coefficient_samples_exit_two(tmp_path, capsys, text, expected, point):
    path = tmp_path / "model.txt"
    path.write_text(text)
    code, _, err = run(capsys, "spectrum", "--model", str(path), "--n", "4")
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1
    assert expected in lines[0]
    assert point in lines[0]


_FILE_1D_TEXT = 'x_min = 0\nx_max = 1\nmu = "1"\nbeta = "1"\n'
_LONG_SUM = "+".join(["x"] * 3000)
_DEEP_PARENS = "(" * 400 + "x" + ")" * 400


@pytest.mark.parametrize(
    "content, argv, expected",
    [
        (
            _FILE_1D_TEXT.replace('mu = "1"', f'mu = "{_LONG_SUM}"').encode(),
            ["spectrum", "--n", "4"],
            "expression nested deeper than 100 levels",
        ),
        (
            _FILE_1D_TEXT.replace('mu = "1"', f'mu = "{_DEEP_PARENS}"').encode(),
            ["spectrum", "--n", "4"],
            "expression nested deeper than 100 levels",
        ),
        (
            _FILE_1D_TEXT.replace('beta = "1"', 'beta = "\xff"').encode("latin-1"),
            ["spectrum", "--n", "4"],
            "can't decode byte 0xff",
        ),
        (
            (_FILE_1D_TEXT + "ref_lambda = nan\n").encode(),
            ["converge", "--n-min", "2", "--n-max", "4"],
            "ref_lambda must be finite, got nan",
        ),
        (
            (_FILE_1D_TEXT + "ref_lambda = inf\n").encode(),
            ["converge", "--n-min", "2", "--n-max", "4"],
            "ref_lambda must be finite, got inf",
        ),
        (
            _FILE_1D_TEXT.replace("x_max = 1", "x_max = abc").encode(),
            ["spectrum", "--n", "4"],
            "x_max must be a number, got 'abc'",
        ),
        (
            (_FILE_1D_TEXT + 'ref_phi = "x"\n').encode(),
            ["spectrum", "--n", "4"],
            "ref_phi given without ref_lambda",
        ),
        (
            _FILE_1D_TEXT.replace('mu = "1"', 'mu = ""').encode(),
            ["spectrum", "--n", "4"],
            "line 3: empty value for 'mu'",
        ),
        (
            _FILE_1D_TEXT.replace('mu = "1"', 'mu = "1.2.3"').encode(),
            ["spectrum", "--n", "4"],
            "bad number '1.2.3' (at position 0)",
        ),
        (
            _FILE_1D_TEXT.replace('mu = "1"', 'mu = "x $ 2"').encode(),
            ["spectrum", "--n", "4"],
            "unexpected character '$' (at position 2)",
        ),
    ],
    ids=[
        "long-sum",
        "deep-parentheses",
        "not-utf8",
        "nan-ref-lambda",
        "inf-ref-lambda",
        "x-max-not-a-number",
        "ref-phi-without-ref-lambda",
        "empty-value",
        "bad-number",
        "unexpected-character",
    ],
)
def test_bad_model_files_exit_two(tmp_path, capsys, content, argv, expected):
    path = tmp_path / "model.txt"
    path.write_bytes(content)
    code, out, err = run(capsys, argv[0], "--model", str(path), *argv[1:])
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("popstab: configuration error: ")
    assert expected in lines[0]


# Small pools for random model files: intervals with extreme ends, and
# coefficients that are fine, undefined somewhere, or huge.
_INTERVALS = (
    ("0", "1"), ("0", "2"), ("-1", "1"), ("0.5", "1.5"), ("0", "1e-300"), ("1e300", "1e301"),
    ("0", "1e-320"), ("-1e308", "1e308"), ("0", "inf"), ("nan", "1"), ("1", "1"), ("2", "1"),
)
_COEFFICIENTS = {
    1: {
        "mu": ("1", "0", "x^2 + 1", "exp(-x)", "1/x", "log(x)", "1e300"),
        "beta": ("1", "0", "exp(-x)", "sin(3*x) + 2", "1/x", "1e300"),
    },
    2: {
        "mu": ("1", "0", "2*x + 1", "x*y + 1", "y^3 - 2*x^2 - y + 4", "1/x", "1e300"),
        "alpha": ("1", "0", "exp(-xi + sigma)", "x * xi", "step(xi - 0.5)", "1/xi", "1e300"),
        "beta": ("1", "0", "exp(-y) * sigma", "y * xi", "abs(y) * 0.75", "1/sigma", "1e300"),
        "gx": ("1", "1", "x + 2", "exp(x)"),
        "gy": ("1", "1", "y^2 + 1", "2 + y"),
    },
}


@st.composite
def _model_files(draw, dims=(1, 2)):
    """Key -> value of a model file; None leaves the key out."""
    dim = draw(st.sampled_from(dims))
    entries = {"dimension": draw(st.sampled_from((None, str(dim))))}
    for axis in "xy"[:dim]:
        entries[f"{axis}_min"], entries[f"{axis}_max"] = draw(st.sampled_from(_INTERVALS))
    for role, pool in _COEFFICIENTS[dim].items():
        entries[role] = draw(st.sampled_from(pool))
    entries["ref_lambda"] = draw(st.sampled_from((None, "-1", "-1", "1e300", "nan")))
    if entries["ref_lambda"] is not None:
        entries["ref_phi"] = draw(st.sampled_from((None, "1", "exp(x)", "log(x)")))
    return entries


# one input of each bad kind that once ended in a traceback
_FILE_1D = {"x_min": "0", "x_max": "1", "mu": "1", "beta": "1"}


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    entries=_model_files(),
    command=st.sampled_from(("spectrum", "converge")),
    n=st.integers(1, 6),
    m=st.one_of(st.none(), st.integers(1, 6)),
)
@example(entries={**_FILE_1D, "dimension": "1.5"}, command="spectrum", n=4, m=None)
@example(entries={**_FILE_1D, "dimension": "nan"}, command="spectrum", n=4, m=None)
@example(entries={**_FILE_1D, "dimension": "inf"}, command="spectrum", n=4, m=None)
@example(entries={**_FILE_1D, "x_max": "inf"}, command="spectrum", n=4, m=None)
@example(
    entries={**_FILE_1D, "x_min": "-1e308", "x_max": "1e308"}, command="spectrum", n=4, m=None
)
@example(entries={**_FILE_1D, "x_max": "1e-320"}, command="spectrum", n=4, m=None)
@example(
    entries={**_FILE_1D, "x_max": "1e-300", "ref_lambda": "-1", "ref_phi": "1"},
    command="converge",
    n=4,
    m=None,
)
@example(entries={**_FILE_1D, "mu": _LONG_SUM}, command="spectrum", n=4, m=None)
@example(entries={**_FILE_1D, "mu": _DEEP_PARENS}, command="spectrum", n=4, m=None)
def test_random_model_files_never_end_in_a_traceback(entries, command, n, m):
    _check_exit_code(entries, command, n, m)


def _check_exit_code(entries, command, n, m, extra=()):
    """The CLI on the model file ends with exit 0, 2 or 3, and with one
    stderr line exactly when it fails."""
    text = "".join(f'{key} = "{value}"\n' for key, value in entries.items() if value is not None)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        if command == "spectrum":
            argv = ["spectrum", "--model", path, "--n", str(n), *extra]
            argv += [] if m is None else ["--m", str(m)]
        else:
            argv = ["converge", "--model", path, "--n-min", str(n), "--n-max", str(n + 1)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3)
    if code:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    else:
        assert err.getvalue() == ""
    if command == "converge" and code == 0:
        # a sweep that exits 0 measured at least one degree
        rows = [line.split(",") for line in out.getvalue().splitlines()[1:] if "," in line]
        assert any(np.isfinite(float(row[4])) for row in rows), out.getvalue()


# the smallest n = m on the structured path
_N_STRUCTURED = math.isqrt(structured.STRUCTURED_MIN_DIM - 1) + 1


# a separable 2-D file that the structured path solves
_FILE_2D = {
    "x_min": "0", "x_max": "2", "y_min": "0", "y_max": "1", "mu": "2*x + 1",
    "alpha": "exp(-xi + sigma)", "beta": "exp(-y) * sigma", "gx": "x + 2", "gy": "1",
}


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    entries=_model_files(dims=(2,)),
    command=st.sampled_from(("spectrum", "converge")),
    n=st.integers(_N_STRUCTURED, _N_STRUCTURED + 2),
)
@example(entries=_FILE_2D, command="spectrum", n=_N_STRUCTURED)
@example(
    entries={**_FILE_2D, "ref_lambda": "-1", "ref_phi": "exp(x)"}, command="converge",
    n=_N_STRUCTURED,
)
@example(entries={**_FILE_2D, "y_max": "1e-300"}, command="spectrum", n=_N_STRUCTURED)
@example(entries={**_FILE_2D, "alpha": "1e300"}, command="spectrum", n=_N_STRUCTURED)
def test_random_2d_model_files_above_the_threshold_never_end_in_a_traceback(entries, command, n):
    # spectrum with --k 1 and converge take the structured path at these
    # degrees whenever mu is separable
    _check_exit_code(entries, command, n, None, extra=("--k", "1"))
