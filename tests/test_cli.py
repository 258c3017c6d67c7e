import numpy as np
import pytest

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


def test_spectrum_numerical_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(EX11_CONFIG + 'gx = "x"\n')  # velocity vanishes at x = 0
    code, _, err = run(capsys, "spectrum", "--model", str(bad), "--n", "4")
    assert code == 3
    assert "numerical failure" in err


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
