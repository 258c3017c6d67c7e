"""Printed results pinned across commits.

The values are what ``popstab spectrum`` and ``popstab converge`` printed
(17 significant digits, one BLAS thread) when they were pinned.  A change
that moves one by more than 1e-12 max(1, |lambda|), or moves a fitted
order, fails here; rounding does not.  (The dense ``--k 10`` noise on
ex1_2 is about 3e-13.)
"""

import re

import pytest

from popstab.cli import main

# ``spectrum --model builtin:<name> --n <n> --k <k>``: the --k 1 abscissa of
# every separable 2-D builtin at n = 12 and 24 (the structured path), of the
# 1-D appendix1d at n = 30, and ex1_4's 10 rightmost eigenvalues at n = 8
# (both dense)
SPECTRA = {
    ("ex1_1", 12, 1): [-0.99999999999998745],
    ("ex1_2", 12, 1): [-0.9999999999999799],
    ("ex1_3", 12, 1): [-1.0000000000007692],
    ("ex1_4", 12, 1): [-2.0000003154951371],
    ("ex2_1", 12, 1): [-1.0000025376695243],
    ("ex2_2", 12, 1): [-0.99999429679106389],
    ("ex2_3", 12, 1): [-0.99993624451269048],
    ("ex2_4", 12, 1): [-0.99888723351189923],
    ("velocity", 12, 1): [-5.0000001045318063],
    ("ex1_1", 24, 1): [-1.0],
    ("ex1_2", 24, 1): [-0.99999999999996181],
    ("ex1_3", 24, 1): [-0.99999999999997913],
    ("ex1_4", 24, 1): [-2.0000000000000027],
    ("ex2_1", 24, 1): [-1.0000000407415268],
    ("ex2_2", 24, 1): [-0.99999967388314703],
    ("ex2_3", 24, 1): [-0.99999577471055312],
    ("ex2_4", 24, 1): [-0.99981702255171712],
    ("velocity", 24, 1): [-5.0000000000000107],
    ("appendix1d", 30, 1): [-1.2031878699799998],
    ("ex1_4", 8, 10): [
        -2.0000705982601841,
        -5.4134708493187595 + 7.716604926912991j,
        -5.4134708493187595 - 7.716604926912991j,
        -5.9511909813466382 + 7.0132024757327329j,
        -5.9511909813466382 - 7.0132024757327329j,
        -5.9603570298869943 + 20.37667254247021j,
        -5.9603570298869943 - 20.37667254247021j,
        -6.2143084808936875 + 13.887527384250516j,
        -6.2143084808936875 - 13.887527384250516j,
        -7.3189869015286089 + 17.484247815057621j,
    ],
}

# an eigenvalue row of ``spectrum``: index, real part, imaginary part
ROW = re.compile(r"^ +\d+  (\S+)  (\S+)$", re.MULTILINE)


@pytest.mark.parametrize("name, n, k", list(SPECTRA))
def test_printed_eigenvalues_are_pinned(capsys, name, n, k):
    assert main(["spectrum", "--model", f"builtin:{name}", "--n", str(n), "--k", str(k)]) == 0
    got = [complex(float(re_), float(im)) for re_, im in ROW.findall(capsys.readouterr().out)]
    want = SPECTRA[name, n, k]
    assert len(got) == len(want)
    for value, pinned in zip(got, want):
        assert abs(value - pinned) <= 1e-12 * max(1.0, abs(pinned)), (value, pinned)


def test_printed_fitted_orders_are_pinned(capsys):
    argv = "converge --model builtin:ex2_1 --n-min 8 --n-max 48 --n-step 8"
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert "fitted order of eps_lambda: -5.314\n" in out
    assert "fitted order of eps_phi: -3.756\n" in out
