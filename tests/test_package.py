from pathlib import Path

import numpy as np

import popstab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert [name for name in popstab.__all__ if not hasattr(popstab, name)] == []


def test_readme_library_example_runs(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    source = library.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(source, str(README), "exec"), names)
    assert capsys.readouterr().out.strip()
    # what the comments claim: the structured report's stored eigenvector is
    # the dense path's rightmost eigenvector
    assert "rightmost.vector(0)" in source
    assert (names["report"].path, names["rightmost"].path) == ("dense", "structured")
    psi, psi_top = names["psi"], names["psi_top"]
    phase = np.vdot(psi, psi_top)
    assert np.max(np.abs(psi_top - phase / abs(phase) * psi)) <= 1e-12
