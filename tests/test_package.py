from pathlib import Path

import popstab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert [name for name in popstab.__all__ if not hasattr(popstab, name)] == []


def test_readme_library_example_runs(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    source = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(source, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
