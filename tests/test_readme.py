"""The README's library example runs as written, and its module table
names the package's modules."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("CodeParams(")


def test_readme_module_table_names_every_module():
    text = README.read_text(encoding="utf-8")
    table = text.split("\n| module ", 1)[1].split("\n\n", 1)[0]
    named = re.findall(r"^\| `(\w+)` ", table, re.M)
    package = README.parent / "src" / "cyclecodes"
    modules = {p.stem for p in package.glob("*.py")} - {"__init__"}
    assert sorted(named) == sorted(modules)
