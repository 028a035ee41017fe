import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_components_table_names_every_module():
    # the first cell of each row of README's Components table names one or
    # more modules; together they are the package's modules, no more
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Components\n", 1)[1].split("\n## ", 1)[0]
    cells = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
    named = {name for cell in cells for name in re.findall(r"`netactive\.(\w+)`", cell)}
    modules = {path.stem for path in (ROOT / "src" / "netactive").glob("*.py")} - {"__init__"}
    assert sorted(modules - named) == [], "modules missing from README's Components table"
    assert sorted(named - modules) == [], "README's Components table names missing modules"
