"""pyproject.toml declares ``requires-python = ">=3.10"``.  This checks the
syntax half of that floor: every source file of the package, its tests
and its benchmark parses under the 3.10 grammar.  It is best effort:
``feature_version`` covers syntax only, so a standard-library call added
after 3.10 passes here and fails only on a 3.10 interpreter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_under_the_python_floor():
    paths = sorted(p for d in ("src", "tests", "perfbench")
                   for p in (ROOT / d).rglob("*.py"))
    assert {p.parent.name for p in paths} >= {"heckechar", "tests", "perfbench"}
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


def test_floor_check_rejects_newer_syntax():
    # negative control: except* is 3.11 syntax
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))
