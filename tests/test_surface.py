"""The documented import surface: every ``from scorewave… import …`` line in
the README's python blocks runs, and the package re-exports exactly the
names those lines take from ``scorewave`` plus the error classes."""

from __future__ import annotations

import re
from pathlib import Path

import scorewave
from scorewave import errors

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_imports() -> list[str]:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    return [line.strip() for block in blocks for line in block.splitlines()
            if re.match(r"from scorewave(\.\w+)* import ", line.strip())]


def test_readme_import_lines_run():
    lines = readme_imports()
    assert any(line.startswith("from scorewave import ") for line in lines)
    for line in lines:
        exec(line, {})


def test_package_all_is_readme_names_plus_errors():
    documented = {name.strip() for line in readme_imports()
                  if line.startswith("from scorewave import ")
                  for name in line.partition(" import ")[2].split(",")}
    error_classes = {name for name, obj in vars(errors).items()
                     if isinstance(obj, type) and issubclass(obj, errors.ScorewaveError)}
    assert len(error_classes) == 7
    assert sorted(scorewave.__all__) == sorted(documented | error_classes)
    assert all(hasattr(scorewave, name) for name in scorewave.__all__)
