"""The README's Python quick start runs as written against the package root."""

import re
from pathlib import Path

import evarank

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs():
    exec(compile(quick_start(), str(README), "exec"), {})


def test_package_root_exports_the_readme_names():
    imported = re.search(r"from evarank import \((.*?)\)", quick_start(), re.S).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    # the matrix-export section reads files back with evarank.load_matrix_binary
    assert set(evarank.__all__) == names | {"load_matrix_binary"}
    assert all(hasattr(evarank, name) for name in evarank.__all__)
