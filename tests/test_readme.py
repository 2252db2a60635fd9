"""The documented surface: README.md's Python examples run as written, and
the package's __all__ lists every public name."""

import re
import types
from pathlib import Path

import kwise

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_all_lists_the_public_names():
    public = {
        name
        for name, value in vars(kwise).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(kwise.__all__) == sorted(public)
