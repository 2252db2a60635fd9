"""The documented surface: README.md's Python examples and self-contained
`kwise` command lines run as written, and the package's __all__ lists
every public name."""

import re
import shlex
import types
from pathlib import Path

import kwise
from kwise.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_commands_run(tmp_path, capsys, monkeypatch):
    # every `kwise` line of the shell blocks that names no @file runs as
    # written; the earlier lines' records form the ledger `report` reads
    text = README.read_text(encoding="utf-8")
    lines = [
        line[len("kwise "):]
        for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
        for line in block.splitlines()
        if line.startswith("kwise ") and "@" not in line
    ]
    assert [line.split()[0] for line in lines] == [
        "construct", "construct", "construct", "check", "closure", "disjointness",
        "search-min", "report",
    ]
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line, comments=True)) == 0, line
        with open("runs.jsonl", "a", encoding="utf-8") as fh:
            fh.write(capsys.readouterr().out)


def test_all_lists_the_public_names():
    public = {
        name
        for name, value in vars(kwise).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(kwise.__all__) == sorted(public)
