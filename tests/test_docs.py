"""The README's library sketch runs as written against the package."""

import re
from pathlib import Path

import polybottleneck

README = Path(__file__).parents[1] / "README.md"


def test_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^## Library sketch\n+```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:library sketch", "exec"), {})


def test_every_exported_name_resolves():
    missing = [name for name in polybottleneck.__all__ if not hasattr(polybottleneck, name)]
    assert not missing
    assert len(set(polybottleneck.__all__)) == len(polybottleneck.__all__)
