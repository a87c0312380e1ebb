"""The README's library example runs, and the public API covers every
documented name."""

import re
from pathlib import Path

import spextremal as sp

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def test_library_at_a_glance_runs():
    section = README.split("## Library at a glance", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert "import spextremal as sp" in block
    exec(compile(block, "README.md", "exec"), {})


def test_documented_names_are_exported():
    texts = [README] + [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    used = {name for text in texts for name in re.findall(r"\bsp\.([A-Za-z_]\w*)", text)}
    assert used
    assert used <= set(sp.__all__), used - set(sp.__all__)
