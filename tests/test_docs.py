"""The README's library example runs, the public API covers every
documented name, and every name src/ defines is reached from outside the
tests."""

import ast
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


def test_every_src_name_is_reached():
    # a top-level name of src/ that neither src/, the demos, the benchmark,
    # the README nor pyproject.toml reaches serves the tests alone, and
    # belongs beside them (tests/exact_oracles.py)
    src = sorted((ROOT / "src" / "spextremal").glob("*.py"))
    defined, reached = {}, set()
    for path in src + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        module = ast.parse(path.read_text())
        for node in module.body if path in src else ():
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.stem
            elif isinstance(node, ast.Assign):
                defined.update({t.id: path.stem for t in node.targets if isinstance(t, ast.Name)})
        for node in ast.walk(module):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
            elif isinstance(node, ast.alias):
                reached.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                reached.add(node.value)
    for path in (ROOT / "README.md", ROOT / "pyproject.toml"):
        reached.update(re.findall(r"\w+", path.read_text()))
    unreached = sorted(f"{module}.{name}" for name, module in defined.items()
                       if name not in reached)
    assert unreached == [], unreached
