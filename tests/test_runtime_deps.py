"""The runtime needs nothing beyond the standard library, and the `tasim`
package re-exports nothing: every name is imported from its module."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Modules already loaded before `import tasim` come from interpreter start-up
# (site hooks of the installed environment), so only the ones the import adds
# are judged.
PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import tasim
modules = sorted(m.name for m in pkgutil.iter_modules(tasim.__path__))
for name in modules:
    importlib.import_module(f"tasim.{name}")
print(json.dumps([modules, sorted(set(sys.modules) - before)]))
"""

BARE_PROBE = """
import json, sys
before = set(sys.modules)
import tasim
names = sorted(name for name in vars(tasim) if not name.startswith("_"))
print(json.dumps([names, sorted(set(sys.modules) - before)]))
"""


def _probe(code: str):
    """Run `code` in a fresh interpreter on this checkout; returns its JSON output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_import_loads_only_tasim_and_stdlib():
    modules, loaded = _probe(PROBE)
    assert len(modules) == 9
    assert {f"tasim.{name}" for name in modules} <= set(loaded)
    foreign = [
        name for name in loaded
        if name.split(".")[0] not in ("tasim", *sys.builtin_module_names, *sys.stdlib_module_names)
    ]
    assert foreign == []


def test_bare_import_defines_no_names_and_loads_no_submodule():
    names, loaded = _probe(BARE_PROBE)
    assert names == []
    assert loaded == ["tasim"]


def test_readme_table_names_every_module():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## What is inside", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `tasim\.(\w+)` \|", table, flags=re.M)
    on_disk = sorted(p.stem for p in (ROOT / "src" / "tasim").glob("*.py") if p.stem != "__init__")
    assert len(on_disk) == 9
    assert sorted(listed) == on_disk
