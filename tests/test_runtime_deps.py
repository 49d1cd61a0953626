"""The runtime needs nothing beyond the standard library."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Modules already loaded before `import tasim` come from interpreter start-up
# (site hooks of the installed environment), so only the ones the import adds
# are judged.
PROBE = """
import json, sys
before = set(sys.modules)
import tasim, tasim.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_loads_only_tasim_and_stdlib():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = json.loads(proc.stdout)
    assert "tasim.cli" in loaded
    foreign = [
        name for name in loaded
        if name.split(".")[0] not in ("tasim", *sys.builtin_module_names, *sys.stdlib_module_names)
    ]
    assert foreign == []
