"""The runtime needs nothing beyond the standard library, and its public namespace is pinned."""

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


NAMES_PROBE = """
import json, tasim
print(json.dumps(sorted(name for name in vars(tasim) if not name.startswith("_"))))
"""

# The public `tasim` namespace, submodules included; a change to it is deliberate.
PUBLIC_NAMES = {
    "AtomicStore", "BoundedSnapshot", "CONTINUE", "Event", "HeadsRng", "History", "LOSE",
    "LogicMachine", "Memory", "NaiveSifterLogic", "OpRecord", "READ", "RandTas",
    "RegisterWidthError", "S_MAX", "SearchBudgetExceeded", "SifterLogic", "SnapshotSequential",
    "SoloProbeReport", "StepMachine", "TailsRng", "TasLogic", "TasSequential", "Verdict", "WIN",
    "WRITE", "atomic", "check_linearizable", "check_tas", "ell", "explore",
    "explore_interleavings", "export_trace_jsonl", "f", "floor_log32", "gw_sizes", "gw_steps",
    "make_schedule", "ops_program", "probe_solo", "randomized", "register_count",
    "register_program", "run", "run_atomic_solo", "run_live_uniform", "shm", "sifter",
    "sifter_machines", "sifter_snapshot", "sifter_store", "sifter_system", "snapshot",
    "solo_step_bound", "split_steps", "tas_det", "tas_machines", "tas_rand",
    "tas_register_widths", "tas_store", "tas_system", "value_bits", "verify", "wle_machines",
    "wle_store", "wrap", "wrapped_tas_system",
}


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
    loaded = _probe(PROBE)
    assert "tasim.cli" in loaded
    foreign = [
        name for name in loaded
        if name.split(".")[0] not in ("tasim", *sys.builtin_module_names, *sys.stdlib_module_names)
    ]
    assert foreign == []


def test_public_namespace_is_pinned():
    names = _probe(NAMES_PROBE)
    assert len(PUBLIC_NAMES) == 67
    assert set(names) == PUBLIC_NAMES, (
        f"added {sorted(set(names) - PUBLIC_NAMES)}, removed {sorted(PUBLIC_NAMES - set(names))}"
    )
