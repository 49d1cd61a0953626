"""Space-efficient obstruction-free test-and-set over simulated shared
registers, with deterministic schedule exploration and history checking."""

from .shm import (
    READ,
    WRITE,
    Event,
    History,
    Memory,
    OpRecord,
    RegisterWidthError,
    StepMachine,
    export_trace_jsonl,
    make_schedule,
    run,
    run_live_uniform,
)
from .atomic import (
    AtomicStore,
    LogicMachine,
    explore,
    explore_interleavings,
    register_program,
    run_atomic_solo,
)
from .snapshot import BoundedSnapshot, ops_program
from .sifter import (
    LOSE,
    WIN,
    NaiveSifterLogic,
    SifterLogic,
    sifter_machines,
    sifter_snapshot,
    sifter_store,
    sifter_system,
    value_bits,
)
from .tas_det import (
    S_MAX,
    TasLogic,
    ell,
    f,
    floor_log32,
    register_count,
    solo_step_bound,
    tas_machines,
    tas_register_widths,
    tas_store,
    tas_system,
    wle_machines,
    wle_store,
)
from .randomized import HeadsRng, TailsRng, wrap, wrapped_tas_system
from .tas_rand import CONTINUE, RandTas, gw_sizes, gw_steps, split_steps
from .verify import (
    SearchBudgetExceeded,
    SnapshotSequential,
    SoloProbeReport,
    TasSequential,
    Verdict,
    check_linearizable,
    check_tas,
    probe_solo,
)

__version__ = "0.1.0"
