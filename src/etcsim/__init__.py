"""Event-triggered networked control simulation under bounded
measurement noise: hybrid consensus dynamics, noise-robust triggering
schemes, a fixed-step hybrid simulation engine, and a scenario CLI."""

from .engine import (
    JumpStormError,
    Scenario,
    SolutionTrace,
    consensus_metrics,
    inter_event_stats,
    jump_set,
    jump_storage_change,
    lyapunov_series,
    simulate,
    zeno_indicator,
)
from .etm import (
    BerneburgParams,
    BerneburgScheme,
    DolkParams,
    DolkScheme,
    GarciaParams,
    GarciaScheme,
    PhiSolution,
    QuadraticTrigger,
    SingleParams,
    SingleSystemScheme,
    ZenoGuaranteeError,
    gamma_sigma_from,
    phi_solve,
    tau_miet,
)
from .graph import (
    BENCHMARK_EDGES,
    Graph,
    benchmark_topology,
    is_weight_balanced,
    laplacian,
)
from .hybrid import EventLog, HybridState, HybridTime, JumpEvent, apply_jump
from .presets import PRESETS, build_preset, preset_names
from .signals import NoiseSignal

__version__ = "0.1.0"
