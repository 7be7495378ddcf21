"""Event-triggered networked control simulation under bounded
measurement noise: hybrid consensus dynamics, noise-robust triggering
schemes, a fixed-step hybrid simulation engine, and a scenario CLI."""

from .engine import (
    JumpStormError,
    Scenario,
    SolutionTrace,
    consensus_metrics,
    inter_event_stats,
    jump_storage_change,
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
    QuadraticTrigger,
    SingleParams,
    SingleSystemScheme,
    ZenoGuaranteeError,
    gamma_sigma_from,
    phi,
    tau_miet,
)
from .graph import (
    BENCHMARK_EDGES,
    Graph,
    benchmark_topology,
    is_weight_balanced,
    laplacian,
)
from .hybrid import EventLog, HybridTime, JumpEvent, apply_jump
from .presets import PRESETS, build_preset
from .signals import NoiseSignal

__version__ = "0.1.0"
