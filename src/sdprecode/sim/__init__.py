"""Monte Carlo experiment harness: configs, runners, and artifacts."""

from .config import ChannelSpec, ConfigError, SimConfig, SolverSpec
from .engine import (
    RNG_BATCH,
    SerCurve,
    run_iq_scatter,
    run_ser,
    run_spectrum,
)

__all__ = [
    "ChannelSpec",
    "ConfigError",
    "SimConfig",
    "SolverSpec",
    "RNG_BATCH",
    "SerCurve",
    "run_iq_scatter",
    "run_ser",
    "run_spectrum",
]
