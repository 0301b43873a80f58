"""Discrete-event simulation substrate: engine, FIFOs, statistics."""

from .engine import (
    TICKS_PER_NS,
    DeadlockError,
    Engine,
    SimulationError,
    ns_to_ticks,
    ticks_to_ns,
)
from .fifo import Fifo, FifoFullError
from .stats import Accumulator, StatGroup

__all__ = [
    "TICKS_PER_NS",
    "DeadlockError",
    "Engine",
    "SimulationError",
    "ns_to_ticks",
    "ticks_to_ns",
    "Fifo",
    "FifoFullError",
    "Accumulator",
    "StatGroup",
]
