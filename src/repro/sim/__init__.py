"""Discrete-event simulation kernel: a callback heap plus seeded RNG streams."""

from repro.sim.core import Environment
from repro.sim.rand import derive_seed, numpy_stream, stream

__all__ = [
    "Environment",
    "derive_seed",
    "numpy_stream",
    "stream",
]
