"""Network topology construction (multi-butterfly, dragonfly, fat-tree)."""

from repro.topology.benes import BenesTopology
from repro.topology.butterfly import MultiButterflyTopology
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.fattree import FatTreeTopology
from repro.topology.ideal import IdealTopology
from repro.topology.omega import OmegaTopology

__all__ = [
    "BenesTopology",
    "MultiButterflyTopology",
    "DragonflyTopology",
    "FatTreeTopology",
    "IdealTopology",
    "OmegaTopology",
]
