"""repro.zoo -- the architecture table.

:data:`ARCHITECTURES` maps a name to a builder and :func:`build_network`
calls it: the five Sec. V networks, all over the shared
:class:`~repro.netsim.network.NetworkSimulator` substrate.
"""

from repro.zoo.architectures import ARCHITECTURES, build_network

__all__ = ["ARCHITECTURES", "build_network"]
