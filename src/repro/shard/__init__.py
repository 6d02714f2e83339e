"""Sharded parallel simulation: conservative time-window PDES.

``repro.shard`` partitions a network's switch graph into shards
(:mod:`repro.shard.plan`), runs each shard on its own
:class:`repro.sim.core.Environment` in a worker process, and synchronizes
the shards with conservative lookahead windows equal to the minimum
inter-shard link delay (:mod:`repro.shard.engine`).  The per-shard RNG
contract and the window protocol are documented in DESIGN.md section 14.

Entry points: ``NetworkSimulator.run(..., shards=N)`` (which delegates to
:func:`repro.shard.engine.run_sharded`) and ``--shards`` on the open-loop
``repro-bench`` sweep commands.
"""

from repro.shard.engine import run_sharded
from repro.shard.plan import ShardPlan, multistage_plan
from repro.shard.runtime import ShardContext, shard_stream_seed

__all__ = [
    "ShardPlan",
    "ShardContext",
    "run_sharded",
    "shard_stream_seed",
    "multistage_plan",
]
