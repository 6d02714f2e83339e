"""Per-worker runtime state for the sharded engine.

Two message planes cross shard boundaries (DESIGN.md section 14):

* the **packet plane** — timed tuples describing a packet arriving at a
  fabric element or host owned by another shard.  These become real
  events (``schedule_at``) on the receiving kernel at the start of the
  next window, sorted by ``(time, origin_shard, origin_index)`` so the
  schedule is independent of IPC arrival order;
* the **ledger plane** — untimed delivered/terminal notices sent to the
  packet's *source-host* shard, which owns its conservation-ledger entry
  (``_outstanding``).  Notices are applied as barrier metadata in the
  same deterministic order, never as simulated events, so a delivery
  just before the horizon cannot leave its ledger entry dangling.

Message kinds are small-int tags in slot 0 of a plain tuple; tuples
pickle cheaply and the per-window batches are lists of them.

RNG contract: shard ``i`` of a run rooted at ``seed`` draws from streams
derived from ``derive_seed(seed, f"shard:{i}")`` (the same labeled-stream
scheme the sweep engine uses per job, see DESIGN.md section 4).  The
substream labels ("baldur-arbitration", "baldur-beb") are unchanged.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.sim.rand import derive_seed

__all__ = [
    "MSG_ARRIVE",
    "MSG_DELIVER",
    "NOTICE_DELIVERED",
    "NOTICE_TERMINAL",
    "ShardContext",
    "shard_stream_seed",
]

# Packet-plane message kinds (slot 0 of a message tuple).
MSG_ARRIVE = 0
"""Packet enters a fabric stage owned by another shard.
``(MSG_ARRIVE, time, stage, switch, pid, src, dst, size_bytes,
create_time, is_ack, acked_pid, hops)``"""

MSG_DELIVER = 1
"""Packet delivery at a host owned by another shard.
``(MSG_DELIVER, time, pid, src, dst, size_bytes, create_time, is_ack,
acked_pid, hops)``"""

# Ledger-plane notice kinds (slot 0 of a notice tuple; slot 1 is the pid).
NOTICE_DELIVERED = 0
NOTICE_TERMINAL = 1

Message = Tuple[Any, ...]
Notice = Tuple[int, int]


def shard_stream_seed(root_seed: int, shard: int) -> int:
    """The documented per-shard RNG root: ``derive_seed(root, "shard:i")``."""
    return derive_seed(root_seed, f"shard:{shard}")


class ShardContext:
    """Attached to a worker's network as ``_shard_ctx``.

    ``None`` on an unsharded network — every hot-path branch in the
    simulators tests ``_shard_ctx is None`` first, keeping the
    single-kernel path byte-identical.
    """

    __slots__ = (
        "shard",
        "n_shards",
        "host_shard",
        "stage_shard",
        "cut_delay_ns",
        "outboxes",
        "notice_boxes",
        "latency_log",
    )

    def __init__(
        self,
        shard: int,
        n_shards: int,
        host_shard: List[int],
        stage_shard: List[int],
        cut_delay_ns: float,
    ) -> None:
        self.shard = shard
        self.n_shards = n_shards
        self.host_shard = host_shard
        self.stage_shard = stage_shard
        self.cut_delay_ns = cut_delay_ns
        self.outboxes: List[List[Message]] = [[] for _ in range(n_shards)]
        self.notice_boxes: List[List[Notice]] = [[] for _ in range(n_shards)]
        # (deliver_time, latency) per local delivery, in execution order;
        # the coordinator merges the per-shard logs into the global
        # ``stats.latencies`` ordered by (time, shard, local index).
        self.latency_log: List[Tuple[float, float]] = []

    def send(self, dest: int, message: Message) -> None:
        """Queue a packet-plane message for shard ``dest`` (this window)."""
        self.outboxes[dest].append(message)

    def notify(self, dest: int, kind: int, pid: int) -> None:
        """Queue a ledger-plane notice for shard ``dest`` (this window)."""
        self.notice_boxes[dest].append((kind, pid))

    def take(self) -> Tuple[List[List[Message]], List[List[Notice]]]:
        """Drain and return this window's outboxes and notice boxes."""
        out, notes = self.outboxes, self.notice_boxes
        self.outboxes = [[] for _ in range(self.n_shards)]
        self.notice_boxes = [[] for _ in range(self.n_shards)]
        return out, notes
