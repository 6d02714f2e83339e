"""The Baldur all-optical network simulator (Sec. IV/V).

Bufferless, clock-less multi-butterfly of 2x2 TL switches:

* **Cut-through streaming** -- a packet's head traverses one stage per
  switch latency (1.5 ns at multiplicity 4, Table V); each traversed output
  port is occupied for the packet's full serialization time.
* **Drops** -- if none of the m output ports of the routing direction is
  free when the header arrives, the packet is dropped on the spot (there
  are no optical buffers).
* **Path multiplicity + randomness** -- a free port is chosen uniformly at
  random among the free ports of the direction; the randomized inter-stage
  wiring provides expansion [14], [19].
* **Retransmission** -- receivers return ACK packets through the network
  (ACKs contend and drop like any packet).  A transmitter that misses the
  ACK within its local timeout retransmits after a binary-exponential-
  backoff delay [48], keeping unACKed packets in a per-node retransmission
  buffer whose peak occupancy is tracked (the 536 KB observation of
  Sec. IV-E).

Latency results account for all drop/retransmission overheads (Sec. V-B).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

from repro import constants as C
from repro.errors import ConfigurationError, ShardingUnsupportedError
from repro.netsim.network import NetworkSimulator
from repro.netsim.packet import ACK_SIZE_BYTES, Packet
from repro.shard.runtime import MSG_ARRIVE, MSG_DELIVER, shard_stream_seed
from repro.sim.rand import stream
from repro.tl.switch_circuit import switch_model
from repro.topology.butterfly import MultiButterflyTopology

__all__ = ["BaldurNetwork"]

_INF = float("inf")

DEFAULT_TIMEOUT_NS = 3000.0
"""Retransmission timeout: comfortably above the unloaded data+ACK RTT
(~700 ns) so only real drops trigger retransmission."""

BEB_SLOT_NS = 200.0
"""Binary exponential backoff slot."""

DEFAULT_MAX_ATTEMPTS = 64
"""Give-up bound; with sub-percent drop rates this is never reached."""

ACK_COALESCE_WINDOW_NS = 50.0
"""Traffic-combining window: deliveries from the same source arriving
within this window share one ACK (Sec. VIII extension)."""


class BaldurNetwork(NetworkSimulator):
    """Packet simulator for Baldur."""

    # Every attribute read in _drain/_deliver/_transmit resolves
    # through slots (see NetworkSimulator.__slots__).
    __slots__ = (
        "topology",
        "multiplicity",
        "link_delay_ns",
        "link_rate_gbps",
        "switch_latency_ns",
        "timeout_ns",
        "max_attempts",
        "enable_retransmission",
        "_rng",
        "_beb_rng",
        "_busy",
        "_sps",
        "_wiring",
        "_bit_table",
        "_last_stage",
        "_hop_lane",
        "_nic_free_at",
        "_entry",
        "_pending",
        "_delivered_pids",
        "_retx_buffer_bytes",
        "peak_retx_buffer_bytes",
        "lost_packets",
        "packet_filter",
        "ack_coalescing",
        "ack_coalesce_window_ns",
        "filtered_packets",
        "acks_sent",
        "_pending_ack_covers",
        "faulty_switches",
        "test_port",
        "_record_paths",
        "paths",
        "masked_switches",
        "_given_up_pids",
        "unreachable",
        "_fast",
        "_tx_cache",
        "_seed",
    )

    def __init__(
        self,
        n_nodes: int,
        multiplicity: int = C.BALDUR_MULTIPLICITY,
        seed: int = 0,
        link_delay_ns: float = C.BALDUR_LINK_DELAY_NS,
        timeout_ns: float = DEFAULT_TIMEOUT_NS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        enable_retransmission: bool = True,
        topology=None,
        packet_filter=None,
        ack_coalescing: bool = False,
        ack_coalesce_window_ns: float = ACK_COALESCE_WINDOW_NS,
        link_rate_gbps: float = C.LINK_DATA_RATE_GBPS,
    ):
        """Build a Baldur network.

        ``topology`` accepts any multi-stage topology exposing the
        multi-butterfly interface (``n_stages``, ``switches_per_stage``,
        ``entry_switch``, ``routing_bit``, ``next_switches``,
        ``is_last_stage``); by default a randomized multi-butterfly is
        constructed.  ``packet_filter`` enables the in-network security
        filtering of Sec. VIII (a predicate dropping matching packets at
        the first stage); ``ack_coalescing`` enables the traffic-combining
        extension (one ACK acknowledges every delivery it covers).
        """
        super().__init__(n_nodes)
        if max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        self.topology = topology or MultiButterflyTopology(
            n_nodes, multiplicity, seed
        )
        if self.topology.n_nodes != n_nodes:
            raise ConfigurationError(
                "topology node count does not match the network"
            )
        self.multiplicity = multiplicity
        self.link_delay_ns = link_delay_ns
        self.link_rate_gbps = link_rate_gbps
        self.switch_latency_ns = switch_model(multiplicity).latency_ns
        self.timeout_ns = timeout_ns
        self.max_attempts = max_attempts
        self.enable_retransmission = enable_retransmission
        self._seed = seed
        self._rng = stream(seed, "baldur-arbitration")
        self._beb_rng = stream(seed, "baldur-beb")

        # Port occupancy, flattened into one preallocated list:
        # _busy[((stage * sps + switch) * 2 + bit) * m + k] is the time
        # until which physical port k of that (switch, direction) is
        # occupied by a streaming packet.  One flat list keeps arbitration
        # to index arithmetic (no nested-list indirection per hop).
        sps = self.topology.switches_per_stage
        self._busy: List[float] = (
            [0.0] * (self.topology.n_stages * sps * 2 * multiplicity)
        )
        # Per-hop lookups resolved once here.  _wiring/_bit_table are None
        # for topologies without those tables (e.g. Benes, whose
        # routing_bit draws RNG and so cannot be precomputed) -- their hops
        # then take _arrive_stage, which falls back to the topology's
        # methods.
        self._sps = sps
        self._wiring = getattr(self.topology, "wiring", None)
        self._bit_table = getattr(self.topology, "bit_table", None)
        self._last_stage = next(
            s for s in range(self.topology.n_stages)
            if self.topology.is_last_stage(s)
        )
        # Inter-stage hops are scheduled at now + switch_latency_ns with
        # now non-decreasing, i.e. already in dispatch order: they queue on
        # a kernel FIFO lane instead of the heap (see _drain).
        self._hop_lane = self.env.lane()
        # Host NICs serialize injections (data and ACKs share the NIC).
        self._nic_free_at = [0.0] * n_nodes
        # Entry switches, precomputed: _transmit runs once per attempt of
        # every data packet and ACK, and entry_switch() validates its
        # argument on every call.
        self._entry = [
            self.topology.entry_switch(node) for node in range(n_nodes)
        ]
        # Retransmission state.
        self._pending: Dict[int, Packet] = {}
        self._delivered_pids: Set[int] = set()
        self._retx_buffer_bytes = [0] * n_nodes
        self.peak_retx_buffer_bytes = [0] * n_nodes
        self.lost_packets = 0
        # Extensions and diagnosis support.
        self.packet_filter = packet_filter
        self.ack_coalescing = ack_coalescing
        self.ack_coalesce_window_ns = ack_coalesce_window_ns
        self.filtered_packets = 0
        self.acks_sent = 0
        self._pending_ack_covers: Dict[int, List[int]] = {}
        self.faulty_switches: Set[tuple] = set()
        self.test_port: Optional[int] = None
        self._record_paths = False
        self.paths: Dict[int, List[int]] = {}
        # Degraded-mode operation (Sec. IV-F): switches diagnosed as faulty
        # and masked out of routing; the m-way multiplicity routes around.
        self.masked_switches: Set[Tuple[int, int]] = set()
        # Retransmission hardening: pids the source explicitly abandoned
        # (at-most-once delivery suppresses any late copy), and per-flow
        # give-up counts for unreachable-destination reporting.
        self._given_up_pids: Set[int] = set()
        self.unreachable: Dict[Tuple[int, int], int] = {}
        # Serialization times by packet size at the network's (fixed) link
        # rate: first transmits and ACKs hit this dict instead of
        # re-deriving the wire time per packet.
        self._tx_cache: Dict[int, float] = {}
        self._refresh_fast()

    def _refresh_fast(self) -> None:
        """Recompute ``_fast``: whether hops may take :meth:`_drain`.

        False while a hop has anything to report to or obey -- a tracer,
        metrics, a fault injector or injected faults, masked switches,
        test mode, path recording -- and for a topology without
        ``bit_table``/``wiring`` tables or a subclass that overrides
        :meth:`_arrive_stage`; those hops take :meth:`_arrive_stage`.
        Every mutation point -- attach_tracer/attach_metrics/attach_faults
        via the _install hooks, inject_fault, mask_switch/unmask_switch,
        enable_test_mode, record_paths -- refreshes it.
        """
        self._fast = (
            self.tracer is None
            and self.metrics is None
            and self.fault_injector is None
            and not self.faulty_switches
            and not self.masked_switches
            and self.test_port is None
            and not self._record_paths
            and self._bit_table is not None
            and self._wiring is not None
            and type(self)._arrive_stage is BaldurNetwork._arrive_stage
        )

    @property
    def record_paths(self) -> bool:
        """Whether each hop is appended to ``paths`` (diagnosis runs)."""
        return self._record_paths

    @record_paths.setter
    def record_paths(self, value: bool) -> None:
        self._record_paths = bool(value)
        self._refresh_fast()

    def _install_obs(self) -> None:
        super()._install_obs()
        self._refresh_fast()

    def _install_faults(self) -> None:
        super()._install_faults()
        self._refresh_fast()

    # -- fault injection and diagnosis support (Sec. IV-F) ------------------

    def inject_fault(self, stage: int, switch: int) -> None:
        """Mark a 2x2 switch as faulty: it drops every packet it sees."""
        if not 0 <= stage < self.topology.n_stages:
            raise ConfigurationError(f"stage {stage} out of range")
        if not 0 <= switch < self.topology.switches_per_stage:
            raise ConfigurationError(f"switch {switch} out of range")
        self.faulty_switches.add((stage, switch))
        self._refresh_fast()

    def mask_switch(self, stage: int, switch: int) -> None:
        """Degraded mode (Sec. IV-F): exclude a diagnosed switch from
        routing.  Upstream switches stop selecting ports that lead to it,
        so traffic flows through the remaining m-1 paths of each direction.
        Entry (stage-0) switches cannot be routed around -- masking one
        only documents the fault; its hosts' traffic still enters there.
        """
        if not 0 <= stage < self.topology.n_stages:
            raise ConfigurationError(f"stage {stage} out of range")
        if not 0 <= switch < self.topology.switches_per_stage:
            raise ConfigurationError(f"switch {switch} out of range")
        self.masked_switches.add((stage, switch))
        self._refresh_fast()

    def unmask_switch(self, stage: int, switch: int) -> None:
        """Return a repaired switch to service."""
        self.masked_switches.discard((stage, switch))
        self._refresh_fast()

    def switch_ids(self) -> List[int]:
        """Flat ids of every 2x2 switch (stage-major, as in diagnosis)."""
        return list(
            range(self.topology.n_stages * self.topology.switches_per_stage)
        )

    def enable_test_mode(self, port: int = 0) -> None:
        """Diagnosis test mode (Sec. IV-F): test signals block all output
        ports except ``port`` in every switch, making routing deterministic
        even at multiplicity > 1."""
        if not 0 <= port < self.multiplicity:
            raise ConfigurationError(
                f"test port {port} out of range [0, {self.multiplicity})"
            )
        self.test_port = port
        self._refresh_fast()

    def flat_switch_id(self, stage: int, switch: int) -> int:
        """Flat id used in recorded paths."""
        return stage * self.topology.switches_per_stage + switch

    # -- injection -----------------------------------------------------------

    def _inject(self, packet: Packet) -> None:
        filt = self.packet_filter
        if filt is not None and filt(packet):
            # In-network filtering (Sec. VIII): the first-stage switch
            # blocks the packet; no retransmission state is created.
            self.filtered_packets += 1
            if self.tracer is not None:
                self.tracer.record(
                    self.env.now, "drop", packet, note="filtered"
                )
            if not packet.is_ack:
                self._record_terminal_drop(packet)
            return
        if self.tracer is not None:
            self.tracer.record(self.env.now, "inject", packet)
        if self.enable_retransmission and not packet.is_ack:
            src = packet.src
            retx = self._retx_buffer_bytes
            retx[src] += packet.size_bytes
            self._pending[packet.pid] = packet
            peak = retx[src]
            if peak > self.peak_retx_buffer_bytes[src]:
                self.peak_retx_buffer_bytes[src] = peak
        self._transmit(packet, 1)

    def _transmit(self, packet: Packet, attempt: int) -> None:
        """Serialize onto the source NIC and launch into stage 0."""
        env = self.env
        now = env._now
        src = packet.src
        nic = self._nic_free_at
        free_at = nic[src]
        start = free_at if free_at > now else now
        rate = self.link_rate_gbps
        if packet._tx_rate == rate:
            tx = packet._tx_ns
        else:
            # First transmit of this packet: take the wire time from the
            # per-size cache (same deterministic value the packet memo
            # would compute) and seed the memo for later hops.
            size = packet.size_bytes
            tx = self._tx_cache.get(size)
            if tx is None:
                tx = packet.serialization_time_ns(rate)
                self._tx_cache[size] = tx
            else:
                packet._tx_rate = rate
                packet._tx_ns = tx
        nic[src] = start + tx
        # start >= now and the offsets are non-negative model constants,
        # so the unvalidated inline heap push (Environment.schedule_at,
        # open-coded) is safe here.
        queue = env._queue
        seq = env._seq
        ctx = self._shard_ctx
        if ctx is None or ctx.stage_shard[0] == ctx.shard:
            heappush(
                queue,
                (start + self.link_delay_ns, seq,
                 self._arrive_stage, (packet, 0, self._entry[src])),
            )
            seq += 1
        else:
            # Sharded worker whose stage-0 block lives elsewhere: the
            # injection-link hop crosses the cut.  The retransmission
            # timeout (below) always stays with the source host.
            ctx.send(
                ctx.stage_shard[0],
                (MSG_ARRIVE, start + self.link_delay_ns, 0,
                 self._entry[src], packet.pid, src, packet.dst,
                 packet.size_bytes, packet.create_time, packet.is_ack,
                 packet.acked_pid, packet.hops),
            )
        if (
            self.enable_retransmission
            and not packet.is_ack
            and attempt <= self.max_attempts
        ):
            heappush(
                queue,
                (start + self.timeout_ns, seq,
                 self._check_timeout, (packet, attempt)),
            )
            seq += 1
        env._seq = seq

    # -- switch traversal ---------------------------------------------------------

    def _arrive_stage(self, packet: Packet, stage: int, switch: int) -> None:
        """Packet header reaches (stage, switch): arbitrate and forward.

        The instrumented hop handler (DESIGN.md section 10).  Hops come
        here only when :meth:`_drain` cannot take them: while ``_fast``
        is false (tracer, metrics, faults, masks, test mode, path
        recording, a topology without tables, a subclass override), with
        a kernel profile attached, and for whatever is left after a
        mid-run hand-over.  Arbitration builds the explicit free-port
        list that test mode, masking and the metrics occupancy gauge
        need and draws ``randrange(n_free)`` iff more than one port is
        free -- CPython's ``_randbelow``, the same draws as the drain's
        scan -- so results are byte-identical to a drained run.
        """
        env = self.env
        now = env._now
        flat = stage * self._sps + switch
        if self._record_paths:
            self.paths.setdefault(packet.pid, []).append(flat)
        tracer = self.tracer
        metrics = self.metrics
        injector = self.fault_injector
        if tracer is not None:
            tracer.record(now, "stage_arrival", packet, switch=flat, stage=stage)
        if metrics is not None:
            metrics.incr("arrivals", flat, now)
        if (stage, switch) in self.faulty_switches or (
            injector is not None and injector.check_drop(flat, now)
        ):
            self._drop_in_network(packet, stage=stage, switch=switch,
                                  note="fault")
            return
        bits = self._bit_table
        bit = (
            bits[packet.dst][stage]
            if bits is not None
            else self.topology.routing_bit(packet.dst, stage)
        )
        last = stage == self._last_stage
        wiring = self._wiring
        targets = (
            wiring[stage][switch][bit]
            if wiring is not None
            else self.topology.next_switches(stage, switch, bit)
        )
        m = self.multiplicity
        busy = self._busy
        base = (flat * 2 + bit) * m
        # Test mode pins one port, degraded mode filters ports by masked
        # target.
        if self.test_port is not None:
            free = [self.test_port] if busy[base + self.test_port] <= now else []
        else:
            free = [k for k in range(m) if busy[base + k] <= now]
            if self.masked_switches and not last:
                # Degraded mode: never forward into a masked switch.
                free = [
                    k for k in free
                    if (stage + 1, targets[k]) not in self.masked_switches
                ]
        if metrics is not None:
            n_busy = m - len(free)
            metrics.observe_max("occupancy_ports", flat, now, n_busy)
            if n_busy:
                metrics.incr("arb_conflicts", flat, now)
        if not free:
            if tracer is not None:
                tracer.record(now, "arb_loss", packet, switch=flat, stage=stage)
            self._drop_in_network(packet, stage=stage, switch=switch,
                                  note="all ports busy")
            return
        n_free = len(free)
        k = free[self._rng.randrange(n_free)] if n_free > 1 else free[0]
        rate = self.link_rate_gbps
        tx = (
            packet._tx_ns if packet._tx_rate == rate
            else packet.serialization_time_ns(rate)
        )
        busy[base + k] = now + tx
        if tracer is not None:
            tracer.record(
                now, "arb_win", packet, switch=flat, stage=stage, port=k
            )
        packet.hops += 1
        switch_latency = latency = self.switch_latency_ns
        if injector is not None:
            latency += injector.extra_latency_ns(flat, now)
        # Delays below are sums of non-negative model constants, so the
        # unvalidated inline pushes (Environment.schedule_at, open-coded)
        # are safe.
        seq = env._seq
        env._seq = seq + 1
        if last:
            # Head exits to the host link; last byte lands after tx
            # time.  The delay sum is grouped exactly as the
            # pre-optimization schedule(delay) call computed it --
            # float addition is not associative, and byte-identity
            # demands identical rounding.
            heappush(
                env._queue,
                (now + (latency + self.link_delay_ns + tx), seq,
                 self._deliver, (packet,)),
            )
            return
        item = (now + latency, seq,
                self._arrive_stage, (packet, stage + 1, targets[k]))
        if latency == switch_latency:
            # The hop lane: now never decreases and the delay is one
            # constant, so this key is >= every key already on the lane
            # and a plain append keeps it sorted.
            self._hop_lane.append(item)
        else:
            # A slow-gate fault stretched this hop: its key may overtake
            # later appends, so the heap has to order it.
            heappush(env._queue, item)

    # -- the fused hop drain (DESIGN.md section 10) ----------------------------------

    def _run_kernel(self, until: Optional[float]) -> None:
        """:meth:`_drain` for as long as that applies, then the kernel."""
        self._drain(until)
        self.env.run(until=until)

    def _drain(self, until: Optional[float]) -> None:
        """Dispatch events here, with the hop handler inlined.

        The only uninstrumented hop handler, for single-kernel runs and
        shard workers alike.  Taken while ``_fast`` holds and no kernel
        profile is attached; the per-hop constants are read once per
        call and a hop costs no Python call.  The loop is
        :meth:`Environment.run`'s merge of the heap, the batch list and
        the hop lane by ``(time, seq)``.  Every entry on the hop lane is
        an ``_arrive_stage`` event (nothing else appends there), and so
        is a heap entry with that callback (a first hop, or one that
        crossed a shard cut): those are handled inline; everything else
        is dispatched as ``fn(*args)``.  Returns -- leaving the rest to
        ``Environment.run`` -- as soon as a callback leaves ``_fast``
        false or enables profiling, ``until`` is reached, or nothing is
        left.  The arbitration scan draws what ``_arrive_stage``'s
        ``randrange`` draws (CPython's ``_randbelow`` rejection loop,
        verbatim), and the delay grouping is ``_arrive_stage``'s: same
        RNG draws, same float sums, same ``(time, seq)`` keys.
        """
        env = self.env
        if (
            not self._fast
            or env._profile is not None
            or (until is not None and not env._now <= until < _INF)
        ):
            return  # Environment.run takes (or rejects) the whole run
        sps = self._sps
        last_stage = self._last_stage
        m = self.multiplicity
        busy = self._busy
        bits = self._bit_table
        wiring = self._wiring
        switch_latency = self.switch_latency_ns
        link_delay = self.link_delay_ns
        rate = self.link_rate_gbps
        getrandbits = self._rng.getrandbits
        hop_lane = self._hop_lane
        # A shard worker sends hops and deliveries that cross its cut
        # instead of scheduling them; cut inter-stage hops carry the
        # optional inter-cabinet fiber delay (plan lookahead).
        ctx = self._shard_ctx
        if ctx is not None:
            shard = ctx.shard
            host_shard = ctx.host_shard
            stage_shard = ctx.stage_shard
            cut_latency = switch_latency + ctx.cut_delay_ns
        horizon = (_INF if until is None else until, _INF)
        queue = env._queue
        run_list = env._run
        rlen = len(run_list)
        ridx = env._ridx
        lane_append = hop_lane.append
        lane_pop = hop_lane.popleft
        arrive = self._arrive_stage
        deliver = self._deliver
        bound = None
        env._running = True
        try:
            while True:
                if bound is None:
                    # The earliest entry off the lane -- the heap's head or
                    # the batch list's, as in Environment.run; with none
                    # inside the horizon, the horizon itself (no seq is
                    # >= inf, so an event at exactly `until` still runs,
                    # as Environment.run has it).  It stays valid until
                    # it is dispatched: hops push nothing earlier without
                    # replacing it, below.
                    bound = horizon
                    if queue and queue[0] < bound:
                        bound = queue[0]
                        in_heap = True
                    if ridx < rlen and run_list[ridx] < bound:
                        bound = run_list[ridx]
                        in_heap = False
                if hop_lane and hop_lane[0] < bound:
                    hop = lane_pop()
                elif bound is horizon:
                    return  # nothing is left inside the horizon
                else:
                    hop = bound
                    bound = None
                    if in_heap:
                        heappop(queue)
                    else:
                        ridx += 1
                        env._ridx = ridx
                    if hop[2] != arrive:
                        env._now = hop[0]
                        hop[2](*hop[3])
                        if not self._fast or env._profile is not None:
                            return
                        continue
                now = hop[0]
                env._now = now
                packet, stage, switch = hop[3]
                bit = bits[packet.dst][stage]
                base = ((stage * sps + switch) * 2 + bit) * m
                # Count the free ports without building a list.
                n_free = 0
                k = base
                i = base
                end = base + m
                while i < end:
                    if busy[i] <= now:
                        n_free += 1
                        k = i
                    i += 1
                if n_free == 0:
                    self._drop_in_network(packet, stage=stage, switch=switch,
                                          note="all ports busy")
                    continue
                if n_free > 1:
                    # Pick the idx-th free port in ascending order, idx
                    # drawn as randrange(n_free) draws it: bit_length(n)
                    # bits, rejecting draws >= n.
                    nbits = n_free.bit_length()
                    idx = getrandbits(nbits)
                    while idx >= n_free:
                        idx = getrandbits(nbits)
                    if n_free == m:
                        # Every port is free (the common case at light
                        # load): the idx-th free port is simply port idx.
                        k = base + idx
                    else:
                        i = base
                        while True:
                            if busy[i] <= now:
                                if idx == 0:
                                    k = i
                                    break
                                idx -= 1
                            i += 1
                tx = (
                    packet._tx_ns if packet._tx_rate == rate
                    else packet.serialization_time_ns(rate)
                )
                busy[k] = now + tx
                packet.hops += 1
                # Delays are sums of non-negative model constants, grouped
                # as _arrive_stage groups them, so these unvalidated pushes
                # are safe; the lane append also needs its key >= the
                # lane's tail, which now + one constant with now
                # non-decreasing guarantees.  A seq is consumed whether
                # the event stays or is sent.
                seq = env._seq
                env._seq = seq + 1
                if stage == last_stage:
                    when = now + (switch_latency + link_delay + tx)
                    if ctx is None or (dest := host_shard[packet.dst]) == shard:
                        item = (when, seq, deliver, (packet,))
                        heappush(queue, item)
                        if bound is not None and item < bound:
                            # Earlier than everything else off the lane:
                            # the heap's new head, and the new bound.
                            bound = item
                            in_heap = True
                    else:
                        ctx.send(
                            dest,
                            (MSG_DELIVER, when, packet.pid, packet.src,
                             packet.dst, packet.size_bytes,
                             packet.create_time, packet.is_ack,
                             packet.acked_pid, packet.hops),
                        )
                elif ctx is None or (dest := stage_shard[stage + 1]) == shard:
                    lane_append(
                        (now + switch_latency, seq, arrive,
                         (packet, stage + 1,
                          wiring[stage][switch][bit][k - base])),
                    )
                else:
                    ctx.send(
                        dest,
                        (MSG_ARRIVE, now + cut_latency, stage + 1,
                         wiring[stage][switch][bit][k - base], packet.pid,
                         packet.src, packet.dst, packet.size_bytes,
                         packet.create_time, packet.is_ack,
                         packet.acked_pid, packet.hops),
                    )
        finally:
            env._running = False

    def _drop_in_network(
        self,
        packet: Packet,
        stage: Optional[int] = None,
        switch: Optional[int] = None,
        note: Optional[str] = None,
    ) -> None:
        """An in-network drop; terminal when no retransmission follows.

        ``stage``/``switch`` locate the drop for tracing and per-switch
        metrics attribution when known.
        """
        packet.dropped = True
        self.stats.record_drop(is_ack=packet.is_ack)
        flat = (
            self.flat_switch_id(stage, switch)
            if stage is not None and switch is not None
            else None
        )
        if self.tracer is not None:
            self.tracer.record(
                self.env.now, "drop", packet,
                switch=flat, stage=stage, note=note,
            )
        if self.metrics is not None and flat is not None:
            self.metrics.incr("drops", flat, self.env.now)
        if not packet.is_ack and not self.enable_retransmission:
            self._record_terminal_drop(packet)

    # -- delivery and acknowledgements ------------------------------------------------

    def _deliver(self, packet: Packet) -> None:
        if packet.is_ack:
            self._handle_ack(packet)
            return
        pid = packet.pid
        if pid in self._given_up_pids:
            # The source already declared this packet lost and the ledger
            # counted it as given up; at-most-once delivery suppresses the
            # late copy entirely (no stats, no hook, no ACK).
            return
        now = self.env._now
        delivered = self._delivered_pids
        if pid not in delivered:
            delivered.add(pid)
            packet.deliver_time = now
            self._on_delivered(packet, now)
        # ACK every arrival (duplicates re-ACK in case the ACK was lost).
        if self.enable_retransmission:
            if self.ack_coalescing:
                self._coalesce_ack(packet, now)
            else:
                self._send_ack(packet.dst, packet.src, (pid,), now)

    def _send_ack(self, src: int, dst: int, covered, now: float) -> None:
        pid = self._next_pid
        self._next_pid = pid + 1
        ack = Packet(
            pid=pid,
            src=src,
            dst=dst,
            size_bytes=ACK_SIZE_BYTES,
            create_time=now,
            is_ack=True,
            acked_pid=tuple(covered),
        )
        filt = self.packet_filter
        if filt is not None and filt(ack):
            self.filtered_packets += 1
            if self.tracer is not None:
                self.tracer.record(now, "drop", ack, note="filtered")
            return
        self.acks_sent += 1
        if self.tracer is not None:
            self.tracer.record(
                now, "ack", ack, acked=tuple(covered), note="sent"
            )
        self._transmit(ack, 1)

    def _coalesce_ack(self, packet: Packet, now: float) -> None:
        """Traffic-combining extension (Sec. VIII): deliveries from the
        same source within a short window share one ACK."""
        key = packet.dst * self.n_nodes + packet.src
        covers = self._pending_ack_covers.get(key)
        if covers is not None:
            covers.append(packet.pid)
            return
        self._pending_ack_covers[key] = [packet.pid]

        def flush() -> None:
            covered = self._pending_ack_covers.pop(key, [])
            if covered:
                self._send_ack(
                    packet.dst, packet.src, covered, self.env.now
                )

        self.env.schedule(self.ack_coalesce_window_ns, flush)

    def _handle_ack(self, ack: Packet) -> None:
        covered = (
            ack.acked_pid
            if isinstance(ack.acked_pid, tuple)
            else (ack.acked_pid,)
        )
        if self.tracer is not None:
            self.tracer.record(
                self.env.now, "ack", ack, acked=covered, note="received"
            )
        pending_pop = self._pending.pop
        retx = self._retx_buffer_bytes
        for pid in covered:
            data = pending_pop(pid, None)
            if data is not None:
                retx[data.src] -= data.size_bytes

    # -- timeouts and backoff ---------------------------------------------------------

    def _check_timeout(self, packet: Packet, attempt: int) -> None:
        if packet.pid not in self._pending:
            return  # ACKed in the meantime
        if attempt >= self.max_attempts:
            # Max-retry give-up: report the unreachable destination
            # explicitly instead of backing off forever.
            self._pending.pop(packet.pid, None)
            self._retx_buffer_bytes[packet.src] -= packet.size_bytes
            self.lost_packets += 1
            if packet.pid not in self._delivered_pids:
                # Truly undelivered (not just a lost ACK): close the
                # ledger entry and bar any still-streaming copy from
                # being counted later (the delivery/give-up race).
                self._given_up_pids.add(packet.pid)
                flow = (packet.src, packet.dst)
                self.unreachable[flow] = self.unreachable.get(flow, 0) + 1
                self._record_give_up(packet)
            return
        self.stats.record_retransmission()
        packet.retransmissions += 1
        if self.tracer is not None:
            self.tracer.record(
                self.env.now, "retransmit", packet,
                note=f"attempt {attempt + 1}",
            )
        backoff = (
            self._beb_rng.randrange(0, 2 ** min(attempt, 10)) * BEB_SLOT_NS
        )
        self.env.schedule(
            backoff, self._transmit, packet, attempt + 1
        )

    # -- sharded execution (repro.shard, DESIGN.md section 14) -------------------------

    def shard_plan(self, n_shards: int, shard_latency_ns: float = 0.0):
        """Stage-cut partition: contiguous stage blocks, matching
        contiguous host blocks.  ``shard_latency_ns`` models extra
        inter-cabinet fiber on the cut inter-stage hops (0.0 keeps
        single-cabinet physics; the lookahead is then one switch
        latency)."""
        if self._wiring is None or self._bit_table is None:
            raise ShardingUnsupportedError(
                "sharded Baldur requires a topology with precomputed "
                "wiring/bit tables (randomized multi-butterfly); "
                f"{type(self.topology).__name__} has none"
            )
        from repro.shard.plan import multistage_plan

        return multistage_plan(
            self.topology,
            n_shards,
            link_delay_ns=self.link_delay_ns,
            switch_latency_ns=self.switch_latency_ns,
            cut_delay_ns=shard_latency_ns,
        )

    def _shard_check_supported(self) -> None:
        reasons = []
        if self.faulty_switches:
            reasons.append("injected switch faults")
        if self.masked_switches:
            reasons.append("masked switches (degraded mode)")
        if self.test_port is not None:
            reasons.append("diagnosis test mode")
        if self._record_paths:
            reasons.append("path recording")
        if type(self)._arrive_stage is not BaldurNetwork._arrive_stage:
            reasons.append("an overridden hop handler (workers drain)")
        if reasons:
            raise ShardingUnsupportedError(
                "cannot shard this Baldur run: " + "; ".join(reasons)
            )

    def shard_recipe(self):
        return (
            type(self),
            {
                "n_nodes": self.n_nodes,
                "multiplicity": self.multiplicity,
                "seed": self._seed,
                "link_delay_ns": self.link_delay_ns,
                "timeout_ns": self.timeout_ns,
                "max_attempts": self.max_attempts,
                "enable_retransmission": self.enable_retransmission,
                # The live topology object: inherited copy-on-write by
                # forked workers, shared by inline workers -- read-only
                # either way, and never pickled.
                "topology": self.topology,
                "packet_filter": self.packet_filter,
                "ack_coalescing": self.ack_coalescing,
                "ack_coalesce_window_ns": self.ack_coalesce_window_ns,
                "link_rate_gbps": self.link_rate_gbps,
            },
        )

    def _shard_bind(self, ctx, root_seed: int) -> None:
        """Rebind the RNG streams to the documented per-shard contract:
        shard ``i`` draws from ``stream(derive_seed(root, f"shard:{i}"),
        label)`` with the unchanged substream labels."""
        super()._shard_bind(ctx, root_seed)
        seed = shard_stream_seed(root_seed, ctx.shard)
        self._rng = stream(seed, "baldur-arbitration")
        self._beb_rng = stream(seed, "baldur-beb")

    def _shard_schedule_inbox(self, messages) -> None:
        env = self.env
        for msg in messages:
            kind = msg[0]
            if kind == MSG_ARRIVE:
                (_kind, when, stage, switch, pid, src, dst, size_bytes,
                 create_time, is_ack, acked_pid, hops) = msg
                packet = Packet(
                    pid=pid,
                    src=src,
                    dst=dst,
                    size_bytes=size_bytes,
                    create_time=create_time,
                    is_ack=is_ack,
                    acked_pid=acked_pid,
                )
                packet.hops = hops
                env.schedule_at(when, self._arrive_stage, packet, stage, switch)
            elif kind == MSG_DELIVER:
                (_kind, when, pid, src, dst, size_bytes,
                 create_time, is_ack, acked_pid, hops) = msg
                packet = Packet(
                    pid=pid,
                    src=src,
                    dst=dst,
                    size_bytes=size_bytes,
                    create_time=create_time,
                    is_ack=is_ack,
                    acked_pid=acked_pid,
                )
                packet.hops = hops
                env.schedule_at(when, self._deliver, packet)
            else:  # pragma: no cover - protocol bug
                raise ConfigurationError(
                    f"unknown cross-shard message kind {kind}"
                )

    def _shard_note_remote_delivery(self, pid: int) -> None:
        # The destination shard delivered this packet: mark it delivered
        # locally so _check_timeout stands down (same set _deliver uses;
        # the pid spaces cannot collide -- data pids are parent-allocated
        # and globally unique).
        self._delivered_pids.add(pid)

    def _shard_unmatched_delivery_notice(self, pid: int) -> None:
        if pid in self._given_up_pids:
            # Outcome conflict inside one lookahead window: the source
            # gave up while the delivery (already executed remotely) was
            # in notice flight.  Both outcomes were counted; one
            # correction unit rebalances the audit.
            self._ledger_corrections += 1
        else:
            super()._shard_unmatched_delivery_notice(pid)

    def _shard_export(self):
        payload = super()._shard_export()
        payload["lost_packets"] = self.lost_packets
        payload["acks_sent"] = self.acks_sent
        payload["filtered_packets"] = self.filtered_packets
        payload["retx_buffer_bytes"] = self._retx_buffer_bytes
        payload["peak_retx_buffer_bytes"] = self.peak_retx_buffer_bytes
        payload["unreachable"] = self.unreachable
        payload["given_up_pids"] = sorted(self._given_up_pids)
        return payload

    def _shard_absorb(self, payloads, plan, until) -> None:
        super()._shard_absorb(payloads, plan, until)
        self.lost_packets = sum(p["lost_packets"] for p in payloads)
        self.acks_sent = sum(p["acks_sent"] for p in payloads)
        self.filtered_packets = sum(p["filtered_packets"] for p in payloads)
        # Per-host arrays are only ever touched on the owning shard, so
        # elementwise sum/max reconstructs the owner's values exactly.
        n = self.n_nodes
        self._retx_buffer_bytes = [
            sum(p["retx_buffer_bytes"][i] for p in payloads) for i in range(n)
        ]
        self.peak_retx_buffer_bytes = [
            max(p["peak_retx_buffer_bytes"][i] for p in payloads)
            for i in range(n)
        ]
        given_up: Set[int] = set()
        unreachable: Dict[Tuple[int, int], int] = {}
        for p in payloads:
            given_up.update(p["given_up_pids"])
            for flow, count in sorted(p["unreachable"].items()):
                unreachable[flow] = unreachable.get(flow, 0) + count
        self._given_up_pids = given_up
        self.unreachable = unreachable

    # -- reporting --------------------------------------------------------------------

    def unloaded_latency_ns(
        self,
        src: int = 0,
        dst: int = 1,
        size_bytes: int = C.PACKET_SIZE_BYTES,
    ) -> float:
        """Analytic zero-load end-to-end latency of one packet.

        Injection link + one switch latency per stage + ejection link +
        one serialization time (cut-through: the head streams through all
        stages; the last byte lands one wire time after the head).  The
        multi-butterfly is stage-symmetric, so this is independent of the
        (src, dst) pair; a single packet in an otherwise idle network
        must measure exactly this (the conformance-test invariant).
        """
        return (
            2 * self.link_delay_ns
            + self.topology.n_stages * self.switch_latency_ns
            + C.packet_serialization_ns(size_bytes, self.link_rate_gbps)
        )

    @property
    def peak_retx_buffer_kb(self) -> float:
        """Largest per-node retransmission-buffer occupancy seen (KB)."""
        return max(self.peak_retx_buffer_bytes) / 1024.0

    def describe(self) -> str:
        """Human-readable configuration summary."""
        return (
            f"baldur nodes={self.n_nodes} m={self.multiplicity} "
            f"stages={self.topology.n_stages} "
            f"switch_latency={self.switch_latency_ns}ns"
        )
