"""Tests for the packet-level substrate: packets, stats, ports, buffers."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.netsim import LatencyStats, Packet, VCBuffer, geomean
from repro.netsim.switch import Host, OutputPort, Switch
from repro.sim import Environment


class TestPacket:
    def test_latency_none_until_delivered(self):
        p = Packet(0, 1, 2, create_time=100.0)
        assert p.latency is None
        p.deliver_time = 350.0
        assert p.latency == 250.0

    def test_serialization_time(self):
        p = Packet(0, 1, 2, size_bytes=512)
        # 512 B x 8 x 1.25 (8b/10b) / 25 Gbps = 204.8 ns.
        assert p.serialization_time_ns() == pytest.approx(204.8)

    def test_ack_flag(self):
        ack = Packet(1, 2, 1, is_ack=True, acked_pid=0)
        assert ack.is_ack and ack.acked_pid == 0


class TestLatencyStats:
    def test_average_and_tail(self):
        stats = LatencyStats()
        for v in range(1, 101):
            stats.record_delivery(float(v))
        assert stats.average_latency == pytest.approx(50.5)
        assert stats.tail_latency == 99.0

    def test_percentile_validation(self):
        stats = LatencyStats()
        stats.record_delivery(1.0)
        with pytest.raises(ValueError):
            stats.percentile(0)

    def test_empty_stats_nan(self):
        import math
        stats = LatencyStats()
        assert math.isnan(stats.average_latency)
        assert math.isnan(stats.tail_latency)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats().record_delivery(-1.0)

    def test_drop_rate_counts_retransmissions(self):
        stats = LatencyStats()
        for _ in range(90):
            stats.record_injection()
        for _ in range(10):
            stats.record_retransmission()
        for _ in range(10):
            stats.record_drop()
        assert stats.drop_rate == pytest.approx(0.1)

    def test_ack_drops_separate(self):
        stats = LatencyStats()
        stats.record_injection()
        stats.record_drop(is_ack=True)
        assert stats.ack_drops == 1
        assert stats.drops == 0

    def test_summary_keys(self):
        stats = LatencyStats()
        stats.record_injection()
        stats.record_delivery(5.0)
        summary = stats.summary()
        assert summary["delivered"] == 1
        assert summary["avg_latency_ns"] == 5.0

    def test_geomean(self):
        assert geomean([1.0, 100.0]) == pytest.approx(10.0)

    def test_geomean_degrades_to_nan_with_warning(self):
        # Empty/zero/NaN inputs degrade to NaN (one bad sweep cell must
        # not crash a whole report) and warn so they are not silent.
        with pytest.warns(RuntimeWarning):
            assert math.isnan(geomean([]))
        with pytest.warns(RuntimeWarning):
            assert math.isnan(geomean([1.0, 0.0]))
        with pytest.warns(RuntimeWarning):
            assert math.isnan(geomean([1.0, -2.0]))
        with pytest.warns(RuntimeWarning):
            assert math.isnan(geomean([1.0, float("nan")]))


class TestVCBuffer:
    def test_capacity_split_across_vcs(self):
        buf = VCBuffer(capacity_bytes=24 * 1024, n_vcs=3)
        assert buf.capacity_per_vc == 8 * 1024

    def test_reserve_release(self):
        buf = VCBuffer(capacity_bytes=3000, n_vcs=3)
        assert buf.has_room(0, 1000)
        buf.reserve(0, 1000)
        assert not buf.has_room(0, 1)
        assert buf.has_room(1, 1000)  # other VCs unaffected
        buf.release(0, 1000, time=0.0)
        assert buf.has_room(0, 1000)

    def test_release_below_zero_raises(self):
        buf = VCBuffer(capacity_bytes=3000)
        with pytest.raises(ConfigurationError):
            buf.release(0, 10, time=0.0)

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            VCBuffer(capacity_bytes=0)

    def test_release_wakes_waiters(self):
        env = Environment()
        buf = VCBuffer(capacity_bytes=600, n_vcs=1)
        port = OutputPort(env, rate_gbps=25.0, link_delay_ns=10.0)
        sw = Switch(env, sid=0, latency_ns=1.0)
        port.connect_switch(sw, buf)
        # Per-port state exists only once the port carries traffic.
        assert port.queue is None  # never enqueued: no FIFO
        buf.release(0, 0, time=0.0)
        assert buf._waiters is None  # never stalled on: no waiter list
        buf.reserve(0, 600)  # buffer full
        p = Packet(0, 0, 1, size_bytes=512)
        port.enqueue(p, 0.0)
        assert not port.busy  # stalled on credit
        assert buf._waiters == [port]
        buf.release(0, 600, time=0.0)
        assert port.busy  # started as soon as credit appeared
        assert buf._waiters is None

    def test_short_release_wakes_once_and_stalls_again(self):
        env = Environment()
        buf = VCBuffer(capacity_bytes=600, n_vcs=1)
        sw = Switch(env, sid=0, latency_ns=1.0)
        ports = [OutputPort(env, 25.0, 10.0) for _ in range(2)]
        wakes = []
        for i, port in enumerate(ports):
            port.connect_switch(sw, buf)
            # stall_hook fires on every wake that finds too little room.
            port.stall_hook = lambda packet, i=i: wakes.append(i)
        buf.reserve(0, 600)  # buffer full
        for pid, port in enumerate(ports):
            port.enqueue(Packet(pid, 0, 1, size_bytes=512), 0.0)
        ports[0].try_start(0.0)  # a second stall registers nothing twice
        assert buf._waiters == ports
        wakes.clear()
        buf.release(0, 100, time=0.0)  # 100 bytes free: still too little
        assert wakes == [0, 1]  # each woken once
        assert not any(port.busy for port in ports)
        assert buf._waiters == ports  # each registered again, once
        wakes.clear()
        buf.release(0, 500, time=0.0)  # 600 free: room for one packet
        assert wakes == [1]  # port 0 starts, port 1 stalls once more
        assert ports[0].busy and not ports[1].busy
        assert buf._waiters == [ports[1]]


class TestOutputPortAndHost:
    def _delivery_net(self):
        env = Environment()
        port = OutputPort(env, rate_gbps=25.0, link_delay_ns=100.0)
        delivered = []
        port.connect_host(lambda p, t: delivered.append((p.pid, t)))
        return env, port, delivered

    def test_delivery_time_includes_tx_and_link(self):
        env, port, delivered = self._delivery_net()
        port.enqueue(Packet(7, 0, 1, size_bytes=512), 0.0)
        env.run()
        assert delivered == [(7, pytest.approx(204.8 + 100.0))]

    def test_serialization_is_fifo_and_back_to_back(self):
        env, port, delivered = self._delivery_net()
        port.enqueue(Packet(0, 0, 1, size_bytes=512), 0.0)
        port.enqueue(Packet(1, 0, 1, size_bytes=512), 0.0)
        env.run()
        assert delivered[0][1] == pytest.approx(304.8)
        assert delivered[1][1] == pytest.approx(304.8 + 204.8)

    def test_load_bytes_tracks_queue(self):
        env = Environment()
        buf = VCBuffer(capacity_bytes=512, n_vcs=1)
        sw = Switch(env, sid=0, latency_ns=1.0)
        port = OutputPort(env, 25.0, 10.0)
        port.connect_switch(sw, buf)
        buf.reserve(0, 512)  # block the port
        for pid in range(3):
            port.enqueue(Packet(pid, 0, 1, size_bytes=512), 0.0)
        assert port.load_bytes == 3 * 512

    def test_deliver_without_host_raises(self):
        env = Environment()
        port = OutputPort(env, 25.0, 10.0)
        with pytest.raises(ConfigurationError):
            port._deliver(Packet(0, 0, 1))

    def test_switch_without_routing_raises(self):
        env = Environment()
        sw = Switch(env, sid=0)
        sw.add_port(25.0, 10.0)
        sw.on_head_arrival(Packet(0, 0, 1), VCBuffer())
        with pytest.raises(ConfigurationError):
            env.run()

    def test_host_inject_records_time(self):
        env = Environment()
        host = Host(env, hid=0)
        sw = Switch(env, sid=0, latency_ns=1.0)
        host.attach(sw, VCBuffer())
        p = Packet(0, 0, 1)
        host.inject(p, 5.0)
        assert p.inject_time == 5.0
