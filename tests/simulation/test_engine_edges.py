"""Edge cases of the engine: tiny packets, validation, queue caps, and
the step() API."""

import pytest

from repro.routing import XY
from repro.simulation import (
    PacketState,
    SimulationConfig,
    WormholeSimulator,
)
from repro.topology import Mesh2D
from repro.traffic import UniformPattern


def quiet_sim(mesh=None, **overrides):
    mesh = mesh or Mesh2D(4, 4)
    defaults = dict(offered_load=0.0, warmup_cycles=0, measure_cycles=1000)
    defaults.update(overrides)
    return WormholeSimulator(
        XY(mesh), UniformPattern(mesh), SimulationConfig(**defaults)
    )


class TestInjectValidation:
    def test_self_message_rejected(self):
        sim = quiet_sim()
        with pytest.raises(ValueError):
            sim.inject_packet(3, 3, 10)

    def test_zero_length_rejected(self):
        sim = quiet_sim()
        with pytest.raises(ValueError):
            sim.inject_packet(0, 1, 0)

    @pytest.mark.parametrize(
        "src, dst", [(-1, 3), (16, 3), (3, -1), (3, 16), (-5, 99)]
    )
    def test_out_of_range_nodes_rejected(self, src, dst):
        sim = quiet_sim()  # mesh:4x4, nodes 0..15
        with pytest.raises(ValueError, match="out of range"):
            sim.inject_packet(src, dst, 5)
        assert not any(sim.queues)  # nothing was queued
        assert sim._next_pid == 0


class TestSingleFlitPackets:
    def test_one_flit_to_neighbor(self):
        mesh = Mesh2D(4, 4)
        sim = quiet_sim(mesh)
        packet = sim.inject_packet(0, 1, 1, created=0)
        for _ in range(10):
            sim.step()
            if packet.state is PacketState.DELIVERED:
                break
        assert packet.state is PacketState.DELIVERED
        # distance + length - 1 = 1 + 1 - 1 = 1 cycle to arrive, then the
        # ejection handshake.
        assert packet.delivered <= 4

    def test_back_to_back_single_flits(self):
        mesh = Mesh2D(4, 4)
        sim = quiet_sim(mesh)
        packets = [sim.inject_packet(0, 3, 1, created=0) for _ in range(5)]
        for _ in range(60):
            sim.step()
        assert all(p.state is PacketState.DELIVERED for p in packets)
        # FCFS injection: delivery order follows queue order.
        deliveries = [p.delivered for p in packets]
        assert deliveries == sorted(deliveries)


class TestQueueCap:
    def test_generation_stops_at_cap(self):
        mesh = Mesh2D(3, 3)
        config = SimulationConfig(
            offered_load=200.0,  # absurd overload
            warmup_cycles=0,
            measure_cycles=3_000,
            max_queue_per_node=20,
            seed=1,
            deadlock_threshold=10_000,
        )
        sim = WormholeSimulator(XY(mesh), UniformPattern(mesh), config)
        sim.run()
        assert all(len(q) <= 20 for q in sim.queues)


class TestStepAPI:
    def test_step_advances_cycle(self):
        sim = quiet_sim()
        assert sim.cycle == 0
        sim.step()
        sim.step()
        assert sim.cycle == 2

    def test_step_and_run_agree_on_quiet_network(self):
        mesh = Mesh2D(4, 4)
        a = quiet_sim(mesh)
        b = quiet_sim(mesh)
        pa = a.inject_packet(0, 15, 12, created=0)
        pb = b.inject_packet(0, 15, 12, created=0)
        for _ in range(200):
            a.step()
        b.run()
        assert pa.delivered == pb.delivered


class TestWatchdogQuietNetwork:
    def test_idle_network_never_reports_deadlock(self):
        """No packets in flight -> silence is not deadlock."""
        mesh = Mesh2D(3, 3)
        config = SimulationConfig(
            offered_load=0.0,
            warmup_cycles=0,
            measure_cycles=9_000,
            deadlock_threshold=500,
        )
        result = WormholeSimulator(
            XY(mesh), UniformPattern(mesh), config
        ).run()
        assert not result.deadlock
