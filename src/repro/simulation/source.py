"""The per-point packet source: Section 6's traffic model, once.

Each source processor draws negative-exponential interarrival times,
queues its messages locally, and injects the head message whenever its
injection channel is free.  Dropped messages are retried from the
source with bounded exponential backoff.  Both engine backends must
replay that model draw for draw from ``random.Random(seed)``, so the
state and the stages that touch only it live here, and
:class:`~repro.simulation.engine.WormholeSimulator` and the array
backend's batch members inherit them.

A subclass supplies three hooks:

* ``_launch(packet, cycle)`` puts an injected packet into the network
  and returns what occupies the source's injection port until its last
  flit leaves (the event engine stores the packet, the array backend an
  arena slot; a free port is ``None`` in both);
* ``_finish_drop(packet, cycle, cause, killed=False)`` releases engine
  state around :meth:`PacketSource._account_drop`;
* ``_deliver`` (called by the subclass's own movement stage) releases
  engine state around :meth:`PacketSource._account_delivery`.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from .config import SimulationConfig
from .metrics import SimulationResult
from .packet import Packet


class PacketSource:
    """Generation, source queues, injection ports, retries, and the
    result accounting of one operating point."""

    def __init__(self, algorithm, pattern, config: SimulationConfig) -> None:
        self.algorithm = algorithm
        self.pattern = pattern
        self.config = config
        self.topology = algorithm.topology
        self.rng = random.Random(config.seed)
        num_nodes = self.topology.num_nodes
        self.queues: List[Deque[Packet]] = [deque() for _ in range(num_nodes)]
        # What occupies each node's injection port (None when free).
        self.injection_busy: List[Optional[object]] = [None] * num_nodes
        self.pending_nodes: Set[int] = set()  # nonempty queue, injector free
        self.sources = list(pattern.active_sources(self.topology))
        # The arrival calendar: a heap of (next arrival time, source
        # index) so a cycle with no due source costs one peek.  The
        # ``next_arrival`` dict mirrors the heap for introspection and
        # for the event engine's reference (scan-based) generator.
        self.next_arrival: Dict[int, float] = {}
        self._arrival_heap: List[Tuple[float, int]] = []
        rate = config.messages_per_cycle
        if rate > 0:
            for index, node in enumerate(self.sources):
                when = self.rng.expovariate(rate)
                self.next_arrival[node] = when
                self._arrival_heap.append((when, index))
            heapq.heapify(self._arrival_heap)
        self._next_pid = 0
        self._backlog = 0  # queued packets network-wide
        self._retry_at: Dict[int, List[Packet]] = {}  # cycle -> retries due
        # Routers that are down right now: they offer no traffic, cannot
        # inject, and are unreachable destinations.
        self.dead_routers: Set[int] = set()
        self.result = SimulationResult(
            algorithm=algorithm.name,
            pattern=getattr(pattern, "name", type(pattern).__name__),
            offered_load=config.offered_load,
            num_nodes=num_nodes,
            active_sources=len(self.sources),
            measure_cycles=config.measure_cycles,
            cycle_time_us=config.cycle_time_us,
        )

    # -- generation -----------------------------------------------------------

    def _generate(self, cycle: int) -> None:
        """Arrival-calendar generation: drain the heap of due sources.

        Bit-identical to a scan of every source every cycle: sources
        whose next arrival lies in the future draw nothing there too,
        and the due sources are processed in source-list order, so the
        shared RNG sees exactly the same draw sequence."""
        heap = self._arrival_heap
        if not heap or heap[0][0] > cycle:
            return  # no source due this cycle: one peek and done
        if cycle >= self.config.generation_cycles:
            return  # drain window: let in-flight traffic finish
        pop = heapq.heappop
        due = [pop(heap)]
        while heap and heap[0][0] <= cycle:
            due.append(pop(heap))
        if len(due) > 1:
            # The heap yields time order; the RNG contract is source-list
            # order (the order the scan-based generator visits them).
            due.sort(key=lambda item: item[1])
        config = self.config
        rate = config.messages_per_cycle
        lengths = config.message_lengths
        num_lengths = len(lengths)
        max_queue = config.max_queue_per_node
        rng = self.rng
        expovariate = rng.expovariate
        randrange = rng.randrange
        pattern_dest = self.pattern.dest
        queues = self.queues
        sources = self.sources
        next_arrival = self.next_arrival
        push = heapq.heappush
        dead_routers = self.dead_routers
        for when, index in due:
            node = sources[index]
            while when <= cycle:
                when += expovariate(rate)
                if node in dead_routers:
                    continue  # a dead router offers no traffic
                if len(queues[node]) >= max_queue:
                    continue
                dst = pattern_dest(node, rng)
                if dst is None or dst == node:
                    continue
                length = lengths[randrange(num_lengths)]
                self._enqueue(Packet(self._next_pid, node, dst, length, cycle))
                self._next_pid += 1
            next_arrival[node] = when
            push(heap, (when, index))

    def _enqueue(self, packet: Packet) -> None:
        """Queue a message at its source processor (public for tests and
        for scripted workloads such as the deadlock demonstrations)."""
        self._requeue(packet)
        if packet.created >= self.config.warmup_cycles:
            self.result.generated_packets += 1

    def _requeue(self, packet: Packet) -> None:
        """Put a packet into its source queue without generation
        accounting (a retry's original creation already counted)."""
        node = packet.src
        self.queues[node].append(packet)
        self._backlog += 1
        if self.injection_busy[node] is None:
            self.pending_nodes.add(node)

    def _pop_retries(self, cycle: int) -> None:
        """Requeue every retry due this cycle."""
        for packet in self._retry_at.pop(cycle, ()):
            self._requeue(packet)

    # -- injection ------------------------------------------------------------

    def _inject(self, cycle: int) -> None:
        """Launch the head message of every source whose injection port
        is free, in ``pending_nodes`` order."""
        pending = self.pending_nodes
        if not pending:
            return
        queues = self.queues
        busy = self.injection_busy
        dead_routers = self.dead_routers
        for node in list(pending):
            queue = queues[node]
            if not queue or busy[node] is not None:
                pending.discard(node)
                continue
            if node in dead_routers:
                # A dead router cannot inject; its queue waits for a heal.
                pending.discard(node)
                continue
            packet = queue.popleft()
            self._backlog -= 1
            if packet.dst in dead_routers:
                # Drop at the source instead of wasting network resources
                # on an unreachable destination (it may heal before a
                # retry, so retries still apply).
                self._finish_drop(packet, cycle, "dead-destination")
                if not queue:
                    pending.discard(node)
                continue
            busy[node] = self._launch(packet, cycle)
            pending.discard(node)

    def _launch(self, packet: Packet, cycle: int):
        raise NotImplementedError

    def _release_injection(self, node: int) -> None:
        """Free ``node``'s injection port (the last flit left, or the
        packet was killed)."""
        self.injection_busy[node] = None
        if self.queues[node]:
            self.pending_nodes.add(node)

    def _router_healed(self, node: int) -> None:
        """A healed router's queued messages become injectable again."""
        self.dead_routers.discard(node)
        if self.queues[node] and self.injection_busy[node] is None:
            self.pending_nodes.add(node)

    # -- result accounting -----------------------------------------------------

    def _finish_drop(
        self, packet: Packet, cycle: int, cause: str, killed: bool = False
    ) -> None:
        raise NotImplementedError

    def _account_drop(
        self, packet: Packet, cycle: int, cause: str, killed: bool
    ) -> Optional[int]:
        """Account one drop and schedule a retry if attempts remain.
        Returns the cycle the retry is due, or None."""
        config = self.config
        result = self.result
        measured = packet.created >= config.warmup_cycles
        if measured:
            if killed:
                result.killed_packets += 1
            result.drops_by_cause[cause] = result.drops_by_cause.get(cause, 0) + 1
        if packet.attempt >= config.max_retries:
            if measured:
                result.dropped_packets += 1
            return None
        delay = min(
            config.retry_backoff_base << packet.attempt,
            config.retry_backoff_cap,
        )
        retry = Packet(
            self._next_pid, packet.src, packet.dst, packet.length, packet.created
        )
        self._next_pid += 1
        retry.attempt = packet.attempt + 1
        due = cycle + delay
        self._retry_at.setdefault(due, []).append(retry)
        if measured:
            result.retried_packets += 1
        return due

    def _account_delivery(
        self,
        cycle: int,
        length: int,
        created: int,
        injected: int,
        hops: int,
        misroutes: int,
    ) -> Optional[int]:
        """Account one delivered packet.  Returns its latency when it was
        created inside the measurement window, else None (unmeasured)."""
        if created < self.config.warmup_cycles:
            return None
        latency = cycle - created
        result = self.result
        result.delivered_packets += 1
        result.delivered_flits += length
        result.total_latency_cycles += latency
        result.total_net_latency_cycles += cycle - injected
        result.total_hops += hops
        result.total_misroutes += misroutes
        result.latency_by_length.setdefault(length, []).append(latency)
        return latency
