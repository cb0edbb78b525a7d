"""Simulated LAN model.

The paper's testbed is a single-switch LAN of commodity servers; its
dominant network costs are per-message latency and serialisation at the NIC.
:class:`Network` models a message send as

``delay = base_latency + size_bytes / bandwidth (+ jitter)``

and accumulates per-link traffic statistics so benchmarks can report message
and byte counts alongside turnaround times.  Loopback (``src == dst``) is
free apart from a small local dispatch cost, matching a zero-hop DHT where a
node can answer its own requests.

Fault injection (the :mod:`repro.faults` chaos layer) extends the model with
*lossy* and *partitionable* links:

* a per-link :class:`LinkFault` adds a drop probability and extra delay
  (``set_link_fault`` / ``clear_link_fault``), plus an optional
  network-wide ``default_fault`` applied to every non-loopback link;
* a partition (``set_partition``) splits the cluster into disjoint sides;
  messages crossing a side boundary are silently dropped until
  ``clear_partition``.

Faulty delivery goes through :meth:`Network.try_transfer`, which reports
whether the message survived; :meth:`Network.transfer` ignores drops
(always delivers) for the paths that model none.  Drop
decisions draw from the network's seeded RNG, so chaos runs replay
identically from a seed.  Ids in ``immune`` (the pseudo-node ``"client"``)
are never dropped or partitioned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.sim.engine import Simulation
from repro.util.rng import RandomSource, as_generator
from repro.util.validation import check_fraction, check_non_negative, check_positive


@dataclass
class NetworkStats:
    """Aggregate traffic counters."""

    messages: int = 0
    bytes_sent: int = 0
    loopback_messages: int = 0
    #: messages lost to link faults or partitions (fault-injection extension)
    dropped: int = 0

    def merge(self, other: "NetworkStats") -> "NetworkStats":
        return NetworkStats(
            messages=self.messages + other.messages,
            bytes_sent=self.bytes_sent + other.bytes_sent,
            loopback_messages=self.loopback_messages + other.loopback_messages,
            dropped=self.dropped + other.dropped,
        )


@dataclass(frozen=True)
class LinkFault:
    """Fault parameters for one directed link (or the whole network)."""

    #: probability a message on this link is silently lost
    drop: float = 0.0
    #: extra one-way delay (seconds) added on top of the base model
    extra_delay: float = 0.0

    def __post_init__(self) -> None:
        check_fraction("drop", self.drop)
        check_non_negative("extra_delay", self.extra_delay)


@dataclass
class Network:
    """Latency/bandwidth network attached to a :class:`Simulation`.

    Parameters
    ----------
    sim:
        The simulation clock messages are scheduled on.
    base_latency:
        Fixed per-message one-way latency in seconds (default 200 us — a
        typical gigabit-LAN RPC floor).
    bandwidth:
        Effective per-flow bandwidth in bytes/second (default 10^8, i.e.
        ~1 Gb/s with protocol overhead).
    jitter:
        Fractional uniform jitter applied to each delay (0 disables; keeps
        the simulation deterministic by default).
    local_dispatch:
        Cost of a loopback delivery in seconds.
    default_fault:
        Optional :class:`LinkFault` applied to every non-loopback link that
        has no explicit per-link fault.
    immune:
        Ids exempt from faults and partitions (clients talk to the cluster
        edge; chaos targets the cluster interior).
    """

    sim: Simulation
    base_latency: float = 200e-6
    bandwidth: float = 1e8
    jitter: float = 0.0
    local_dispatch: float = 5e-6
    rng: RandomSource = None
    stats: NetworkStats = field(default_factory=NetworkStats)
    default_fault: LinkFault | None = None
    immune: frozenset = frozenset({"client"})

    def __post_init__(self) -> None:
        check_non_negative("base_latency", self.base_latency)
        check_positive("bandwidth", self.bandwidth)
        check_non_negative("jitter", self.jitter)
        check_non_negative("local_dispatch", self.local_dispatch)
        self._gen = as_generator(self.rng)
        self._link_faults: dict[tuple[str, str], LinkFault] = {}
        self._partition: tuple[frozenset, ...] | None = None

    # -- fault injection -------------------------------------------------------

    def set_link_fault(
        self,
        src: str,
        dst: str,
        drop: float = 0.0,
        extra_delay: float = 0.0,
        symmetric: bool = True,
    ) -> None:
        """Make the ``src -> dst`` link lossy and/or slow (both directions
        when *symmetric*)."""
        fault = LinkFault(drop=drop, extra_delay=extra_delay)
        self._link_faults[(src, dst)] = fault
        if symmetric:
            self._link_faults[(dst, src)] = fault

    def clear_link_fault(self, src: str, dst: str, symmetric: bool = True) -> None:
        self._link_faults.pop((src, dst), None)
        if symmetric:
            self._link_faults.pop((dst, src), None)

    def set_partition(self, *sides: Iterable[str]) -> None:
        """Partition the network into disjoint *sides*.

        A message is deliverable only if every side contains either both or
        neither of its endpoints (ids not named in any side form an implicit
        extra side).  Immune ids cross freely.
        """
        frozen = tuple(frozenset(side) for side in sides)
        if len(frozen) < 1 or not all(frozen):
            raise ValueError("partition needs at least one non-empty side")
        seen: set[str] = set()
        for side in frozen:
            if side & seen:
                raise ValueError("partition sides must be disjoint")
            seen |= side
        self._partition = frozen

    def clear_partition(self) -> None:
        self._partition = None

    def partitioned(self, src: str, dst: str) -> bool:
        """True if the current partition blocks ``src -> dst``."""
        if self._partition is None or src == dst:
            return False
        if src in self.immune or dst in self.immune:
            return False
        return any((src in side) != (dst in side) for side in self._partition)

    def link_fault(self, src: str, dst: str) -> LinkFault | None:
        """The fault rule applying to ``src -> dst``, if any."""
        if src == dst or src in self.immune or dst in self.immune:
            return None
        return self._link_faults.get((src, dst), self.default_fault)

    # -- delay model -----------------------------------------------------------

    def delay_for(self, src: str, dst: str, size_bytes: int) -> float:
        """Modelled one-way delivery delay for a *size_bytes* message."""
        check_non_negative("size_bytes", size_bytes)
        if src == dst:
            return self.local_dispatch
        delay = self.base_latency + size_bytes / self.bandwidth
        if self.jitter > 0:
            delay *= 1.0 + float(self._gen.uniform(-self.jitter, self.jitter))
        fault = self.link_fault(src, dst)
        if fault is not None:
            delay += fault.extra_delay
        return delay

    def transfer(self, src: str, dst: str, size_bytes: int) -> float:
        """Charge a message; returns the delay for a generator process to
        ``yield``.  Ignores drops; fault-aware callers use
        :meth:`try_transfer`."""
        delay = self.delay_for(src, dst, size_bytes)
        self._count(src, dst, size_bytes)
        return delay

    def try_transfer(self, src: str, dst: str, size_bytes: int) -> tuple[bool, float]:
        """Fault-aware :meth:`transfer`: returns ``(delivered, delay)``.

        The sender is charged the full delay either way (the message leaves
        the NIC before vanishing); partitions and link-fault drop draws
        decide whether it arrives.  Loopback and immune endpoints always
        deliver.
        """
        delay = self.delay_for(src, dst, size_bytes)
        self._count(src, dst, size_bytes)
        if self.partitioned(src, dst):
            self.stats.dropped += 1
            return False, delay
        fault = self.link_fault(src, dst)
        if fault is not None and fault.drop > 0:
            if float(self._gen.uniform(0.0, 1.0)) < fault.drop:
                self.stats.dropped += 1
                return False, delay
        return True, delay

    def _count(self, src: str, dst: str, size_bytes: int) -> None:
        self.stats.messages += 1
        if src == dst:
            self.stats.loopback_messages += 1
        else:
            self.stats.bytes_sent += size_bytes
