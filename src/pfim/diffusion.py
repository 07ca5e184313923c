"""Independent-cascade diffusion with slot-indexed partial observation.

A full realization fixes every edge to live or blocked up front, which is
equivalent to flipping the coin on first traversal. Propagation is then
plain reachability: a node activates one slot after its earliest live
in-neighbor. What a seeding policy gets to see is narrower: a seed that
has been active for d slots reveals the true status of every edge leaving
a node within d-1 live-hops of it, and nothing else. Blocked edges on
that frontier are revealed too; a freshly placed seed (d = 0) reveals
nothing. Observations from multiple seeds union.
"""

import random
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

from .graph import DirectedGraph
from .reach import node_mask, reachable_mask


class EdgeState(IntEnum):
    BLOCKED = 0
    LIVE = 1
    UNOBSERVED = 2


@dataclass(frozen=True)
class FullRealization:
    """One sampled world: live flag per edge index."""

    live: tuple[bool, ...]


@dataclass(frozen=True)
class PartialRealization:
    """Observed edge statuses, one EdgeState code byte per edge index."""

    codes: bytes

    def __post_init__(self):
        bad = self.codes.translate(None, b"\x00\x01\x02")
        if bad:
            raise ValueError(f"invalid edge state code {bad[0]}")

    def is_subset_of(self, other: "PartialRealization") -> bool:
        """True if every edge observed here is observed identically there."""
        return all(c == EdgeState.UNOBSERVED or c == oc
                   for c, oc in zip(self.codes, other.codes))

    def is_consistent_with(self, realization: FullRealization) -> bool:
        return all(c == EdgeState.UNOBSERVED or bool(c) == realization.live[k]
                   for k, c in enumerate(self.codes))


def empty_partial(graph: DirectedGraph) -> PartialRealization:
    return PartialRealization(bytes([EdgeState.UNOBSERVED]) * graph.edge_count)


@dataclass(frozen=True)
class SeedSchedule:
    """Seed selections in order: (node, activation slot) pairs.

    Nodes are distinct and slots never decrease along the list; several
    seeds may share a slot.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev = 0
        seen = set()
        for node, slot in self.entries:
            if node in seen:
                raise ValueError(f"node {node} scheduled twice")
            seen.add(node)
            if slot < 0:
                raise ValueError("activation slot must be non-negative")
            if slot < prev:
                raise ValueError("activation slots must be non-decreasing")
            prev = slot

    @cached_property
    def nodes(self) -> frozenset[int]:
        return frozenset(node for node, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def sample_full_realization(graph: DirectedGraph, rng_seed: int) -> FullRealization:
    """Flip each edge live with its probability; edge index order fixes
    the rng stream so a seed pins the world exactly."""
    rng = random.Random(rng_seed)
    return FullRealization(tuple(rng.random() < e.probability for e in graph.edges))


def live_adjacency(graph: DirectedGraph, realization: FullRealization) -> list[list[int]]:
    if len(realization.live) != graph.edge_count:
        raise ValueError("realization does not match graph edge count")
    adj: list[list[int]] = [[] for _ in range(graph.node_count)]
    for k, e in enumerate(graph.edges):
        if realization.live[k]:
            adj[e.source].append(e.target)
    return adj


def observe(graph: DirectedGraph, realization: FullRealization,
            schedule: SeedSchedule, current_slot: int) -> PartialRealization:
    """Partial realization visible at current_slot under the given seeds.

    For each seed of age d = current_slot - activation_slot, the statuses
    of all edges leaving nodes within d-1 live-hops of it are revealed;
    age 0 reveals nothing. The result is the union over seeds.
    """
    if len(realization.live) != graph.edge_count:
        raise ValueError("realization does not match graph edge count")
    for node, slot in schedule.entries:
        if not (0 <= node < graph.node_count):
            raise ValueError(f"seed node {node} out of range")
        if slot > current_slot:
            raise ValueError("current slot precedes a scheduled activation")
    codes = bytearray([EdgeState.UNOBSERVED]) * graph.edge_count
    live, edges, out_edges = realization.live, graph.edges, graph.out_edges
    for seed, slot in schedule.entries:
        # hop h reveals the edges leaving the nodes h live hops out
        seen = {seed}
        frontier = [seed]
        for _ in range(current_slot - slot):
            if not frontier:
                break
            nxt = []
            for x in frontier:
                for idx in out_edges[x]:
                    if live[idx]:
                        codes[idx] = EdgeState.LIVE
                        _, y, _ = edges[idx]
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
                    else:
                        codes[idx] = EdgeState.BLOCKED
            frontier = nxt
    return PartialRealization(bytes(codes))


def cascade_size(graph: DirectedGraph, realization: FullRealization, seeds) -> int:
    """Number of nodes the cascade from these seeds eventually activates."""
    seed_list = list(seeds)
    for v in seed_list:
        if not (0 <= v < graph.node_count):
            raise ValueError(f"seed node {v} out of range")
    if not seed_list:
        return 0
    adj = live_adjacency(graph, realization)
    return reachable_mask(adj, node_mask(seed_list)).bit_count()
