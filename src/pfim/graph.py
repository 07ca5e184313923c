"""Directed influence graphs: data model, file formats, and generators.

A graph is a fixed set of nodes 0..n-1, directed edges carrying an
independent activation probability, and a positive cost per node. Edge
probabilities are plain floats; costs are kept as exact rationals so that
budget arithmetic never drifts (they are rendered to float only at ratio
computations).

File formats:

* edge list: one edge per line, ``u<TAB>v<TAB>p``. Lines starting with
  ``#`` are comments. A comment of the form ``# nodes=<n>`` declares the
  node count explicitly, which preserves isolated nodes across a round
  trip; without it the node set is inferred from edge endpoints. Sparse
  external ids are remapped to a dense 0..n-1 range and the original ids
  are kept on the graph as ``external_ids``.
* cost file: one node per line, ``v<TAB>c`` where ``c`` is an integer,
  decimal, or ``p/q`` rational. Nodes listed only here (no incident
  edges) are part of the graph.

Edge lists round-trip exactly through ``edge_list_text``.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple

from ._util import derive_seed


class GraphFormatError(ValueError):
    """Raised when an edge-list or cost file does not parse."""


class Edge(NamedTuple):
    source: int
    target: int
    probability: float


def _as_fraction(value) -> Fraction:
    # exact for floats too: every float is a rational
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class DirectedGraph:
    """Immutable directed graph with edge probabilities and node costs."""

    node_count: int
    edges: tuple[Edge, ...]
    costs: tuple[Fraction, ...]
    external_ids: tuple[int, ...]

    def __post_init__(self):
        n = self.node_count
        if n < 0:
            raise ValueError("node count must be non-negative")
        if len(self.costs) != n:
            raise ValueError("cost table size does not match node count")
        if len(self.external_ids) != n:
            raise ValueError("external id table size does not match node count")
        if len(set(self.external_ids)) != n:
            raise ValueError("external ids must be distinct")
        for c in self.costs:
            if c <= 0:
                raise ValueError("node costs must be positive")
        seen = set()
        for e in self.edges:
            if not (0 <= e.source < n and 0 <= e.target < n):
                raise ValueError(f"edge endpoint out of range: {e.source}->{e.target}")
            if e.source == e.target:
                raise ValueError(f"self-loop at node {e.source}")
            if not (0.0 <= e.probability <= 1.0):
                raise ValueError(f"probability out of range on edge {e.source}->{e.target}")
            if (e.source, e.target) in seen:
                raise ValueError(f"duplicate edge {e.source}->{e.target}")
            seen.add((e.source, e.target))

    @classmethod
    def build(cls, node_count: int, edges: Iterable[tuple], costs=None,
              external_ids: Iterable[int] | None = None) -> "DirectedGraph":
        """Construct a graph from plain tuples, defaulting costs to 1."""
        edge_tuple = tuple(Edge(int(u), int(v), float(p)) for u, v, p in edges)
        if costs is None:
            cost_tuple = tuple(Fraction(1) for _ in range(node_count))
        else:
            cost_tuple = tuple(_as_fraction(c) for c in costs)
        ids = tuple(external_ids) if external_ids is not None else tuple(range(node_count))
        return cls(node_count, edge_tuple, cost_tuple, ids)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def out_edges(self) -> tuple[tuple[int, ...], ...]:
        """Edge indices leaving each node, ascending."""
        buckets: list[list[int]] = [[] for _ in range(self.node_count)]
        for idx, e in enumerate(self.edges):
            buckets[e.source].append(idx)
        return tuple(tuple(b) for b in buckets)

    @cached_property
    def _float_costs(self) -> tuple[float, ...]:
        """Each node's cost as a float, for gain-per-cost scores."""
        return tuple(float(c) for c in self.costs)

    @cached_property
    def _max_cost(self) -> Fraction:
        return max(self.costs)

    def with_probabilities(self, probabilities: Iterable[float]) -> "DirectedGraph":
        ps = tuple(float(p) for p in probabilities)
        if len(ps) != self.edge_count:
            raise ValueError("probability table size does not match edge count")
        new_edges = tuple(Edge(e.source, e.target, p) for e, p in zip(self.edges, ps))
        return DirectedGraph(self.node_count, new_edges, self.costs, self.external_ids)

    def with_costs(self, costs: Iterable) -> "DirectedGraph":
        return DirectedGraph(self.node_count, self.edges,
                             tuple(_as_fraction(c) for c in costs), self.external_ids)

    def has_uniform_unit_costs(self) -> bool:
        return all(c == 1 for c in self.costs)


# ---------------------------------------------------------------------------
# parsing and serialization


def _parse_node_hint(line: str) -> int | None:
    key, sep, value = line.lstrip("#").strip().partition("=")
    if sep and key.strip() == "nodes":
        try:
            return int(value.strip())
        except ValueError:
            raise GraphFormatError(f"bad node count declaration: {line.strip()!r}")
    return None


def load_costs(text: str) -> dict[int, Fraction]:
    """Parse a cost file into {external node id: cost}."""
    out: dict[int, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'node<TAB>cost', got {raw!r}")
        try:
            node = int(fields[0])
            cost = Fraction(fields[1])
        except (ValueError, ZeroDivisionError):
            raise GraphFormatError(f"line {lineno}: malformed cost entry {raw!r}")
        if node in out:
            raise GraphFormatError(f"line {lineno}: duplicate cost for node {node}")
        if cost <= 0:
            raise GraphFormatError(f"line {lineno}: cost must be positive")
        out[node] = cost
    return out


def load_graph(edge_list_text: str, cost_text: str | None = None) -> DirectedGraph:
    """Parse an edge list (and optional cost file) into a DirectedGraph.

    Every node named in either text is a node of the graph; nodes missing
    from the cost file cost 1. Malformed lines raise GraphFormatError with
    the offending line number.
    """
    declared: int | None = None
    raw_edges: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(edge_list_text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            hint = _parse_node_hint(line)
            if hint is not None:
                if declared is not None and declared != hint:
                    raise GraphFormatError(f"line {lineno}: conflicting node count declarations")
                declared = hint
            continue
        fields = line.split()
        if len(fields) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'u<TAB>v<TAB>p', got {raw!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
            p = float(fields[2])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: malformed edge {raw!r}")
        if not (0.0 <= p <= 1.0):
            raise GraphFormatError(f"line {lineno}: probability out of range")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at node {u}")
        if (u, v) in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge {u}->{v}")
        seen.add((u, v))
        raw_edges.append((u, v, p))

    costs_by_id = load_costs(cost_text) if cost_text is not None else {}

    mentioned = sorted({u for u, _, _ in raw_edges} | {v for _, v, _ in raw_edges}
                       | set(costs_by_id))
    if declared is not None:
        for ext in mentioned:
            if not (0 <= ext < declared):
                raise GraphFormatError(
                    f"node id {ext} outside declared node count {declared}")
        ids = tuple(range(declared))
    else:
        ids = tuple(mentioned)
    dense = {ext: k for k, ext in enumerate(ids)}

    costs = [Fraction(1)] * len(ids)
    for ext, c in costs_by_id.items():
        costs[dense[ext]] = c
    edges = [(dense[u], dense[v], p) for u, v, p in raw_edges]
    return DirectedGraph.build(len(ids), edges, costs, ids)


def edge_list_text(graph: DirectedGraph) -> str:
    """Serialize edges using original ids; inverse of load_graph.

    The ``# nodes=`` header is only emitted for dense (identity-mapped)
    graphs, where it makes isolated nodes survive without a cost file.
    """
    lines = []
    identity = graph.external_ids == tuple(range(graph.node_count))
    if identity:
        lines.append(f"# nodes={graph.node_count}")
    for e in graph.edges:
        u = graph.external_ids[e.source]
        v = graph.external_ids[e.target]
        lines.append(f"{u}\t{v}\t{e.probability!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# randomized attribute assignment


def trivalency_levels(i: int) -> tuple[float, float]:
    """The two edge probabilities of trivalency index i, i*0.01 and
    i*0.001; ValueError unless i is positive and i*0.01 at most 1."""
    if i < 1:
        raise ValueError("trivalency index must be a positive integer")
    if i * 0.01 > 1.0:
        raise ValueError(f"trivalency index {i} puts i*0.01 above 1")
    return i * 0.01, i * 0.001


def assign_trivalency_probabilities(graph: DirectedGraph, i: int,
                                    rng_seed: int) -> DirectedGraph:
    """Redraw every edge probability as i*0.01 or i*0.001, a fair coin each.

    Topology and costs are untouched. Raises if i*0.01 would exceed 1.
    """
    hi, lo = trivalency_levels(i)
    rng = random.Random(rng_seed)
    ps = [hi if rng.random() < 0.5 else lo for _ in range(graph.edge_count)]
    return graph.with_probabilities(ps)


# ---------------------------------------------------------------------------
# synthetic graph generation


def generate_graph(node_count: int, edge_count: int, model: str,
                   trivalency_i: int, rng_seed: int) -> DirectedGraph:
    """Generate a random topology and assign trivalency probabilities.

    model is "erdos-renyi" (edges drawn uniformly without replacement) or
    "scale-free-ish" (targets drawn proportionally to in-degree + 1).
    """
    if node_count < 1:
        raise ValueError("node count must be positive")
    if edge_count < 0:
        raise ValueError("edge count must be non-negative")
    slots = node_count * (node_count - 1)
    if edge_count > slots:
        raise ValueError(f"edge count {edge_count} exceeds {slots} possible edges")

    rng = random.Random(derive_seed(rng_seed, "topology", model))
    if model == "erdos-renyi":
        picks = rng.sample(range(slots), edge_count)
        pairs = set()
        for k in picks:
            u, off = divmod(k, node_count - 1)
            v = off if off < u else off + 1
            pairs.add((u, v))
    elif model == "scale-free-ish":
        pairs = set()
        weights = [1] * node_count
        attempts = 0
        limit = 200 * max(edge_count, 1)
        while len(pairs) < edge_count:
            attempts += 1
            if attempts > limit:
                raise ValueError("could not place requested edge count")
            u = rng.randrange(node_count)
            v = rng.choices(range(node_count), weights=weights)[0]
            if u == v or (u, v) in pairs:
                continue
            pairs.add((u, v))
            weights[v] += 1
    else:
        raise ValueError(f"unknown generator model {model!r}")

    edges = [(u, v, 0.0) for u, v in sorted(pairs)]
    graph = DirectedGraph.build(node_count, edges)
    return assign_trivalency_probabilities(
        graph, trivalency_i, derive_seed(rng_seed, "trivalency"))
