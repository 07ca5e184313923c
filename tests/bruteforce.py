"""Slow reference implementations used to pin down expected values.

Everything here is written the dumb way on purpose: dict-and-set BFS,
full enumeration over every edge outcome, per-seed hop distances. The
package uses bitmasks, grouped tree walks, and caches; these helpers share
none of that machinery, so agreement between the two is meaningful.
"""

import itertools
from fractions import Fraction

from pfim.diffusion import EdgeState, FullRealization, PartialRealization


def enumerate_realizations(graph):
    """Yield (FullRealization, weight) over all edge outcomes, weight > 0."""
    m = graph.edge_count
    for bits in itertools.product((False, True), repeat=m):
        weight = 1.0
        for edge, live in zip(graph.edges, bits):
            weight *= edge.probability if live else 1.0 - edge.probability
            if weight == 0.0:
                break
        if weight > 0.0:
            yield FullRealization(bits), weight


def bfs_active(graph, live, seeds):
    """Active set under one realization, plain frontier BFS."""
    active = set(seeds)
    frontier = set(seeds)
    while frontier:
        next_frontier = set()
        for u in frontier:
            for idx in graph.out_edges[u]:
                if live[idx] and graph.edges[idx].target not in active:
                    active.add(graph.edges[idx].target)
                    next_frontier.add(graph.edges[idx].target)
        frontier = next_frontier
    return active


def bfs_cascade(graph, live, seeds):
    """Active set size under one realization."""
    return len(bfs_active(graph, live, seeds))


def naive_observe(graph, realization, schedule, current_slot):
    """Observed partial state from first principles.

    A seed placed at slot tau has been active for d = current_slot - tau
    slots; it exposes the out-edges of every node within d - 1 live hops
    of it (nothing while d = 0). Hop distances follow live edges only.
    """
    codes = bytearray([EdgeState.UNOBSERVED] * graph.edge_count)
    for node, tau in schedule.entries:
        d = current_slot - tau
        if d <= 0:
            continue
        dist = {node: 0}
        frontier = [node]
        while frontier:
            nxt = []
            for u in frontier:
                for idx in graph.out_edges[u]:
                    v = graph.edges[idx].target
                    if realization.live[idx] and v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        for u, du in dist.items():
            if du <= d - 1:
                for idx in graph.out_edges[u]:
                    codes[idx] = (EdgeState.LIVE if realization.live[idx]
                                  else EdgeState.BLOCKED)
    return PartialRealization(bytes(codes))


def naive_activation_probability(graph, seeds, partial):
    """Per-node activation probability given observed edge outcomes."""
    totals = {v: 0.0 for v in range(graph.node_count)}
    norm = 0.0
    for realization, weight in enumerate_realizations(graph):
        if not partial.is_consistent_with(realization):
            continue
        norm += weight
        for v in bfs_active(graph, realization.live, seeds):
            totals[v] += weight
    return {v: totals[v] / norm for v in totals}


def greedy_nonadaptive_uniform(graph, budget, activation_fn):
    """Plain forward greedy on expected cascade, no feedback, unit costs."""
    chosen = []
    for _ in range(budget):
        best, best_value = None, None
        for v in range(graph.node_count):
            if v in chosen:
                continue
            value = activation_fn(chosen + [v])
            if best_value is None or value > best_value:
                best, best_value = v, value
        chosen.append(best)
    return chosen


def policy_value_by_enumeration(graph, run_one):
    """Expected spread of a policy: run it under every realization.

    ``run_one(realization)`` must return the realized cascade size. This
    is the literal definition the grouped evaluator is supposed to match.
    """
    total = 0.0
    for realization, weight in enumerate_realizations(graph):
        total += weight * run_one(realization)
    return total


def best_seed_set_exhaustive(graph, budget: Fraction):
    """Optimal non-adaptive seed set by trying every subset within budget."""
    best_value, best_set = 0.0, frozenset()
    nodes = range(graph.node_count)
    for r in range(1, graph.node_count + 1):
        for combo in itertools.combinations(nodes, r):
            cost = sum((graph.costs[v] for v in combo), Fraction(0))
            if cost > budget:
                continue
            value = policy_value_by_enumeration(
                graph, lambda real: bfs_cascade(graph, real.live, combo))
            if value > best_value + 1e-12:
                best_value, best_set = value, frozenset(combo)
    return best_set, best_value


def full_feedback_optimum(graph, picks):
    """Best expected cascade of `picks` unit-cost selections when each
    selection sees its cascade completely: a plain recursion over every
    selection order, with no memo. The observation after a selection is
    the set of (edge, live) pairs over every edge leaving an active node;
    worlds are grouped by it before the next selection."""
    def value(seeds, group):
        if len(seeds) == picks:
            return sum(w * bfs_cascade(graph, real.live, seeds) for real, w in group)
        best = 0.0
        for v in range(graph.node_count):
            if v in seeds:
                continue
            parts = {}
            for real, w in group:
                active = bfs_active(graph, real.live, seeds + [v])
                seen = frozenset((idx, real.live[idx])
                                 for u in active for idx in graph.out_edges[u])
                parts.setdefault(seen, []).append((real, w))
            best = max(best, sum(value(seeds + [v], sub) for sub in parts.values()))
        return best

    return value([], list(enumerate_realizations(graph)))
