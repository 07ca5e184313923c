"""Slow reference implementations used to pin down expected values.

Everything here is written the dumb way on purpose: dict-and-set BFS,
full enumeration over every edge outcome, per-seed hop distances. The
package uses bitmasks, grouped tree walks, and caches; these helpers share
none of that machinery, so agreement between the two is meaningful.
"""

import itertools
import random
from fractions import Fraction

from pfim._util import derive_seed, fmt_g
from pfim.diffusion import EdgeState, FullRealization, PartialRealization, SeedSchedule
from pfim.estimation import ExactEstimator


def enumerate_realizations(graph, exact=False):
    """Yield (FullRealization, weight) over all edge outcomes, weight > 0.
    Weights are floats, or Fractions when `exact`."""
    m = graph.edge_count
    for bits in itertools.product((False, True), repeat=m):
        weight = Fraction(1) if exact else 1.0
        for edge, live in zip(graph.edges, bits):
            p = Fraction(edge.probability) if exact else edge.probability
            weight *= p if live else 1 - p
            if weight == 0:
                break
        if weight > 0:
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


def naive_activation_probability(graph, seeds, partial, exact=False):
    """Per-node activation probability given observed edge outcomes, as
    floats, or Fractions when `exact`."""
    totals = {v: 0 for v in range(graph.node_count)}
    norm = 0
    for realization, weight in enumerate_realizations(graph, exact):
        if not partial.is_consistent_with(realization):
            continue
        norm += weight
        for v in bfs_active(graph, realization.live, seeds):
            totals[v] += weight
    return {v: totals[v] / norm for v in totals}


def greedy_nonadaptive_uniform(graph, budget):
    """Plain forward greedy on expected cascade, no feedback, unit costs,
    smallest id on ties. A seed set's value is the float of its exact
    expected cascade: the per-node Fractions of
    `naive_activation_probability(..., exact=True)` on the empty state,
    summed over every realization at once (their weights sum to 1)."""
    worlds = list(enumerate_realizations(graph, exact=True))

    def expected_cascade(seeds):
        return float(sum(w * len(bfs_active(graph, r.live, seeds)) for r, w in worlds))

    chosen = []
    for _ in range(budget):
        best, best_value = None, None
        for v in range(graph.node_count):
            if v in chosen:
                continue
            value = expected_cascade(chosen + [v])
            if best_value is None or value > best_value:
                best, best_value = v, value
        chosen.append(best)
    return chosen


def policy_value_by_enumeration(graph, run_one, exact=False):
    """Expected spread of a policy: run it under every realization, as a
    float, or a Fraction when `exact`.

    ``run_one(realization)`` must return the realized cascade size. This
    is the literal definition the grouped evaluator is supposed to match.
    """
    total = 0
    for realization, weight in enumerate_realizations(graph, exact):
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


def full_feedback_optimum(graph, picks, exact=False):
    """Best expected cascade of `picks` unit-cost selections when each
    selection sees its cascade completely: a plain recursion over every
    selection order, with no memo. The observation after a selection is
    the set of (edge, live) pairs over every edge leaving an active node;
    worlds are grouped by it before the next selection. A float, or a
    Fraction when `exact`."""
    def value(seeds, group):
        if len(seeds) == picks:
            return sum(w * bfs_cascade(graph, real.live, seeds) for real, w in group)
        best = 0
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

    return value([], list(enumerate_realizations(graph, exact)))


def coin_stream(graph, seed):
    """The random stream of the coins of a Monte Carlo estimator seeded
    `seed`: derive_seed(seed, "completions", the empty state's codes)."""
    codes = bytes([EdgeState.UNOBSERVED] * graph.edge_count)
    return random.Random(derive_seed(seed, "completions", codes))


def mc_coins(graph, samples, seed):
    """The coins of a Monte Carlo estimator seeded `seed`, completion by
    completion, one random() per edge from `coin_stream`: row j holds
    edge idx's coin in completion j, live when the draw is below p."""
    rng = coin_stream(graph, seed)
    return [[rng.random() < e.probability for e in graph.edges] for _ in range(samples)]


def naive_policy_run(graph, config, realization, rng_seed, epsilon=0.0,
                     samples=None, base=0):
    """One run of the alpha-greedy policy, step by step from the
    `pfim.policies` docstrings, on the exact backend (samples None) or the
    Monte Carlo one with `samples` completions and base seed `base`, bare
    or under the adversarial-low epsilon wrapper. Returns (transcript
    lines, schedule entries, realized cascade, arm); raises ValueError
    where a non-uniform or enhanced run cannot start.

    On the exact backend f(S) is a fresh `ExactEstimator().activation`.
    A Monte Carlo estimator seeded s draws its coins as `mc_coins` does.
    The greedy arm's seed is derive_seed(base,
    derive_seed(rng_seed, "estimation")), the single arm's
    derive_seed(base, derive_seed(rng_seed, "estimation", "single")).
    Completion j of a state has its observed-live edges and the
    unobserved edges whose coin j is set, built afresh for every query;
    a node's count is the number of completions in which a BFS from S
    reaches it, and f(S) is the count total over the nodes divided once
    by `samples`.
    The wrapper scales f(S) by f = 1 - epsilon. The zero set O of S is
    every node that S does not reach over observed-live edges and
    unobserved edges with p > 0.

    The run stops once no unseeded node costs at most the remaining
    budget; otherwise a round reads f(S) and O. After the first seed the
    gate waits one slot, and observes, while f(S) / (n - |O|) < alpha,
    unless the newest seed has been active for n slots (the stall guard).
    Otherwise it scans every candidate, the affordable ones only before
    the first seed; a gain is f(S + c) * f - f(S) * f under the wrapper,
    else max(f(S + c) - f(S), 0) on the exact backend and the difference
    of the two count totals over `samples` on Monte Carlo. The largest
    gain per unit cost wins, smallest id on ties; the run stops if it
    does not fit the remaining budget. The enhanced policy's fair coin (stream "arm-coin")
    picks between the best single node alone and the non-uniform run; an
    unaffordable best single node stops both arms."""
    n, costs, budget = graph.node_count, graph.costs, config.budget
    factor = 1.0 - epsilon
    empty = naive_observe(graph, realization, SeedSchedule(()), 0)

    def coins(salt):
        return None if samples is None else mc_coins(graph, samples, derive_seed(base, salt))

    def value(seeds, partial, rows):
        """(f(S), the count total over the completions; None when exact)."""
        if rows is None:
            est = ExactEstimator().activation(graph, frozenset(seeds), partial)
            return est.expected_cascade, None
        counts = [0] * n
        for row in rows:
            live = [c == EdgeState.LIVE or (c == EdgeState.UNOBSERVED and coin)
                    for c, coin in zip(partial.codes, row)]
            for v in bfs_active(graph, live, seeds):
                counts[v] += 1
        total = sum(counts)
        return total / samples, total

    def zero_size(seeds, partial):
        possible = [c == EdgeState.LIVE or (c == EdgeState.UNOBSERVED and e.probability > 0)
                    for c, e in zip(partial.codes, graph.edges)]
        return n - len(bfs_active(graph, possible, seeds))

    def gain(with_c, without):
        if epsilon:
            return with_c[0] * factor - without[0] * factor
        if samples is None:
            return max(with_c[0] - without[0], 0.0)
        return (with_c[1] - without[1]) / samples

    def line(r, slot, act, cond, zero):
        cond = "na" if cond is None else fmt_g(cond)
        return f"r={r} slot={slot} action={act} cond={cond} |O|={zero}"

    arm = None
    if config.kind == "enhanced":
        rows = coins(derive_seed(rng_seed, "estimation", "single"))
        singles = [value([v], empty, rows)[0] * factor for v in range(n)]
        star = max(range(n), key=lambda v: (singles[v], -v))
        if costs[star] > budget:
            raise ValueError("best single node is unaffordable")
        if random.Random(derive_seed(rng_seed, "arm-coin")).random() < 0.5:
            act = f"select:{star},{fmt_g(singles[star])},{budget - costs[star]}"
            return ([line(0, 0, act, None, n)], [(star, 0)],
                    bfs_cascade(graph, realization.live, [star]), "single")
        arm = "greedy"
    if min(costs) > budget:
        raise ValueError("no affordable first node")

    rows = coins(derive_seed(rng_seed, "estimation"))
    lines, entries, slot, remaining, partial = [], [], 0, budget, empty
    while True:
        seeds = [v for v, _ in entries]
        if all(costs[c] > remaining for c in range(n) if c not in seeds):
            break
        base_value, zero = value(seeds, partial, rows), zero_size(seeds, partial)
        cond = None
        if seeds:
            cond = base_value[0] * factor / (n - zero)
            if cond < config.alpha and slot - entries[-1][1] < n:
                lines.append(line(len(lines), slot, "wait", cond, zero))
                slot += 1
                partial = naive_observe(graph, realization,
                                        SeedSchedule(tuple(entries)), slot)
                continue
        candidates = [c for c in range(n) if c not in seeds
                      and (seeds or costs[c] <= remaining)]
        gains = {c: gain(value(seeds + [c], partial, rows), base_value) for c in candidates}
        best = max(candidates, key=lambda c: (gains[c] / float(costs[c]), -c))
        if costs[best] > remaining:
            break
        remaining -= costs[best]
        act = f"select:{best},{fmt_g(gains[best])},{remaining}"
        lines.append(line(len(lines), slot, act, cond, zero))
        entries.append((best, slot))
    return (lines, entries,
            bfs_cascade(graph, realization.live, [v for v, _ in entries]), arm)
