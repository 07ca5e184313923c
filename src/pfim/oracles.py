"""Ground-truth evaluation: exact policy values and a brute-force optimum.

Both exact referees walk one world table (`_enumerate_worlds`), where a
seed set's reach in a world is a union of closure masks. A world's
weight is an integer: every float probability p is a / b exactly, b a
power of two, so an edge weighs a when live and b - a when blocked, and
the weights of all worlds sum to the product of the b. Every value is an
integer sum over the table divided once, so it is the correctly rounded
true value. The table is built once per graph: a cache bound to the
graph object holds the last graph's table, so the evaluator's configs
and the optimum share it, and another graph, even an equal one, gets its
own.

Exact policy evaluation conceptually runs the policy on every world and
weights the realized cascade by the world's probability. Worlds that
have produced identical observations so far are indistinguishable to the
policy, so the run tree branches only where observations actually
differ. That tree walk is the loop a live run uses
(`policies._greedy_runs`): a live run is one of its branches. The
policy's estimator answers from the table too (`_TableEstimator`): the
worlds consistent with an observation are the rows that agree with it
on every observed edge, and each answer is the rational that enumerating
the unobserved edges gives, so the same float as `ExactEstimator`'s.

The full-feedback adaptive optimum does backward induction over
observation states on deliberately tiny instances. It is meant as a
referee for the policies, not as a scalable solver.
"""

import math
from dataclasses import dataclass
from functools import reduce
from operator import mul, or_

from ._util import derive_seed
from .diffusion import EdgeState, FullRealization, empty_partial, sample_full_realization
from .estimation import (ActivationEstimate, Estimator, InstanceTooLarge, _assignments,
                         _GraphCache)
from .graph import DirectedGraph, _as_fraction
from .policies import (PolicyConfig, PolicyRun, _affordable_single_node, _GreedyCore,
                       _greedy_runs, run_policy)
from .reach import closure_masks, closure_union, mask_nodes

ENUMERATION_EDGE_LIMIT = 22          # 2^|E| realizations


@dataclass(frozen=True)
class ExactEvaluation:
    value: float
    realization_count: int


@dataclass(frozen=True)
class SampledEvaluation:
    mean_spread: float
    std_error: float
    mean_slots: float
    mean_seeds: float
    sample_count: int
    world_zero: PolicyRun    # the run on world 0, for its transcript


_WORLDS = _GraphCache(1)


def _enumerate_worlds(graph: DirectedGraph) -> list:
    """The world table of both exact referees: one (realization, weight,
    closures, live bits) entry per full realization of nonzero
    probability, in ascending live bits (edge index k is bit k). The
    weight is the integer of `_assignments`; the weights sum to that
    denominator, and only a world with a live p = 0 edge or a blocked
    p = 1 edge weighs 0. `closures[v]` is the node mask that v reaches over
    the world's live edges, solved by `closure_masks` as the Monte Carlo
    view is: one bit per node, each live edge with mask -1.
    The table is built once per graph object and shared by every referee
    call on it; the cache holds the last graph's table only."""
    hit = _WORLDS.lookup(graph, None)
    if hit is not None:
        return hit
    m, n = graph.edge_count, graph.node_count
    by_edge = [(e.source, (e.target, -1)) for e in graph.edges]
    table = []
    for bits, w in _assignments([e.probability for e in graph.edges])[1]:
        if w:
            closures, out = [1 << v for v in range(n)], {}
            for k in mask_nodes(bits):
                v, target = by_edge[k]
                out.setdefault(v, []).append(target)
            closure_masks(closures, out)
            r = FullRealization(tuple(bool(bits >> k & 1) for k in range(m)))
            table.append((r, w, closures, bits))
    return _WORLDS.store(None, table)


def _expected_cascade(worlds: list, indices, seeds) -> int:
    """Sum of weight * cascade size over the indexed worlds, an exact
    integer. `seeds` is read once per world, so it must be a collection,
    not an iterator."""
    return sum(worlds[i][1] * closure_union(worlds[i][2], seeds).bit_count()
               for i in indices)


def _weighted_size(weights, masks) -> int:
    """Sum of weight * size over paired weights and node masks."""
    return sum(map(mul, weights, map(int.bit_count, masks)))


class _TableEstimator(Estimator):
    """`ExactEstimator`'s answers read off the world table.

    The worlds consistent with an observation are the rows whose live
    bits agree with every observed edge: its live bits joined with each
    subset of the unobserved edges. Their weights sum to W, and f(S) is
    the sum of weight * |R(S)| over them, divided by W once. That is the
    rational that enumerating the unobserved edges gives, so the same
    correctly rounded float, ties included. The zero set is the nodes
    that no consistent world reaches. Only the latest observation's
    worlds and activations are kept: the tree walk asks about one
    observation until it waits."""

    def __init__(self, worlds: list):
        self._rows = {bits: (w, closures) for _, w, closures, bits in worlds}
        self._state: tuple | None = None

    def _consistent(self, codes: bytes) -> tuple:
        """(codes, the consistent worlds' weights, their closures by node:
        column v holds each world's closure of v, the summed weight, the
        activations asked on these codes by seed set)."""
        if self._state is None or self._state[0] != codes:
            live = unobserved = 0
            for k, c in enumerate(codes):
                if c == EdgeState.LIVE:
                    live |= 1 << k
                elif c == EdgeState.UNOBSERVED:
                    unobserved |= 1 << k
            rows = []
            sub = unobserved
            while True:
                row = self._rows.get(live | sub)
                if row is not None:
                    rows.append(row)
                if not sub:
                    break
                sub = sub - 1 & unobserved
            weights, closures = zip(*rows)
            self._state = (codes, weights, list(zip(*closures)), sum(weights), {})
        return self._state

    @staticmethod
    def _unions(columns: list, seed_set, count: int) -> list[int]:
        """Each consistent world's seed union."""
        reached = [0] * count
        for s in seed_set:
            reached = list(map(or_, reached, columns[s]))
        return reached

    def activation(self, graph, seeds, partial):
        _, weights, columns, total, asked = self._consistent(partial.codes)
        seed_set = frozenset(seeds)
        hit = asked.get(seed_set)
        if hit is None:
            reached = self._unions(columns, seed_set, len(weights))
            union = reduce(or_, reached, 0)
            zero = frozenset(v for v in range(graph.node_count) if not union >> v & 1)
            hit = asked[seed_set] = ActivationEstimate(
                _weighted_size(weights, reached) / total, zero)
        return hit

    def cascades_with(self, graph, seeds, partial, candidates):
        _, weights, columns, total, _ = self._consistent(partial.codes)
        reached = self._unions(columns, frozenset(seeds), len(weights))
        return [_weighted_size(weights, map(or_, reached, columns[c])) / total
                for c in candidates]

    def single_node_values(self, graph):
        _, weights, columns, total, _ = self._consistent(empty_partial(graph).codes)
        return [_weighted_size(weights, column) / total for column in columns]


def evaluate_policy_exact(graph: DirectedGraph, config: PolicyConfig,
                          selection_hook=None) -> ExactEvaluation:
    """Exact expected spread of a policy run with the exact estimator,
    whose answers come from the world table (`_TableEstimator`).

    For the enhanced policy the coin is marginalized analytically: the
    value is the average of the single-best-node arm and the greedy arm.
    Both arms are integer sums over the table, divided once.
    """
    if graph.edge_count > ENUMERATION_EDGE_LIMIT:
        raise InstanceTooLarge(
            f"realization enumeration over {graph.edge_count} edges exceeds "
            f"the {ENUMERATION_EDGE_LIMIT}-edge guard")
    worlds = _enumerate_worlds(graph)
    estimator = _TableEstimator(worlds)
    core = _GreedyCore(graph, config, estimator)
    total = sum(w for _, w, _, _ in worlds)
    if config.kind == "enhanced":
        star, _ = _affordable_single_node(graph, estimator, config.budget)
        single = _expected_cascade(worlds, range(len(worlds)), [star])
    value = 0
    for indices, schedule, *_ in _greedy_runs(core, [r for r, *_ in worlds],
                                              selection_hook):
        value += _expected_cascade(worlds, indices, schedule.nodes)
    if config.kind == "enhanced":
        return ExactEvaluation((single + value) / (2 * total), len(worlds))
    return ExactEvaluation(value / total, len(worlds))


def sampled_world(graph: DirectedGraph, rng_seed: int,
                  index: int) -> tuple[FullRealization, int]:
    """World `index` of `evaluate_policy_sampled` under base seed
    `rng_seed`: its realization and the seed of its policy run."""
    world_seed = derive_seed(rng_seed, "world", index)
    return (sample_full_realization(graph, derive_seed(world_seed, "realization")),
            derive_seed(world_seed, "policy"))


def _world_outcome(args):
    graph, config, estimator, rng_seed, index = args
    realization, policy_seed = sampled_world(graph, rng_seed, index)
    run = run_policy(graph, config, realization, estimator, policy_seed)
    return (run.realized_cascade, run.slots_elapsed, len(run.schedule),
            run if index == 0 else None)


def evaluate_policy_sampled(graph: DirectedGraph, config: PolicyConfig,
                            realizations: int, rng_seed: int,
                            estimator: Estimator, threads: int = 1) -> SampledEvaluation:
    """Mean and standard error of the realized cascade over sampled
    worlds. World index w uses the stream derived from (rng_seed, "world",
    w), so results do not depend on scheduling and different base seeds
    share no worlds; integer totals are summed before any division. The
    run on world 0 comes back whole, from a pool worker too. At most one
    worker per world is started."""
    if realizations < 1:
        raise ValueError("need at least one realization")
    jobs = [(graph, config, estimator, rng_seed, w) for w in range(realizations)]
    # a fork-started pool starts all its workers at once, busy or not
    workers = min(threads, realizations)
    if workers > 1:
        # imported here: it loads multiprocessing, about 30 ms of start-up
        # that single-process runs do not need
        from concurrent.futures import ProcessPoolExecutor
        # one chunk per worker, so each runs an even share of the worlds
        chunk = -(-realizations // workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_world_outcome, jobs, chunksize=chunk))
    else:
        outcomes = [_world_outcome(j) for j in jobs]
    spreads, slots, seeds, runs = zip(*outcomes)
    spread_sum, slot_sum, seed_sum = sum(spreads), sum(slots), sum(seeds)
    spread_sq = sum(s * s for s in spreads)
    k = realizations
    mean = spread_sum / k
    if k > 1:
        variance = max(0.0, (spread_sq - spread_sum * spread_sum / k) / (k - 1))
        stderr = math.sqrt(variance / k)
    else:
        stderr = 0.0
    return SampledEvaluation(mean, stderr, slot_sum / k, seed_sum / k, k, runs[0])


def optimal_full_feedback_adaptive(graph: DirectedGraph, budget) -> float:
    """Optimal adaptive value when each selection sees the previous
    cascade completely. Backward induction over observation states;
    guarded to very small instances (n <= 6, |E| <= 12, B <= 3) and
    uniform unit costs."""
    frac_budget = _as_fraction(budget)
    if frac_budget < 1:
        raise ValueError("budget must allow at least one selection")
    if frac_budget > 3 or graph.node_count > 6 or graph.edge_count > 12:
        raise InstanceTooLarge("adaptive optimum guard: needs n <= 6, "
                               "|E| <= 12, B <= 3")
    if not graph.has_uniform_unit_costs():
        raise ValueError("adaptive optimum supports uniform unit costs only")

    n = graph.node_count
    picks = min(n, int(frac_budget))
    if picks == 0:
        return 0.0
    worlds = _enumerate_worlds(graph)
    out_masks = [sum(1 << k for k in graph.out_edges[v]) for v in range(n)]
    # per node mask, then per world and node: the edges leaving every node
    # in the mask, or that the node reaches
    leaving = [closure_union(out_masks, mask_nodes(mask)) for mask in range(1 << n)]
    out_closures = [[leaving[c] for c in closures] for _, _, closures, _ in worlds]
    memo: dict = {}

    def value(seed_mask: int, view: tuple[int, int], indices: list[int]) -> int:
        # unnormalized and exact: sum over these worlds of weight * eventual
        # cascade. A seed set's full-feedback view is (the edges leaving
        # every node its cascade reaches, their live bits); the worlds
        # showing it are exactly `indices`, so the view keys the memo.
        # Both selection orders of a two-seed set reach it with the same
        # view, and no other path does: the second order takes the value
        # that the first memoized, and drops it.
        key = (seed_mask, view)
        pair = seed_mask.bit_count() == 2
        if pair:
            hit = memo.pop(key, None)
            if hit is not None:
                return hit
        if seed_mask.bit_count() + 1 == picks:
            # the last pick sees nothing more: sum weight * |R(S + v)|. The
            # view holds every edge leaving R(S), so R(S) is one set here
            reached = closure_union(worlds[indices[0]][2], mask_nodes(seed_mask))
            rows = [worlds[i][1:3] for i in indices]
            best = max(sum(w * (reached | closures[v]).bit_count() for w, closures in rows)
                       for v in range(n) if not seed_mask >> v & 1)
        else:
            reach_edges = view[0]
            best = 0
            for v in range(n):
                if seed_mask >> v & 1:
                    continue
                parts: dict[tuple[int, int], list[int]] = {}
                for i in indices:
                    edges = reach_edges | out_closures[i][v]
                    parts.setdefault((edges, worlds[i][3] & edges), []).append(i)
                best = max(best, sum(value(seed_mask | 1 << v, sub_view, sub)
                                     for sub_view, sub in parts.items()))
        if pair:
            memo[key] = best
        return best

    total = sum(w for _, w, _, _ in worlds)
    return value(0, (0, 0), list(range(len(worlds)))) / total
