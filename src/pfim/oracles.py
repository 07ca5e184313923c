"""Ground-truth evaluation: exact policy values and brute-force optima.

Both exact referees walk one world table (`_enumerate_worlds`), where a
seed set's reach in a world is a union of closure masks. Exact policy
evaluation conceptually runs the policy on every world and weights the
realized cascade by the world's probability. Worlds that have produced
identical observations so far are indistinguishable to the policy, so
the run tree branches only where observations actually differ. That tree
walk is the loop a live run uses (`policies._greedy_runs`): a live run
is one of its branches.

The non-adaptive optimum scores every affordable seed set; the
full-feedback adaptive optimum does backward induction over observation
states on deliberately tiny instances. Both are meant as referees for
the policies, not as scalable solvers.
"""

import math
from dataclasses import dataclass
from itertools import combinations

from ._util import derive_seed
from .diffusion import (FullRealization, empty_partial, live_adjacency,
                        sample_full_realization)
from .estimation import (Estimator, ExactEstimator, InstanceTooLarge,
                         _assignments, exact_conditional_activation)
from .graph import DirectedGraph, _as_fraction
from .policies import (PolicyConfig, _affordable_single_node, _GreedyCore,
                       _greedy_runs, run_policy)
from .reach import closure_masks, closure_union, mask_nodes

ENUMERATION_EDGE_LIMIT = 22          # 2^|E| realizations
NONADAPTIVE_WORK_LIMIT = 1 << 24     # sum of C(n, s) * 2^|E| over sizes s <= B / c_min


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


def _enumerate_worlds(graph: DirectedGraph) -> list:
    """The world table of both exact referees: one (realization, weight,
    closures) entry per full realization with nonzero probability, in
    ascending live bits (edge index k is bit k). `closures[v]` is the node
    mask that v reaches over the world's live edges."""
    m, n = graph.edge_count, graph.node_count
    weighted = ((FullRealization(tuple(bool(bits >> k & 1) for k in range(m))), w)
                for bits, w in _assignments([e.probability for e in graph.edges]) if w != 0.0)
    return [(r, w, closure_masks(n, live_adjacency(graph, r))) for r, w in weighted]


def _expected_cascade(worlds: list, indices, seeds) -> float:
    """Sum of weight * cascade size over the indexed worlds, added left to
    right (from Python 3.12 on, sum() compensates the rounding). `seeds`
    is read once per world, so it must be a collection, not an iterator."""
    total = 0.0
    for i in indices:
        _, weight, closures = worlds[i]
        total += weight * closure_union(closures, seeds).bit_count()
    return total


def evaluate_policy_exact(graph: DirectedGraph, config: PolicyConfig,
                          selection_hook=None) -> ExactEvaluation:
    """Exact expected spread of a policy run with the exact estimator.

    For the enhanced policy the coin is marginalized analytically: the
    value is the average of the single-best-node arm and the greedy arm.
    """
    if graph.edge_count > ENUMERATION_EDGE_LIMIT:
        raise InstanceTooLarge(
            f"realization enumeration over {graph.edge_count} edges exceeds "
            f"the {ENUMERATION_EDGE_LIMIT}-edge guard")
    worlds = _enumerate_worlds(graph)
    estimator = ExactEstimator()
    if config.kind == "enhanced":
        star, _ = _affordable_single_node(graph, estimator, config.budget)
        single = _expected_cascade(worlds, range(len(worlds)), [star])
    core = _GreedyCore(graph, config, estimator)
    value = 0.0
    for indices, schedule, *_ in _greedy_runs(core, [r for r, _, _ in worlds],
                                              selection_hook):
        value += _expected_cascade(worlds, indices, schedule.nodes)
    if config.kind == "enhanced":
        value = 0.5 * (single + value)
    return ExactEvaluation(value, len(worlds))


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
    return run.realized_cascade, run.slots_elapsed, len(run.schedule)


def evaluate_policy_sampled(graph: DirectedGraph, config: PolicyConfig,
                            realizations: int, rng_seed: int,
                            estimator: Estimator, threads: int = 1) -> SampledEvaluation:
    """Mean and standard error of the realized cascade over sampled
    worlds. World index w uses the stream derived from (rng_seed, "world",
    w), so results do not depend on scheduling and different base seeds
    share no worlds; integer totals are summed before any division."""
    if realizations < 1:
        raise ValueError("need at least one realization")
    jobs = [(graph, config, estimator, rng_seed, w) for w in range(realizations)]
    if threads > 1:
        # imported here: it loads multiprocessing, about 30 ms of start-up
        # that single-process runs do not need
        from concurrent.futures import ProcessPoolExecutor
        # one chunk per worker, so each runs an even share of the worlds
        chunk = -(-realizations // threads)
        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_world_outcome, jobs, chunksize=chunk))
    else:
        outcomes = [_world_outcome(j) for j in jobs]
    spread_sum, slot_sum, seed_sum = (sum(column) for column in zip(*outcomes))
    spread_sq = sum(o[0] * o[0] for o in outcomes)
    k = realizations
    mean = spread_sum / k
    if k > 1:
        variance = max(0.0, (spread_sq - spread_sum * spread_sum / k) / (k - 1))
        stderr = math.sqrt(variance / k)
    else:
        stderr = 0.0
    return SampledEvaluation(mean, stderr, slot_sum / k, seed_sum / k, k)


def optimal_nonadaptive(graph: DirectedGraph, budget) -> tuple[frozenset[int], float]:
    """Best fixed seed set by exhaustive search, ties to the
    lexicographically smallest set."""
    frac_budget = _as_fraction(budget)
    if frac_budget <= 0:
        raise ValueError("budget must be positive")
    n = graph.node_count
    cap = min(n, int(frac_budget // min(graph.costs)) if n else 0)
    sets = 0
    for size in range(1, cap + 1):
        sets += math.comb(n, size)
        if sets << graph.edge_count > NONADAPTIVE_WORK_LIMIT:
            raise InstanceTooLarge("non-adaptive search space exceeds the work guard")

    empty = empty_partial(graph)
    best_set: tuple[int, ...] = ()
    best_value = 0.0
    for size in range(1, cap + 1):
        for combo in combinations(range(n), size):
            if sum(graph.costs[v] for v in combo) > frac_budget:
                continue
            value = math.fsum(exact_conditional_activation(graph, combo, empty))
            if value > best_value or (value == best_value and combo < best_set):
                best_set, best_value = combo, value
    return frozenset(best_set), best_value


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
    worlds = _enumerate_worlds(graph)
    live_bits = [sum(1 << k for k, live in enumerate(r.live) if live) for r, _, _ in worlds]
    out_masks = [sum(1 << k for k in graph.out_edges[v]) for v in range(n)]
    # per world and node: the edges leaving every node that node reaches
    out_closures = [[closure_union(out_masks, mask_nodes(c)) for c in closures]
                    for _, _, closures in worlds]
    memo: dict = {}

    def value(seed_mask: int, indices: tuple[int, ...]) -> float:
        # unnormalized: sum over these worlds of weight * eventual cascade
        seeds = list(mask_nodes(seed_mask))
        if len(seeds) == picks:
            return _expected_cascade(worlds, indices, seeds)
        key = (seed_mask, indices)
        hit = memo.get(key)
        if hit is not None:
            return hit
        best = None
        for v in range(n):
            if seed_mask >> v & 1:
                continue
            new_mask, new_seeds = seed_mask | 1 << v, seeds + [v]
            # a world's full-feedback view: the status of every edge leaving
            # a node its cascade reaches, as (those edges, their live bits)
            parts: dict[tuple[int, int], list[int]] = {}
            for i in indices:
                edges = closure_union(out_closures[i], new_seeds)
                parts.setdefault((edges, live_bits[i] & edges), []).append(i)
            candidate = 0.0
            for sub in parts.values():
                candidate += value(new_mask, tuple(sub))
            if best is None or candidate > best:
                best = candidate
        memo[key] = best
        return best

    return value(0, tuple(range(len(worlds))))
