"""Ground-truth evaluation: exact policy values and a brute-force optimum.

Both exact referees walk one world table (`_enumerate_worlds`), where a
seed set's reach in a world is a union of closure masks. The table is
built once per graph: a cache bound to the graph object holds the last
graph's table, so the evaluator's configs and the optimum share it, and
another graph, even an equal one, gets its own. Exact policy
evaluation conceptually runs the policy on every world and weights the
realized cascade by the world's probability. Worlds that have produced
identical observations so far are indistinguishable to the policy, so
the run tree branches only where observations actually differ. That tree
walk is the loop a live run uses (`policies._greedy_runs`): a live run
is one of its branches.

The full-feedback adaptive optimum does backward induction over
observation states on deliberately tiny instances. It is meant as a
referee for the policies, not as a scalable solver.
"""

import math
from dataclasses import dataclass

from ._util import derive_seed
from .diffusion import FullRealization, live_adjacency, sample_full_realization
from .estimation import (Estimator, ExactEstimator, InstanceTooLarge, _assignments,
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
    closures, live bits) entry per full realization with nonzero
    probability, in ascending live bits (edge index k is bit k).
    `closures[v]` is the node mask that v reaches over the world's live
    edges. The table is built once per graph object and shared by every
    referee call on it; the cache holds the last graph's table only."""
    hit = _WORLDS.lookup(graph, None)
    if hit is not None:
        return hit
    m, n = graph.edge_count, graph.node_count
    table = []
    for bits, w in _assignments([e.probability for e in graph.edges]):
        if w != 0.0:
            r = FullRealization(tuple(bool(bits >> k & 1) for k in range(m)))
            table.append((r, w, closure_masks(n, live_adjacency(graph, r)), bits))
    return _WORLDS.store(None, table)


def _expected_cascade(worlds: list, indices, seeds) -> float:
    """Sum of weight * cascade size over the indexed worlds, added left to
    right (from Python 3.12 on, sum() compensates the rounding). `seeds`
    is read once per world, so it must be a collection, not an iterator."""
    total = 0.0
    for i in indices:
        _, weight, closures, _ = worlds[i]
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
    estimator = ExactEstimator()
    core = _GreedyCore(graph, config, estimator)
    worlds = _enumerate_worlds(graph)
    if config.kind == "enhanced":
        star, _ = _affordable_single_node(graph, estimator, config.budget)
        single = _expected_cascade(worlds, range(len(worlds)), [star])
    value = 0.0
    for indices, schedule, *_ in _greedy_runs(core, [r for r, *_ in worlds],
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
    # per world and node: the edges leaving every node that node reaches
    out_closures = [[closure_union(out_masks, mask_nodes(c)) for c in closures]
                    for _, _, closures, _ in worlds]
    memo: dict = {}

    def value(seed_mask: int, view: tuple[int, int], indices: list[int]) -> float:
        # unnormalized: sum over these worlds of weight * eventual cascade.
        # A seed set's full-feedback view is (the edges leaving every node
        # its cascade reaches, their live bits); the worlds showing it are
        # exactly `indices`, so the view keys the memo. Final parts are
        # summed where they are split and never memoized.
        key = (seed_mask, view)
        hit = memo.get(key)
        if hit is not None:
            return hit
        reach_edges = view[0]
        final = seed_mask.bit_count() + 1 == picks
        best = None
        for v in range(n):
            if seed_mask >> v & 1:
                continue
            new_mask = seed_mask | 1 << v
            parts: dict[tuple[int, int], list[int]] = {}
            for i in indices:
                edges = reach_edges | out_closures[i][v]
                parts.setdefault((edges, worlds[i][3] & edges), []).append(i)
            candidate = 0.0
            for sub_view, sub in parts.items():
                if final:
                    # every world of the part reaches the same nodes
                    size = closure_union(worlds[sub[0]][2], mask_nodes(new_mask)).bit_count()
                    total = 0.0
                    for i in sub:
                        total += worlds[i][1] * size
                    candidate += total
                else:
                    candidate += value(new_mask, sub_view, sub)
            if best is None or candidate > best:
                best = candidate
        memo[key] = best
        return best

    return value(0, (0, 0), list(range(len(worlds))))
