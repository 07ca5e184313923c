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

The full-feedback adaptive optimum does backward induction over reached
sets on deliberately tiny instances. After full feedback a group's
worlds all reach one node set R, no live edge leaves it, and the future
reads only the untouched edges leaving nodes outside R: one memo entry
per (R, picks left) serves every group, rescaled to its weight. It is
a referee for the policies, not a scalable solver.

Sampled evaluation runs world-major (`_sampled_sweep`): world w of a
base seed has the same realization and policy seed in every config, so
each world is drawn once and every config runs on it, one job per world.
The configs share one reseeded estimator: a Monte Carlo answer is a
function of the estimator seed, the graph, the codes and the seeds, and
its held views and zero sets are caches. Each config keeps its own
greedy core (its CELF bounds) and its own epsilon factor stream. A
single config is `evaluate_policy_sampled`.
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
from .policies import (BudgetError, PolicyConfig, PolicyRun, _GreedyCore, _greedy_runs,
                       _policy_runs, _star_error, best_single_node)
from .reach import closure_masks, closure_union, mask_nodes

ENUMERATION_EDGE_LIMIT = 22          # 2^|E| realizations
# the live flags of edges 8j to 8j + 7 from byte j of a world's live bits
_BYTE_FLAGS = [tuple(bool(b >> k & 1) for k in range(8)) for b in range(256)]


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
            flags = sum(map(_BYTE_FLAGS.__getitem__, bits.to_bytes(-(-m // 8), "little")), ())
            table.append((FullRealization(flags[:m]), w, closures, bits))
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
        star, _ = best_single_node(graph, estimator)
        if refusal := _star_error(graph, star, config.budget):
            raise refusal
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


def _world_outcomes(args) -> list:
    """World `index` under base seed `rng_seed`, drawn once and run for
    every config (`_policy_runs`): per config its (cascade, slots, seed
    count, the run itself on world 0), or its BudgetError."""
    graph, configs, estimator, rng_seed, index = args
    realization, policy_seed = sampled_world(graph, rng_seed, index)
    return [run if isinstance(run, BudgetError) else
            (run.realized_cascade, run.slots_elapsed, len(run.schedule),
             run if index == 0 else None)
            for run in _policy_runs(graph, configs, realization, estimator, policy_seed)]


def _summary(outcomes: list) -> SampledEvaluation:
    """One config's evaluation from its world outcomes, in world order:
    integer totals are summed before any division."""
    spreads, slots, seeds, runs = zip(*outcomes)
    spread_sum, slot_sum, seed_sum = sum(spreads), sum(slots), sum(seeds)
    spread_sq = sum(s * s for s in spreads)
    k = len(outcomes)
    mean = spread_sum / k
    if k > 1:
        variance = max(0.0, (spread_sq - spread_sum * spread_sum / k) / (k - 1))
        stderr = math.sqrt(variance / k)
    else:
        stderr = 0.0
    return SampledEvaluation(mean, stderr, slot_sum / k, seed_sum / k, k, runs[0])


def _sampled_sweep(graph: DirectedGraph, configs: list[PolicyConfig], realizations: int,
                   rng_seed: int, estimator: Estimator,
                   threads: int = 1) -> list[SampledEvaluation]:
    """`evaluate_policy_sampled` of every config, world-major: each world
    is drawn and run once for all configs (`_world_outcomes`), one job per
    world, in one pool of at most one worker per world. The values are
    those of config-by-config calls, and so is a BudgetError: the first
    config that fails, at its first failing world."""
    if realizations < 1:
        raise ValueError("need at least one realization")
    # a fork-started pool starts all its workers at once, busy or not
    workers = min(threads, realizations)
    if workers > 1:
        # imported here: it loads multiprocessing, about 30 ms of start-up
        # that single-process runs do not need
        from concurrent.futures import ProcessPoolExecutor
        jobs = [(graph, configs, estimator, rng_seed, w) for w in range(realizations)]
        # one chunk per worker, so each runs an even share of the worlds
        chunk = -(-realizations // workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_world_outcomes, jobs, chunksize=chunk))
    else:
        outcomes, live = [], len(configs)
        for w in range(realizations):
            outcomes.append(_world_outcomes((graph, configs[:live], estimator, rng_seed, w)))
            # a failed config's error outranks those of every later config,
            # so later worlds run only the configs before it
            live = next((i for i, o in enumerate(outcomes[-1])
                         if isinstance(o, BudgetError)), live)
            if not live:
                break
    results = []
    for i in range(len(configs)):
        column = []
        # config i ran on every world up to its first failure
        for world in outcomes:
            if isinstance(world[i], BudgetError):
                raise world[i]
            column.append(world[i])
        results.append(_summary(column))
    return results


def evaluate_policy_sampled(graph: DirectedGraph, config: PolicyConfig,
                            realizations: int, rng_seed: int,
                            estimator: Estimator, threads: int = 1) -> SampledEvaluation:
    """Mean and standard error of the realized cascade over sampled
    worlds: the one-config case of the sweep (`_sampled_sweep`). World
    index w uses the stream derived from (rng_seed, "world", w), so
    results do not depend on scheduling and different base seeds share no
    worlds; integer totals are summed before any division. The run on
    world 0 comes back whole, from a pool worker too. At most one worker
    per world is started."""
    return _sampled_sweep(graph, [config], realizations, rng_seed, estimator, threads)[0]


def optimal_full_feedback_adaptive(graph: DirectedGraph, budget) -> float:
    """Optimal adaptive value when each selection sees the previous
    cascade completely (Golovin and Krause, JAIR 2011), by backward
    induction over reached sets (module docstring): a group's value is its
    weight times a function of (R, picks left). A memo hit takes the
    stored value times the ratio of the weights, exact as both carry b for
    every edge leaving a node outside R; a remainder raises. Candidates are
    the nodes outside R: a node of R adds nothing. Guarded to very small
    instances (n <= 6, |E| <= 12, B <= 3) and uniform unit costs."""
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
    memo: dict[tuple[int, int], tuple[int, int]] = {}

    def value(reached: int, left: int, rows: list) -> int:
        # unnormalized and exact: the sum over the group's (weight,
        # closures) rows of weight * eventual cascade, at least weight * |R|
        weight = sum(w for w, _ in rows)
        if (hit := memo.get((reached, left))) is not None:
            scaled, rest = divmod(hit[0] * weight, hit[1])
            if rest:
                raise AssertionError(f"memo entry {hit} does not scale to weight {weight}")
            return scaled
        best = weight * reached.bit_count()
        for v in range(n):
            if reached >> v & 1:
                continue
            if left == 1:
                best = max(best, sum(w * (reached | closures[v]).bit_count()
                                     for w, closures in rows))
                continue
            parts: dict[int, list] = {}
            for row in rows:
                parts.setdefault(reached | row[1][v], []).append(row)
            best = max(best, sum(value(r, left - 1, sub) for r, sub in parts.items()))
        memo[reached, left] = best, weight
        return best

    rows = [(w, closures) for _, w, closures, _ in _enumerate_worlds(graph)]
    return value(0, picks, rows) / sum(w for w, _ in rows)
