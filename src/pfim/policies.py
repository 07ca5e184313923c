"""Alpha-greedy seeding policies under partial feedback.

The common loop: pick a first seed unconditionally, then repeatedly check
whether the estimated cascade per still-activatable node clears the
threshold alpha. If it does, seed the best candidate in the current slot
(several selections may share a slot); if not, let one slot of diffusion
pass and fold the new observations in. alpha = 0 never waits and
degenerates to non-adaptive greedy; alpha = 1 waits until every node is
certainly active or certainly unreachable, which is full feedback. One
loop (`_greedy_runs`) serves a live run on one world and the exact
evaluator on all worlds at once, split by what each wait reveals.

One selection rule: the largest gain per unit cost, smallest id on ties.
A run ends once no unseeded node costs at most the remaining budget;
before that, the first round considers only the affordable nodes, and a
later round whose argmax does not fit stops the run rather than take a
cheaper node. The kinds differ only in `check_budget`, which every
`_GreedyCore` runs first, and in the enhanced coin. Uniform cost is the
unit-cost case (every node costs 1, an integer B <= n), so its run
places B seeds by argmax gain. The enhanced variant flips a fair coin
between the best single node and the non-uniform greedy run; the coin
comes first, and the greedy arm computes the best single node only when
some node costs more than the budget, to reject it on both arms alike.

On the Monte Carlo backend the argmax scans lazily (CELF): a round on
the same observation state as the last selection round, with more seeds,
re-evaluates only the candidates whose last gain could still win. Its
gains are counts over one fixed batch of completions, hence exactly
submodular, so the lazy argmax is the full scan's, ties included. The
exact and epsilon backends scan every candidate.

Termination under estimators that can hold the condition below alpha
forever (an adversarial low perturbation at alpha = 1): once the newest
seed has been active for node_count slots every observation has settled,
so further waiting cannot change anything; the loop then selects anyway
rather than spin. With the exact backend the condition is already true
at that point and the guard never fires.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from ._util import derive_seed, fmt_g
from .diffusion import (EdgeState, FullRealization, PartialRealization, SeedSchedule,
                        cascade_size, empty_partial, observe)
from .estimation import Estimator
from .graph import DirectedGraph


@dataclass(frozen=True)
class RoundLog:
    """One policy-loop iteration: either a selection or a waited slot."""

    round_index: int
    slot_index: int
    action: str                      # "select" | "wait"
    node: int | None
    gain: float | None
    remaining_budget: Fraction | None
    condition_value: float | None    # None before the first seed exists
    zero_set_size: int


@dataclass(frozen=True)
class PolicyRun:
    schedule: SeedSchedule
    rounds: tuple[RoundLog, ...]
    realized_cascade: int
    total_cost: Fraction
    slots_elapsed: int
    arm: str | None = None           # enhanced only: "single" or "greedy"


POLICY_KINDS = ("uniform", "nonuniform", "enhanced")


class BudgetError(ValueError):
    """A budget that the policy cannot run under. `field` names the option
    to blame: "budget" or "costs"."""

    def __init__(self, field: str, problem: str):
        super().__init__(problem)
        self.field = field

    def __reduce__(self):  # a worker process's refusal reaches the parent pickled
        return type(self), (self.field, str(self))


@dataclass(frozen=True)
class PolicyConfig:
    kind: str
    alpha: float
    budget: Fraction

    def __post_init__(self):
        # exact budget arithmetic from here on, whatever number was given
        object.__setattr__(self, "budget", Fraction(self.budget))
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if self.budget <= 0:
            raise ValueError("budget must be positive")


def check_budget(graph: DirectedGraph, config: PolicyConfig):
    """BudgetError unless uniform cost has an integer budget of at most the
    node count and every node cost 1, or another kind an affordable node."""
    budget = config.budget
    if config.kind == "uniform":
        if budget.denominator != 1:
            raise BudgetError("budget", "uniform policy needs an integer budget")
        if budget > graph.node_count:
            raise BudgetError("budget", f"{budget} exceeds the node count "
                                        f"{graph.node_count} under uniform cost")
        if not graph.has_uniform_unit_costs():
            raise BudgetError("costs", "uniform policy needs every node cost 1")
    elif all(c > budget for c in graph.costs):
        raise BudgetError("budget", f"{budget} is below every node's cost")


def transcript_lines(run: PolicyRun) -> list[str]:
    """Render round logs in the stable transcript format."""
    lines = []
    for rl in run.rounds:
        cond = "na" if rl.condition_value is None else fmt_g(rl.condition_value)
        if rl.action == "select":
            act = f"select:{rl.node},{fmt_g(rl.gain)},{rl.remaining_budget}"
        else:
            act = "wait"
        lines.append(f"r={rl.round_index} slot={rl.slot_index} action={act} "
                     f"cond={cond} |O|={rl.zero_set_size}")
    return lines


class _GreedyCore:
    """Per-round decision logic of the greedy loop (`_greedy_runs`): each
    `decide` is one round. The caller owns the schedule, the slot, the
    remaining budget and the observations.
    The PolicyConfig checks the ranges of alpha and budget, `check_budget`
    the budget on the graph; past that the core reads no policy kind, and
    the enhanced kind's greedy arm is this loop.

    The only state a core keeps between rounds is the last selection
    round's gains, as upper bounds for CELF lazy greedy (Leskovec et al.,
    KDD 2007). They are used only with a backend whose gains are exactly
    submodular (`Estimator.submodular_gains`, the Monte Carlo backend) and
    only in a round with the same observation codes and a superset of the
    seeds, so the lazy argmax is the full scan's, smallest id on ties. The
    exact backend (float differences) and the epsilon wrapper (not
    submodular) scan every candidate. The bounds live on the core, which
    serves one run or one exact evaluation, and never in the estimator's
    cache."""

    def __init__(self, graph: DirectedGraph, config: PolicyConfig,
                 estimator: Estimator):
        check_budget(graph, config)
        self.graph = graph
        self.alpha = config.alpha
        self.budget = config.budget
        self.estimator = estimator
        self._bounds: tuple[bytes, frozenset[int], dict[int, float]] | None = None

    def _best(self, gains: dict[int, float]) -> tuple[int | None, float]:
        """The largest score (gain per unit cost), smallest id on ties,
        and that score."""
        cost = self.graph._float_costs
        best, top = None, 0.0
        for v, g in gains.items():
            score = g / cost[v]
            if best is None or score > top or (score == top and v < best):
                best, top = v, score
        return best, top

    def _argmax(self, seeds, seeded, partial, candidates):
        """The candidate `_best` picks among all, and its gain. Without
        bounds every candidate is evaluated in one `gains` call. With the
        last round's bounds: the candidates without one and the top stale
        one, then every stale one whose bound still reaches the best
        score."""
        bounds: dict[int, float] = {}
        submodular = self.estimator.submodular_gains
        if submodular and self._bounds is not None:
            codes, earlier, last = self._bounds
            if codes == partial.codes and earlier <= seeded:
                bounds = last
        stale = {v: bounds[v] for v in candidates if v in bounds}
        ask = [v for v in candidates if v not in bounds]
        if stale:
            ask.append(self._best(stale)[0])
        gains = dict(zip(ask, self.estimator.gains(self.graph, seeds, partial, ask)))
        best, top = self._best(gains)
        if stale:
            cost = self.graph._float_costs
            ask = [v for v, g in stale.items() if g / cost[v] >= top and v not in gains]
            if ask:
                gains.update(zip(ask, self.estimator.gains(self.graph, seeds, partial, ask)))
                best, _ = self._best(gains)
        if submodular:
            bounds.update(gains)
            self._bounds = (partial.codes, frozenset(seeded), bounds)
        return best, gains.get(best)

    def decide(self, entries: list[tuple[int, int]], partial: PartialRealization,
               slot: int, remaining: Fraction, round_index: int) -> RoundLog | None:
        """One round on the schedule `entries`, (node, slot) pairs: its log,
        a select or a wait, or None to stop: no unseeded node costs at most
        the remaining budget, or the argmax does not. After the first seed
        the gate waits while the expected cascade per node outside the zero
        set is below alpha, unless the newest seed is node_count slots old."""
        graph = self.graph
        seeds = [v for v, _ in entries]
        seeded = set(seeds)
        # returns at the first affordable node: only a run's last round scans all
        if not any(c <= remaining for v, c in enumerate(graph.costs) if v not in seeded):
            return None
        estimate = self.estimator.activation(graph, seeds, partial)
        zero_size = len(estimate.zero_set)
        cond_value = None
        if seeds:
            live_nodes = graph.node_count - zero_size
            # a selected seed always sits outside the zero set
            assert live_nodes > 0, "zero set swallowed a seeded node"
            cond_value = estimate.expected_cascade / live_nodes
            # cond_value >= 0, so alpha = 0 never waits
            if cond_value < self.alpha and slot - entries[-1][1] < graph.node_count:
                return RoundLog(round_index, slot, "wait", None, None, None,
                                cond_value, zero_size)

        # only the first round leaves out nodes above the remaining budget
        unfiltered = seeds or graph._max_cost <= remaining
        candidates = [v for v in range(graph.node_count) if v not in seeded and (
            unfiltered or graph.costs[v] <= remaining)]
        best, best_gain = self._argmax(seeds, seeded, partial, candidates)
        if graph.costs[best] > remaining:
            return None
        return RoundLog(round_index, slot, "select", best, best_gain,
                        remaining - graph.costs[best], cond_value, zero_size)


def _greedy_runs(core: _GreedyCore, worlds: list[FullRealization], selection_hook=None):
    """The greedy loop on all worlds at once: a walk over the policy's
    decision tree of observations. A group is the worlds that share every
    observation so far, with their schedule entries, round logs, slot,
    remaining budget and observation. Each round appends the log that
    `core.decide` returns; a select extends the schedule and takes the
    remaining budget from its log. A wait splits the group by what the
    next slot shows its worlds (`_observed_parts`); the smallest codes go
    on at once and the other parts wait on a stack, so the parts finish
    depth-first in ascending codes order. Yields (world indices,
    schedule, rounds, cost, slots) per final group; a live run is the one
    group of one world. `selection_hook(seeds, partial)` runs before each
    selection."""
    graph = core.graph
    stack = [(list(range(len(worlds))), [], [], 0, core.budget, empty_partial(graph))]
    while stack:
        indices, entries, rounds, slot, remaining, partial = stack.pop()
        while (log := core.decide(entries, partial, slot, remaining, len(rounds))) is not None:
            rounds.append(log)
            if log.action == "select":
                if selection_hook is not None:
                    selection_hook([v for v, _ in entries], partial)
                entries.append((log.node, slot))
                remaining = log.remaining_budget
                continue
            slot += 1
            (partial, indices), *rest = _observed_parts(
                graph, worlds, indices, SeedSchedule(tuple(entries)), slot)
            for psi, sub in reversed(rest):
                stack.append((sub, list(entries), list(rounds), slot, remaining, psi))
        yield (indices, SeedSchedule(tuple(entries)), tuple(rounds),
               core.budget - remaining, slot)


def _observed_parts(graph: DirectedGraph, worlds: list[FullRealization], indices: list[int],
                    schedule: SeedSchedule, slot: int) -> list:
    """A group's worlds split by what `slot` shows them: (observation,
    world indices) pairs in ascending codes. The worlds agree on every
    edge shown before, which fixes the edges the slot shows, so one world
    is observed and the others are split by those edges' outcomes."""
    shown = observe(graph, worlds[indices[0]], schedule, slot)
    if len(indices) == 1:
        return [(shown, indices)]
    edges = [k for k, c in enumerate(shown.codes) if c != EdgeState.UNOBSERVED]
    parts: dict[tuple, list[int]] = {}
    for i in indices:
        parts.setdefault(tuple(map(worlds[i].live.__getitem__, edges)), []).append(i)
    split = []
    for outcome, sub in parts.items():
        codes = bytearray(shown.codes)
        for k, live in zip(edges, outcome):
            codes[k] = live
        split.append((bytes(codes), sub))
    return [(PartialRealization(codes), sub) for codes, sub in sorted(split)]


def best_single_node(graph: DirectedGraph, estimator: Estimator) -> tuple[int, float]:
    """The node with the largest unconditional expected cascade, smallest
    id on ties, together with that value. Every node's value is read, so
    the epsilon wrapper draws one factor per node, in node order."""
    if graph.node_count == 0:
        raise ValueError("empty graph has no best node")
    # max keeps the first of equal keys
    return max(enumerate(estimator.single_node_values(graph)), key=itemgetter(1))


def _star_error(graph: DirectedGraph, star: int, budget: Fraction) -> BudgetError | None:
    """The refusal of best single node `star` when it costs more than the
    budget, else None."""
    if graph.costs[star] <= budget:
        return None
    return BudgetError("budget", f"best single node {star} is unaffordable "
                                 f"(cost {graph.costs[star]} exceeds budget {budget})")


def _policy_runs(graph: DirectedGraph, configs: list[PolicyConfig],
                 realization: FullRealization, estimator: Estimator,
                 rng_seed: int) -> list:
    """`run_policy` of each config on one realization and policy seed: per
    config, in order, its PolicyRun, or the BudgetError that refuses its
    best single node (returned, so that a caller can tell which config
    failed). The configs share what reads neither alpha nor the budget:
    one reseeded estimator, which each config's core gets `rewound`, the
    enhanced coin, and the best single node, found once."""
    shared = estimator.reseeded(derive_seed(rng_seed, "estimation"))
    cores = [_GreedyCore(graph, config, shared.rewound()) for config in configs]
    star = None
    enhanced_budgets = [c.budget for c in configs if c.kind == "enhanced"]
    if enhanced_budgets:
        coin = random.Random(derive_seed(rng_seed, "arm-coin")).random() < 0.5
        # The greedy arm needs the best single node only to reject it when
        # it is unaffordable, which cannot happen if every node fits every budget.
        if coin or graph._max_cost > min(enhanced_budgets):
            est_single = estimator.reseeded(derive_seed(rng_seed, "estimation", "single"))
            star, star_value = best_single_node(graph, est_single)
        if coin:
            star_cascade = cascade_size(graph, realization, [star])
    runs = []
    for config, core in zip(configs, cores):
        arm = None
        if config.kind == "enhanced":
            if star is not None and (refusal := _star_error(graph, star, config.budget)):
                runs.append(refusal)
                continue
            if coin:
                star_cost = graph.costs[star]
                rounds = (RoundLog(0, 0, "select", star, star_value,
                                   config.budget - star_cost, None, graph.node_count),)
                runs.append(PolicyRun(SeedSchedule(((star, 0),)), rounds, star_cascade,
                                      star_cost, 0, arm="single"))
                continue
            arm = "greedy"
        (_, schedule, rounds, cost, slots), = _greedy_runs(core, [realization])
        runs.append(PolicyRun(schedule, rounds,
                              cascade_size(graph, realization, schedule.nodes),
                              cost, slots, arm))
    return runs


def run_policy(graph: DirectedGraph, config: PolicyConfig,
               realization: FullRealization, estimator: Estimator,
               rng_seed: int) -> PolicyRun:
    """Run a configured policy against one realization, after `check_budget`.

    uniform and nonuniform: the greedy loop of the module docstring; a
    uniform run places exactly B seeds by argmax gain.
    enhanced: a fair coin between seeding only the best single node and
    the nonuniform run with the same seeds.
    """
    run, = _policy_runs(graph, [config], realization, estimator, rng_seed)
    if isinstance(run, BudgetError):
        raise run
    return run
