import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import currently_in_test_context, event, given, settings, strategies as st

import pfim.policies as policies
from pfim.checks import alpha_zero_seeds
from pfim.diffusion import (EdgeState, FullRealization, PartialRealization,
                            SeedSchedule, empty_partial, observe, sample_full_realization)
from pfim.estimation import (ActivationEstimate, EpsilonEstimator, Estimator,
                             ExactEstimator, MonteCarloEstimator)
from pfim.graph import DirectedGraph, generate_graph, load_graph
from pfim.oracles import evaluate_policy_exact
from pfim.policies import (BudgetError, PolicyConfig, RoundLog, _GreedyCore,
                           best_single_node, check_budget, run_policy, transcript_lines)

from bruteforce import greedy_nonadaptive_uniform, naive_policy_run

CHAIN = load_graph("0 1 0.5\n1 2 0.5\n")
DIAMOND = load_graph("0 1 0.5\n0 2 0.5\n1 3 0.5\n2 3 0.5\n")
ALL_LIVE_DIAMOND = FullRealization((True, True, True, True))


class FixedActivation(Estimator):
    """Every activation is one estimate and every gain is 1."""

    def __init__(self, expected_cascade, zero_set=()):
        self.estimate = ActivationEstimate(expected_cascade, frozenset(zero_set))

    def activation(self, graph, seeds, partial):
        return self.estimate

    def gains(self, graph, seeds, partial, candidates):
        return [1.0] * len(candidates)


class TestCondition:
    """The gate of the second round, node 0 seeded at slot 0: it waits
    while the estimated cascade per node outside the zero set is below
    alpha."""

    @staticmethod
    def second_round(n, alpha, expected_cascade, zero_set=()):
        g = DirectedGraph.build(n, [])
        core = _GreedyCore(g, PolicyConfig("uniform", alpha, n),
                           FixedActivation(expected_cascade, zero_set))
        return core.decide([(0, 0)], empty_partial(g), 0, Fraction(n - 1), 1)

    def test_alpha_zero_always_passes(self):
        log = self.second_round(2, 0.0, 0.0)
        assert (log.action, log.node, log.condition_value) == ("select", 1, 0.0)

    def test_threshold_on_surviving_nodes(self):
        # node 2 certainly dead: the share is measured over the other two
        assert self.second_round(3, 0.6, 1.2, {2}).action == "select"
        wait = self.second_round(3, 0.61, 1.2, {2})
        assert wait == RoundLog(1, 0, "wait", None, None, None, 0.6, 1)

    def test_boundary_is_inclusive(self):
        assert self.second_round(2, 0.75, 1.5).action == "select"


class TestUniformPolicy:
    def test_alpha_zero_seeds_all_at_slot_zero(self):
        real = sample_full_realization(DIAMOND, 3)
        run = run_policy(DIAMOND, PolicyConfig("uniform", 0.0, 2),
                         real, ExactEstimator(), 0)
        assert [slot for _, slot in run.schedule.entries] == [0, 0]
        assert run.slots_elapsed == 0
        assert all(r.action == "select" for r in run.rounds)

    def test_alpha_zero_matches_plain_greedy(self):
        for seed in range(15):
            g = generate_graph(6, 10, "erdos-renyi", 60, seed)
            real = sample_full_realization(g, seed + 100)
            assert alpha_zero_seeds(g, 3, real, greedy_nonadaptive_uniform(g, 3))[1]

    def test_first_selection_skips_condition(self):
        real = sample_full_realization(DIAMOND, 3)
        run = run_policy(DIAMOND, PolicyConfig("uniform", 1.0, 2),
                         real, ExactEstimator(), 0)
        assert run.rounds[0].action == "select"
        assert run.rounds[0].condition_value is None

    def test_waits_until_condition_then_selects(self):
        run = run_policy(DIAMOND, PolicyConfig("uniform", 1.0, 2),
                         ALL_LIVE_DIAMOND, ExactEstimator(), 0)
        actions = [r.action for r in run.rounds]
        assert actions[0] == "select"
        assert "wait" in actions
        assert actions[-1] == "select"
        assert len(run.schedule) == 2
        # once everything reachable is certain, the share hits 1 exactly
        selecting = [r for r in run.rounds[1:] if r.action == "select"]
        assert selecting[0].condition_value == pytest.approx(1.0, abs=1e-12)

    def test_spends_whole_budget(self):
        for seed in range(10):
            g = generate_graph(7, 12, "erdos-renyi", 40, seed)
            real = sample_full_realization(g, seed)
            run = run_policy(g, PolicyConfig("uniform", 0.5, 4),
                             real, ExactEstimator(), 1)
            assert len(run.schedule) == 4
            assert run.total_cost == 4

    def test_ties_break_to_smallest_id(self):
        # two identical stars; both roots have the same gain
        g = load_graph("0 1 0.5\n0 2 0.5\n3 4 0.5\n3 5 0.5\n")
        real = sample_full_realization(g, 0)
        run = run_policy(g, PolicyConfig("uniform", 0.0, 1), real, ExactEstimator(), 0)
        assert run.schedule.entries[0][0] == 0

    def test_fractional_budget_rejected(self):
        real = sample_full_realization(CHAIN, 0)
        with pytest.raises(ValueError):
            run_policy(CHAIN, PolicyConfig("uniform", 0.5, Fraction(3, 2)),
                       real, ExactEstimator(), 0)

    def test_nonunit_costs_rejected(self):
        g = CHAIN.with_costs((Fraction(2), Fraction(1), Fraction(1)))
        real = sample_full_realization(g, 0)
        with pytest.raises(ValueError):
            run_policy(g, PolicyConfig("uniform", 0.5, 2), real, ExactEstimator(), 0)


class TestNonuniformPolicy:
    def test_picks_ratio_not_raw_gain(self):
        # node 0 has the bigger gain, node 3 the better gain per cost
        g = load_graph("0 1 1\n0 2 1\n3 4 1\n")
        g = g.with_costs(tuple(Fraction(c) for c in (5, 1, 1, 1, 1)))
        real = sample_full_realization(g, 0)
        run = run_policy(g, PolicyConfig("nonuniform", 0.0, Fraction(5)),
                         real, ExactEstimator(), 0)
        assert run.schedule.entries[0][0] == 3

    def test_first_selection_must_be_affordable(self):
        g = load_graph("0 1 1\n0 2 1\n3 4 1\n")
        g = g.with_costs(tuple(Fraction(c) for c in (9, 9, 9, 2, 9)))
        real = sample_full_realization(g, 0)
        run = run_policy(g, PolicyConfig("nonuniform", 0.0, Fraction(2)),
                         real, ExactEstimator(), 0)
        assert [v for v, _ in run.schedule.entries] == [3]

    def test_no_affordable_node_at_all(self):
        g = CHAIN.with_costs((Fraction(5), Fraction(5), Fraction(5)))
        real = sample_full_realization(g, 0)
        with pytest.raises(ValueError):
            run_policy(g, PolicyConfig("nonuniform", 0.0, Fraction(2)),
                       real, ExactEstimator(), 0)

    def test_stops_when_best_ratio_unaffordable(self):
        # after the cheap node, the remaining argmax is too expensive:
        # the run ends rather than substituting a weaker affordable node
        g = load_graph("0 1 1\n0 2 1\n3 4 0.5\n")
        g = g.with_costs(tuple(Fraction(c) for c in (4, 1, 1, 1, 1)))
        real = sample_full_realization(g, 0)
        run = run_policy(g, PolicyConfig("nonuniform", 0.0, Fraction(2)),
                         real, ExactEstimator(), 0)
        chosen = [v for v, _ in run.schedule.entries]
        assert chosen[0] == 3
        assert 0 not in chosen
        assert run.total_cost <= Fraction(2)

    def test_budget_never_exceeded(self):
        rng = random.Random(0)
        for trial in range(60):
            n = rng.randrange(4, 8)
            g = generate_graph(n, min(2 * n, n * (n - 1)), "erdos-renyi", 50, trial)
            costs = tuple(Fraction(rng.randrange(1, 5)) for _ in range(n))
            g = g.with_costs(costs)
            budget = Fraction(rng.randrange(2, 9))
            if min(costs) > budget:
                continue
            real = sample_full_realization(g, trial)
            run = run_policy(g, PolicyConfig("nonuniform", rng.choice([0.0, 0.5, 1.0]),
                                             budget), real, ExactEstimator(), trial)
            assert run.total_cost <= budget


class TestEnhancedPolicy:
    def test_single_arm_seeds_best_node(self):
        # seed 2 lands the single arm (checked below by its transcript)
        real = sample_full_realization(DIAMOND, 7)
        run = run_policy(DIAMOND, PolicyConfig("enhanced", 0.5, Fraction(2)),
                         real, ExactEstimator(), 2)
        assert run.arm == "single"
        v_star, _ = best_single_node(DIAMOND, ExactEstimator())
        assert [v for v, _ in run.schedule.entries] == [v_star]

    def test_greedy_arm_replays_nonuniform_run(self):
        real = sample_full_realization(DIAMOND, 7)
        run = run_policy(DIAMOND, PolicyConfig("enhanced", 0.5, Fraction(2)),
                         real, ExactEstimator(), 1)
        assert run.arm == "greedy"
        direct = run_policy(DIAMOND, PolicyConfig("nonuniform", 0.5, Fraction(2)),
                            real, ExactEstimator(), 1)
        assert transcript_lines(run) == transcript_lines(direct)
        assert run.schedule.entries == direct.schedule.entries

    def test_coin_is_roughly_fair(self):
        real = sample_full_realization(DIAMOND, 0)
        arms = [run_policy(DIAMOND, PolicyConfig("enhanced", 0.0, Fraction(1)),
                           real, ExactEstimator(), s).arm for s in range(200)]
        singles = arms.count("single")
        assert 70 <= singles <= 130

    def test_unaffordable_best_node_rejected(self):
        g = DIAMOND.with_costs(tuple(Fraction(c) for c in (9, 1, 1, 1)))
        real = sample_full_realization(g, 0)
        with pytest.raises(ValueError):
            run_policy(g, PolicyConfig("enhanced", 0.0, Fraction(2)),
                       real, ExactEstimator(), 2)

    def test_unaffordable_best_node_rejected_on_both_arms(self):
        g = DIAMOND.with_costs(tuple(Fraction(c) for c in (9, 1, 1, 1)))
        real = sample_full_realization(g, 0)
        cfg = PolicyConfig("enhanced", 0.0, Fraction(2))
        # the coin depends only on the policy seed, so the affordable
        # diamond shows which arm each seed lands
        arms = {s: run_policy(DIAMOND, cfg, real, ExactEstimator(), s).arm
                for s in range(8)}
        assert set(arms.values()) == {"single", "greedy"}
        messages = set()
        for s in arms:
            with pytest.raises(ValueError, match="best single node 0 is unaffordable") as err:
                run_policy(g, cfg, real, ExactEstimator(), s)
            messages.add(str(err.value))
        assert len(messages) == 1

    def test_greedy_arm_skips_the_best_single_node(self, monkeypatch):
        calls = []

        def counted(graph, estimator):
            calls.append(graph)
            return best_single_node(graph, estimator)

        monkeypatch.setattr(policies, "best_single_node", counted)
        real = sample_full_realization(DIAMOND, 7)
        arms = []
        for s in range(8):
            before = len(calls)
            run = run_policy(DIAMOND, PolicyConfig("enhanced", 0.5, Fraction(2)),
                             real, MonteCarloEstimator(20, 1), s)
            arms.append(run.arm)
            assert len(calls) - before == (run.arm == "single")
        assert set(arms) == {"single", "greedy"}

    def test_best_single_node_tie_breaks_low(self):
        g = load_graph("0 1 1\n2 3 1\n")
        v, value = best_single_node(g, ExactEstimator())
        assert v == 0
        assert value == pytest.approx(2.0, abs=1e-12)


class TestLazyGreedy:
    """On the Monte Carlo backend `_GreedyCore` scans lazily (CELF). Each
    decision equals a full `gains` scan by a fresh core, forced by turning
    the backend's `submodular_gains` off."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_lazy_argmax_equals_a_full_scan(self, data):
        n = data.draw(st.integers(2, 7))
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n))
        probs = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0]),
                                   min_size=len(chosen), max_size=len(chosen)))
        # isolated nodes and p = 1 cycles give tied gains
        g = DirectedGraph.build(n, [(u, v, p) for (u, v), p in zip(chosen, probs)])
        if data.draw(st.booleans()):
            budget = Fraction(data.draw(st.integers(1, n)))
            config = PolicyConfig("uniform", 0.0, budget)
        else:
            g = g.with_costs(tuple(Fraction(c) for c in data.draw(
                st.lists(st.integers(1, 4), min_size=n, max_size=n))))
            budget = Fraction(data.draw(st.integers(min(g.costs), 5)))
            config = PolicyConfig("nonuniform", 0.0, budget)
        world = sample_full_realization(g, data.draw(st.integers(0, 1 << 20)))
        early = SeedSchedule(tuple((v, 0) for v in data.draw(
            st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=2))))
        states = [empty_partial(g)] + [observe(g, world, early, t) for t in (1, 2, n)]
        est = MonteCarloEstimator(data.draw(st.sampled_from([1, 3, 8])),
                                  data.draw(st.integers(0, 99)))
        core = _GreedyCore(g, config, est)

        def full_scan(*args):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(MonteCarloEstimator, "submodular_gains", False)
                return _GreedyCore(g, config, est).decide(*args)

        def choice(log):
            return None if log is None else (log.action, log.node, log.gain)

        seeds, state = [], states[0]
        for _ in range(data.draw(st.integers(1, 12))):
            # several selections share a state; a new state or a seed set
            # that is no superset of the last one must drop the bounds
            move = data.draw(st.sampled_from(["select", "select", "state", "state", "reset"]))
            if move == "state":
                state = data.draw(st.sampled_from(states))
            elif move == "reset":
                seeds = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=3))
            remaining = budget - sum(g.costs[v] for v in seeds)
            complete = len(seeds) == n or config.kind == "uniform" and len(seeds) == budget
            if complete or remaining < 0:
                seeds = []
                remaining = budget
            args = ([(v, 0) for v in seeds], state, 0, remaining, 0)
            lazy, full = core.decide(*args), full_scan(*args)
            assert choice(lazy) == choice(full)
            if lazy is not None:
                seeds.append(lazy.node)

    @pytest.mark.parametrize("n, edges, costs, steps", [
        # 5 drops from bound 3 to 2, tying 0's bound and gain: 0 wins
        (9, [(4, 6), (4, 8), (5, 6), (5, 7), (0, 1)], None, [([], 4), ([4], 0)]),
        # 0 costs 5 > 4, so the first round skips it and leaves no bound;
        # it is then the ratio argmax and unaffordable: stop
        (10, [(0, v) for v in range(1, 8)] + [(8, 9)], (5,) + (1,) * 9,
         [([], 8), ([8], None)]),
        # {4} is no superset of {3}: 0's bound of 1 no longer holds, and 0
        # ties 3 at 3
        (7, [(0, 1), (0, 2), (3, 1), (3, 2), (3, 4), (5, 6)], None,
         [([], 3), ([3], 5), ([4], 0)]),
    ], ids=["tie-after-drop", "no-bound-after-filter", "not-a-superset"])
    def test_lazy_scan_keeps_the_full_scan_choice(self, n, edges, costs, steps):
        g = DirectedGraph.build(n, [(u, v, 1.0) for u, v in edges])
        if costs is not None:
            g = g.with_costs(tuple(Fraction(c) for c in costs))
        budget = Fraction(4 if costs else 3)
        config = PolicyConfig("nonuniform" if costs else "uniform", 0.0, budget)
        core = _GreedyCore(g, config, MonteCarloEstimator(1, 0))
        for seeds, node in steps:
            remaining = budget - sum(g.costs[v] for v in seeds)
            log = core.decide([(v, 0) for v in seeds], empty_partial(g), 0, remaining, 0)
            assert (None if log is None else (log.action, log.node)) == (
                None if node is None else ("select", node))

    def test_bounds_stay_with_their_observation_state(self):
        # Before 4's edges are observed, no completion draws them (p =
        # 1e-9) and 4 gains 1; once both are seen live it gains 3, above
        # every bound of the first round.
        g = DirectedGraph.build(8, [(0, 3, 1.0), (1, 6, 1.0), (4, 5, 1e-9), (4, 7, 1e-9)])
        seen = PartialRealization(bytes([EdgeState.UNOBSERVED] * 2 + [EdgeState.LIVE] * 2))
        core = _GreedyCore(g, PolicyConfig("uniform", 0.0, 3), MonteCarloEstimator(4, 0))
        assert core.decide([], empty_partial(g), 0, Fraction(3), 0).node == 0
        assert core.decide([(0, 0)], seen, 1, Fraction(2), 1).node == 4


class TestStallGuard:
    def test_corrupted_estimator_still_terminates(self):
        real = sample_full_realization(DIAMOND, 5)
        bad = EpsilonEstimator(ExactEstimator(), 0.9, "adversarial-low", 0)
        run = run_policy(DIAMOND, PolicyConfig("uniform", 1.0, 2), real, bad, 0)
        assert len(run.schedule) == 2
        assert run.slots_elapsed <= 3 * DIAMOND.node_count

    def test_exact_backend_never_needs_the_guard(self):
        for seed in range(20):
            g = generate_graph(6, 9, "erdos-renyi", 50, seed)
            real = sample_full_realization(g, seed)
            run = run_policy(g, PolicyConfig("uniform", 1.0, 2),
                             real, ExactEstimator(), 0)
            waits = [r for r in run.rounds if r.action == "wait"]
            # settled one slot past the deepest live layer, far below the guard
            assert len(waits) <= 2 * g.node_count


def draw_small_graph(data):
    """A graph of 2 to 7 nodes and at most 10 edges, p in {0, 0.3, 0.5, 1},
    with unit costs."""
    n = data.draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10))
    probs = data.draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 1.0]),
                               min_size=len(chosen), max_size=len(chosen)))
    return DirectedGraph.build(n, [(u, v, p) for (u, v), p in zip(chosen, probs)])


def draw_twin_case(data):
    """A `draw_small_graph` graph, a policy config, a world and a policy
    seed for the slow twins. Most draws place two or more seeds: a uniform
    budget is mostly 2 or more, and most non-uniform budgets afford any
    two nodes. The single arm, a uniform budget of 1, early stops and
    refusals stay reachable."""
    g = draw_small_graph(data)
    n = g.node_count
    kind = data.draw(st.sampled_from(["nonuniform", "uniform"] * 3 + ["enhanced"]))
    # one budget in eight is free; the others start at two seeds' worth
    free = data.draw(st.sampled_from([False] * 7 + [True]))
    if kind == "uniform":
        budget = Fraction(data.draw(st.integers(1 if free else 2, n)))
    else:
        halves = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
        g = g.with_costs(tuple(Fraction(c, 2) for c in halves))
        low = 1 if free else sum(sorted(halves)[-2:])
        budget = Fraction(data.draw(st.integers(low, max(16, low + 8))), 2)
    # at alpha 1 a settled exact condition equals alpha exactly
    alpha = data.draw(st.sampled_from([0.0, 0.3, 0.8, 1.0, 1.0]))
    world = sample_full_realization(g, data.draw(st.integers(0, 1 << 20)))
    return g, PolicyConfig(kind, alpha, budget), world, data.draw(st.integers(0, 99))


def assert_twins_agree(g, config, run_package, run_naive):
    """The same transcript, schedule, cascade and arm, or the same refusal
    to start; the seeds placed, and a run at alpha > 0 that ends because
    no unseeded node fits its budget, are hypothesis events in a
    hypothesis test."""
    record = event if currently_in_test_context() else lambda _: None
    try:
        run = run_package()
    except ValueError:
        record("refused")
        with pytest.raises(ValueError):
            run_naive()
        return
    record("one seed" if len(run.schedule) == 1 else "two or more seeds")
    left = config.budget - run.total_cost
    if config.alpha > 0 and run.arm != "single" and all(
            c > left for v, c in enumerate(g.costs) if v not in run.schedule.nodes):
        record("alpha > 0, ends on its budget")
    lines, entries, cascade, arm = run_naive()
    assert transcript_lines(run) == lines
    assert list(run.schedule.entries) == entries
    assert (run.realized_cascade, run.arm) == (cascade, arm)


class TestSlowTwin:
    """`run_policy` against `bruteforce.naive_policy_run`, which shares no
    code with the greedy loop or the estimators' fast paths."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_run_matches_the_naive_loop(self, data):
        g, config, world, rng_seed = draw_twin_case(data)
        epsilon = data.draw(st.sampled_from([0.0, 0.0, 0.5, 0.9]))
        est = ExactEstimator()
        if epsilon:
            est = EpsilonEstimator(est, epsilon, "adversarial-low", 0)
        assert_twins_agree(g, config, lambda: run_policy(g, config, world, est, rng_seed),
                           lambda: naive_policy_run(g, config, world, rng_seed, epsilon))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_monte_carlo_run_matches_the_naive_loop(self, data):
        # the coin snapshot, fresh and derived stacked views, the kept zero
        # sets, CELF bounds and the values as count totals divided once all
        # compose in one run here
        g, config, world, rng_seed = draw_twin_case(data)
        samples, base = data.draw(st.integers(1, 12)), data.draw(st.integers(0, 99))
        epsilon = data.draw(st.sampled_from([0.0, 0.0, 0.5, 0.9]))
        est = MonteCarloEstimator(samples, base)
        if epsilon:
            est = EpsilonEstimator(est, epsilon, "adversarial-low", 0)
        assert_twins_agree(g, config, lambda: run_policy(g, config, world, est, rng_seed),
                           lambda: naive_policy_run(g, config, world, rng_seed, epsilon,
                                                    samples, base))

    def test_bounds_do_not_cross_an_observation(self):
        # In the one completion edge 1->2 draws live, so 2 gains 0 with 1
        # seeded; the wait then sees the edge blocked and 2 gains 1 again.
        # A CELF bound kept across the observation would pick 3 instead.
        g = DirectedGraph.build(5, [(0, 3, 0.3), (1, 2, 0.5)])
        config = PolicyConfig("uniform", 0.8, Fraction(3))
        world = FullRealization((False, False))
        assert_twins_agree(
            g, config, lambda: run_policy(g, config, world, MonteCarloEstimator(1, 16), 90),
            lambda: naive_policy_run(g, config, world, 90, 0.0, 1, 16))


class TestOneLoop:
    """Every kind runs one greedy loop, which ends once no unseeded node
    fits the remaining budget: uniform cost is its unit-cost case."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_uniform_is_nonuniform_at_unit_costs(self, data):
        g = draw_small_graph(data)
        budget = Fraction(data.draw(st.integers(1, g.node_count)))
        alpha = data.draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
        world = sample_full_realization(g, data.draw(st.integers(0, 1 << 20)))
        est = data.draw(st.sampled_from([ExactEstimator(), MonteCarloEstimator(1, 0),
                                         MonteCarloEstimator(8, 3)]))
        rng_seed = data.draw(st.integers(0, 99))
        uniform, nonuniform = (run_policy(g, PolicyConfig(kind, alpha, budget),
                                          world, est, rng_seed)
                               for kind in ("uniform", "nonuniform"))
        assert transcript_lines(uniform) == transcript_lines(nonuniform)
        assert (uniform.schedule, uniform.slots_elapsed, uniform.realized_cascade) == (
            nonuniform.schedule, nonuniform.slots_elapsed, nonuniform.realized_cascade)

    def test_a_spent_budget_ends_the_run_without_waiting(self):
        # after node 0 the budget left is 1, and every other node costs 2
        g = load_graph("0 1 0.5\n1 2 0.5\n2 3 0.5\n").with_costs(
            tuple(map(Fraction, (1, 2, 2, 2))))
        run = run_policy(g, PolicyConfig("nonuniform", 1.0, Fraction(2)),
                         FullRealization((True,) * 3), ExactEstimator(), 0)
        assert transcript_lines(run) == ["r=0 slot=0 action=select:0,1.875,1 cond=na |O|=4"]
        assert run.slots_elapsed == 0


class TestTranscripts:
    def test_deterministic_per_seed(self):
        real = sample_full_realization(DIAMOND, 2)
        est = MonteCarloEstimator(200, 0)
        a = run_policy(DIAMOND, PolicyConfig("uniform", 0.5, 2), real, est, 13)
        b = run_policy(DIAMOND, PolicyConfig("uniform", 0.5, 2), real, est, 13)
        assert transcript_lines(a) == transcript_lines(b)

    def test_line_shape(self):
        run = run_policy(DIAMOND, PolicyConfig("uniform", 1.0, 2),
                         ALL_LIVE_DIAMOND, ExactEstimator(), 0)
        lines = transcript_lines(run)
        assert lines[0].startswith("r=0 slot=0 action=select:")
        assert all(" cond=" in ln and " |O|=" in ln for ln in lines)


class TestDispatch:
    def test_run_policy_routes_each_kind(self):
        real = sample_full_realization(DIAMOND, 1)
        for kind in ("uniform", "nonuniform", "enhanced"):
            cfg = PolicyConfig(kind, 0.0, Fraction(2))
            run = run_policy(DIAMOND, cfg, real, ExactEstimator(), 4)
            assert len(run.schedule) >= 1

    @pytest.mark.parametrize("kind, budget, costs, field", [
        ("uniform", 5, None, "budget"),
        ("uniform", Fraction(3, 2), None, "budget"),
        ("uniform", 2, (2, 1, 1, 1), "costs"),
        ("nonuniform", Fraction(1, 3), None, "budget"),
        ("enhanced", Fraction(1, 2), None, "budget"),
    ], ids=["above-node-count", "fractional", "nonunit-cost", "nonuniform", "enhanced"])
    def test_every_entry_point_refuses_a_budget_alike(self, kind, budget, costs, field):
        g = DIAMOND if costs is None else DIAMOND.with_costs(tuple(map(Fraction, costs)))
        config = PolicyConfig(kind, 0.5, Fraction(budget))
        real = sample_full_realization(g, 0)
        # policy seeds 1 and 2 land the enhanced greedy and single arms
        calls = [lambda: check_budget(g, config), lambda: evaluate_policy_exact(g, config)]
        calls += [lambda s=s: run_policy(g, config, real, ExactEstimator(), s) for s in (1, 2)]
        refusals = set()
        for call in calls:
            with pytest.raises(BudgetError) as err:
                call()
            refusals.add((err.value.field, str(err.value)))
            # a refusal in a worker process reaches the parent pickled
            copy = pickle.loads(pickle.dumps(err.value))
            assert (type(copy), copy.field, str(copy)) == (
                BudgetError, err.value.field, str(err.value))
        assert [blamed for blamed, _ in refusals] == [field]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PolicyConfig("simulated-annealing", 0.5, Fraction(1))

    @pytest.mark.parametrize("alpha, budget", [(1.5, 1), (-0.1, 1), (0.5, 0)])
    def test_config_is_the_range_check(self, alpha, budget):
        # the policy loop trusts these, so the config must reject them
        with pytest.raises(ValueError):
            PolicyConfig("enhanced", alpha, Fraction(budget))
