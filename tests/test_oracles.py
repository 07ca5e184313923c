import concurrent.futures
import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pfim import oracles
from pfim.diffusion import EdgeState, PartialRealization, sample_full_realization
from pfim.estimation import (ExactEstimator, InstanceTooLarge, MonteCarloEstimator,
                             exact_conditional_activation)
from pfim.graph import DirectedGraph, generate_graph, load_graph
from pfim.oracles import (evaluate_policy_exact, evaluate_policy_sampled,
                          optimal_full_feedback_adaptive)
from pfim.policies import PolicyConfig, best_single_node, run_policy

from bruteforce import (bfs_cascade, best_seed_set_exhaustive, full_feedback_optimum,
                        naive_activation_probability, policy_value_by_enumeration)
from test_acceptance import INSTANCES as ACCEPTANCE_INSTANCES

DIAMOND = load_graph("0 1 0.5\n0 2 0.5\n1 3 0.5\n2 3 0.5\n")


def tiny_instances(count, base_seed, max_edges=8):
    made = 0
    seed = base_seed
    while made < count:
        seed += 1
        n = 4 + seed % 3
        m = min(2 * n - 2, max_edges, n * (n - 1))
        g = generate_graph(n, m, "erdos-renyi", 45, seed)
        if g.edge_count == 0:
            continue
        made += 1
        yield g


# probabilities whose float products and sums round: products of 0.1 and
# 0.9 need more than 53 bits, 1e-300 underflows once squared, and
# 1 - 2**-53 leaves 2**-53 blocked
AWKWARD = (0.1, 1e-300, 1.0 - 2.0 ** -53, 0.0, 1.0, 0.5, 0.7)


@st.composite
def tiny_graphs(draw, probabilities=(0.5, 0.2, 0.7, 0.0, 1.0)):
    """A graph of 2 to 5 nodes and n - 1 to 7 edges, each with one of the
    probabilities: by default 0, 0.2, 0.5, 0.7 or 1."""
    n = draw(st.integers(2, 5))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=n - 1, max_size=7))
    probs = draw(st.lists(st.sampled_from(probabilities),
                          min_size=len(chosen), max_size=len(chosen)))
    return DirectedGraph.build(n, [(u, v, p) for (u, v), p in zip(chosen, probs)])


@st.composite
def observation_states(draw, graph):
    """An observation state of the graph: the outcomes of a drawn subset of
    the edges in a world of positive probability."""
    worlds = oracles._enumerate_worlds(graph)
    live = draw(st.sampled_from(worlds))[0].live
    shown = draw(st.lists(st.booleans(), min_size=len(live), max_size=len(live)))
    return PartialRealization(bytes(int(b) if s else EdgeState.UNOBSERVED
                                    for b, s in zip(live, shown)))


@st.composite
def tiny_policy_cases(draw, probabilities=(0.5, 0.2, 0.7, 0.0, 1.0)):
    """A tiny graph with a policy config of any kind and alpha 0, 0.5 or 1.
    Non-uniform and enhanced graphs get costs 1 to 3; an enhanced budget
    covers every cost, so its best single node is affordable."""
    g = draw(tiny_graphs(probabilities))
    n = g.node_count
    kind = draw(st.sampled_from(["uniform", "nonuniform", "enhanced"]))
    alpha = draw(st.sampled_from([0.0, 0.5, 1.0]))
    if kind == "uniform":
        return g, PolicyConfig(kind, alpha, Fraction(draw(st.integers(1, n))))
    costs = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    low = max(costs) if kind == "enhanced" else min(costs)
    budget = Fraction(draw(st.integers(low, low + 3)))
    return g.with_costs(tuple(Fraction(c) for c in costs)), PolicyConfig(kind, alpha, budget)


def literal_value(g, cfg, exact=False):
    """The policy run with the exact backend on every world, weighted: a
    float, or a Fraction when `exact`. The enhanced value is half the best
    single node's expected BFS cascade plus half the greedy arm's. The
    best single node is the policy's: the largest value as a float,
    smallest id on ties, so two nodes whose Fractions differ below an ulp
    tie as they do for the exact backend."""
    estimator = ExactEstimator()
    greedy = replace(cfg, kind="nonuniform") if cfg.kind == "enhanced" else cfg
    value = policy_value_by_enumeration(g, lambda real: run_policy(
        g, greedy, real, estimator, 0).realized_cascade, exact)
    if cfg.kind != "enhanced":
        return value
    # max keeps the first of equal keys
    single = max((policy_value_by_enumeration(g, lambda real: bfs_cascade(g, real.live, [v]),
                                              exact)
                  for v in range(g.node_count)), key=float)
    return (single + value) / 2


class TestExactPolicyEvaluation:
    def test_matches_literal_enumeration_uniform(self):
        for alpha in (0.0, 0.5, 1.0):
            for g in tiny_instances(4, int(alpha * 100)):
                cfg = PolicyConfig("uniform", alpha, Fraction(2))
                assert evaluate_policy_exact(g, cfg).value == pytest.approx(
                    literal_value(g, cfg), abs=1e-9), (alpha, g.edges)

    def test_matches_literal_enumeration_nonuniform(self):
        for g in tiny_instances(4, 300):
            costs = tuple(Fraction(1 + (v % 2)) for v in range(g.node_count))
            g = g.with_costs(costs)
            cfg = PolicyConfig("nonuniform", 0.5, Fraction(3))
            assert evaluate_policy_exact(g, cfg).value == pytest.approx(
                literal_value(g, cfg), abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(tiny_policy_cases())
    def test_matches_literal_enumeration(self, case):
        g, cfg = case
        assert evaluate_policy_exact(g, cfg).value == pytest.approx(
            literal_value(g, cfg), abs=1e-9)

    def test_referee_values_keep_their_bytes(self):
        # pins the values to the bit, which approx comparisons cannot see
        reprs = []
        for g, b in ACCEPTANCE_INSTANCES:
            budget = Fraction(b)
            for cfg in (PolicyConfig("uniform", 1.0, budget),
                        PolicyConfig("nonuniform", 0.5, budget),
                        PolicyConfig("enhanced", 0.0, budget)):
                reprs.append(repr(evaluate_policy_exact(g, cfg).value))
        assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == (
            "6978879be87d12e1d331fdeb4dbb7ca9f1b53b3355da35c09faa947c0a0e1115")

    def test_unaffordable_best_single_node(self):
        g = DIAMOND.with_costs(tuple(Fraction(c) for c in (9, 1, 1, 1)))
        cfg = PolicyConfig("enhanced", 0.0, Fraction(2))
        with pytest.raises(ValueError) as live:
            run_policy(g, cfg, sample_full_realization(g, 0), ExactEstimator(), 2)
        with pytest.raises(ValueError, match=r"best single node 0 is unaffordable "
                                             r"\(cost 9 exceeds budget 2\)") as exact:
            evaluate_policy_exact(g, cfg)
        assert str(exact.value) == str(live.value)

    def test_enhanced_averages_both_arms(self):
        cfg = PolicyConfig("enhanced", 0.5, Fraction(2))
        got = evaluate_policy_exact(DIAMOND, cfg).value
        single = 2.4375  # best single node is 0
        greedy = evaluate_policy_exact(
            DIAMOND, PolicyConfig("nonuniform", 0.5, Fraction(2))).value
        assert got == pytest.approx(0.5 * (single + greedy), abs=1e-12)

    def test_realization_count_skips_impossible_worlds(self):
        g = load_graph("0 1 1\n1 2 0.5\n")
        result = evaluate_policy_exact(g, PolicyConfig("uniform", 0.0, Fraction(1)))
        assert result.realization_count == 2

    def test_realization_count_keeps_worlds_of_underflowing_weight(self):
        # both edges live weighs 1e-400, below the smallest float, and
        # still counts: only an impossible world is dropped
        g = load_graph("0 1 1e-200\n1 2 1e-200\n")
        result = evaluate_policy_exact(g, PolicyConfig("uniform", 0.0, Fraction(1)))
        assert result.realization_count == len(oracles._enumerate_worlds(g)) == 4
        assert result.value == 1.0

    @settings(max_examples=150, deadline=None)
    @given(tiny_policy_cases(AWKWARD), st.data())
    def test_exact_values_are_correctly_rounded(self, case, data):
        """Per-node values, the activation, the policy value and the
        optimum each equal the float nearest their Fraction value."""
        g, cfg = case
        partial = data.draw(observation_states(g))
        seeds = data.draw(st.sets(st.integers(0, g.node_count - 1)))
        want = naive_activation_probability(g, seeds, partial, exact=True)
        assert exact_conditional_activation(g, seeds, partial) == [
            float(want[v]) for v in range(g.node_count)]
        assert ExactEstimator().activation(g, seeds, partial).expected_cascade == float(
            sum(want.values()))
        assert evaluate_policy_exact(g, cfg).value == float(literal_value(g, cfg, exact=True))
        picks = data.draw(st.integers(1, min(3, g.node_count)))
        unit = g.with_costs([1] * g.node_count)
        assert optimal_full_feedback_adaptive(unit, Fraction(picks)) == float(
            full_feedback_optimum(unit, picks, exact=True))

    def test_enhanced_star_ties_as_floats(self):
        # nodes 0 and 1 both read 2.461 but differ as Fractions; the policy
        # seeds node 0, so the value is 3.2304999999999997, not 3.2305
        nearly = 0.9999999999999999
        g = load_graph(f"0 2 0.1\n1 2 0.1\n1 3 0.1\n2 3 {nearly!r}\n0 1 {nearly!r}\n"
                       "2 0 0.1\n1 0 1.0\n")
        cfg = PolicyConfig("enhanced", 0.0, Fraction(3))
        assert evaluate_policy_exact(g, cfg).value == float(
            literal_value(g, cfg, exact=True)) == 3.2304999999999997

    def test_selection_hook_sees_every_branch(self):
        calls = []

        def hook(seeds, partial):
            calls.append((tuple(seeds), partial.codes))

        cfg = PolicyConfig("uniform", 1.0, Fraction(2))
        evaluate_policy_exact(DIAMOND, cfg, selection_hook=hook)
        assert calls
        # first selection always happens with nothing observed
        first = [c for c in calls if not c[0]]
        assert all(set(codes) == {2} for _, codes in first)

    def test_guard_on_wide_graphs(self):
        g = generate_graph(12, 40, "erdos-renyi", 50, 3)
        with pytest.raises(InstanceTooLarge):
            evaluate_policy_exact(g, PolicyConfig("uniform", 0.5, Fraction(2)))


class TestSampledEvaluation:
    def test_mean_tracks_exact_value(self):
        cfg = PolicyConfig("uniform", 0.5, Fraction(2))
        exact = evaluate_policy_exact(DIAMOND, cfg).value
        sampled = evaluate_policy_sampled(DIAMOND, cfg, 4000, 0, ExactEstimator())
        assert abs(sampled.mean_spread - exact) <= 3 * sampled.std_error + 1e-9

    def test_deterministic_per_seed(self):
        cfg = PolicyConfig("enhanced", 0.5, Fraction(2))
        est = MonteCarloEstimator(100, 0)
        a = evaluate_policy_sampled(DIAMOND, cfg, 60, 5, est)
        b = evaluate_policy_sampled(DIAMOND, cfg, 60, 5, est)
        assert a == b

    def test_thread_count_does_not_change_results(self):
        cfg = PolicyConfig("uniform", 0.5, Fraction(2))
        a = evaluate_policy_sampled(DIAMOND, cfg, 40, 3, ExactEstimator(), threads=1)
        b = evaluate_policy_sampled(DIAMOND, cfg, 40, 3, ExactEstimator(), threads=2)
        assert a == b

    def test_pool_gets_no_more_workers_than_worlds(self, monkeypatch):
        # a fork-started pool starts all its workers at once: record the
        # size asked for and map in this process, starting none
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize):
                return map(fn, jobs)

        cfg = PolicyConfig("uniform", 0.5, Fraction(2))
        serial = evaluate_policy_sampled(DIAMOND, cfg, 3, 5, MonteCarloEstimator(20, 1))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        pooled = evaluate_policy_sampled(DIAMOND, cfg, 3, 5, MonteCarloEstimator(20, 1),
                                         threads=64)
        assert sizes == [3]
        assert pooled == serial

    def test_single_sample_has_zero_stderr(self):
        cfg = PolicyConfig("uniform", 0.0, Fraction(1))
        result = evaluate_policy_sampled(DIAMOND, cfg, 1, 0, ExactEstimator())
        assert result.std_error == 0.0
        assert result.sample_count == 1

    def test_slot_and_seed_means(self):
        cfg = PolicyConfig("uniform", 0.0, Fraction(2))
        result = evaluate_policy_sampled(DIAMOND, cfg, 30, 0, ExactEstimator())
        assert result.mean_slots == 0.0
        assert result.mean_seeds == 2.0

    def test_neighbouring_base_seeds_share_no_worlds(self, monkeypatch):
        g = generate_graph(200, 800, "erdos-renyi", 40, 2024)
        drawn = []

        def recording(graph, seed):
            realization = sample_full_realization(graph, seed)
            drawn.append(realization.live)
            return realization

        monkeypatch.setattr(oracles, "sample_full_realization", recording)
        cfg = PolicyConfig("uniform", 0.0, Fraction(1))
        worlds = {}
        for base in (11, 12):
            drawn.clear()
            evaluate_policy_sampled(g, cfg, 10, base, MonteCarloEstimator(1, 0))
            worlds[base] = set(drawn)
        assert len(worlds[11]) == len(worlds[12]) == 10
        assert not worlds[11] & worlds[12]

    def test_world_zero_comes_back_whole(self):
        cfg = PolicyConfig("uniform", 0.5, Fraction(2))
        realization, policy_seed = oracles.sampled_world(DIAMOND, 3, 0)
        want = run_policy(DIAMOND, cfg, realization, MonteCarloEstimator(20, 1), policy_seed)
        for threads in (1, 2):
            got = evaluate_policy_sampled(DIAMOND, cfg, 6, 3, MonteCarloEstimator(20, 1),
                                          threads=threads)
            assert got.world_zero == want

    def test_tracks_exact_value_on_acceptance_instances(self):
        # 60 cells at one seed; |z| <= 4 holds family-wise over them
        worst = 0.0
        for g, b in ACCEPTANCE_INSTANCES:
            budget = Fraction(b)
            for cfg in (PolicyConfig("uniform", 1.0, budget),
                        PolicyConfig("nonuniform", 0.5, budget),
                        PolicyConfig("enhanced", 0.0, budget)):
                exact = evaluate_policy_exact(g, cfg).value
                sampled = evaluate_policy_sampled(g, cfg, 200, 7, ExactEstimator())
                gap = abs(sampled.mean_spread - exact)
                if sampled.std_error == 0.0:
                    # every world gave one size; a world off it has
                    # probability at least gap / n and went unseen 200 times
                    assert (1.0 - gap / g.node_count) ** 200 >= 1e-4, (g.edges, cfg)
                else:
                    worst = max(worst, gap / sampled.std_error)
        assert worst <= 4.0


class TestWorldTable:
    def test_never_answers_for_another_graph(self):
        a, b = ACCEPTANCE_INSTANCES[0]
        budget = Fraction(b)
        other = a.with_probabilities([round(1.0 - e.probability, 3) for e in a.edges])
        twin = a.with_probabilities([e.probability for e in a.edges])
        assert twin == a and twin is not a
        cfg = PolicyConfig("uniform", 1.0, budget)
        calls = (lambda g: evaluate_policy_exact(g, cfg).value,
                 lambda g: optimal_full_feedback_adaptive(g, budget))
        graphs = (a, other, twin)
        fresh = {}
        for gi, g in enumerate(graphs):
            for ci, call in enumerate(calls):
                oracles._WORLDS.clear()
                fresh[gi, ci] = call(g)
        assert fresh[0, 0] != fresh[1, 0] and fresh[0, 1] != fresh[1, 1]
        # same graph twice in a row (a hit), another shape of probabilities,
        # and an equal graph object after its twin
        for gi, ci in ((0, 0), (0, 1), (1, 0), (2, 1), (2, 0), (0, 1), (1, 1),
                       (1, 0), (0, 0), (2, 0)):
            assert calls[ci](graphs[gi]) == fresh[gi, ci], (gi, ci)


class TestTableEstimator:
    @settings(max_examples=300, deadline=None)
    @given(tiny_graphs(AWKWARD), st.data())
    def test_answers_bit_for_bit_as_exact_estimator(self, g, data):
        """The evaluator's table-backed estimator and the enumerating one
        agree to the bit, so exact evaluation and live exact runs break
        ties alike."""
        partial = data.draw(observation_states(g))
        seeds = data.draw(st.sets(st.integers(0, g.node_count - 1)))
        candidates = [v for v in range(g.node_count) if v not in seeds]
        table, enumerated = oracles._TableEstimator(oracles._enumerate_worlds(g)), ExactEstimator()
        for est in (table, enumerated):
            assert est.activation(g, seeds, partial) == enumerated.activation(g, seeds, partial)
            assert est.cascades_with(g, seeds, partial, candidates) == [
                enumerated.activation(g, seeds | {c}, partial).expected_cascade
                for c in candidates]
        assert table.gains(g, seeds, partial, candidates) == enumerated.gains(
            g, seeds, partial, candidates)
        assert best_single_node(g, table) == best_single_node(g, enumerated)


class TestAdaptiveOptimum:
    def test_two_node_world(self):
        g = load_graph("0 1 0.5\n")
        assert optimal_full_feedback_adaptive(g, Fraction(1)) == \
            pytest.approx(1.5, abs=1e-12)
        assert optimal_full_feedback_adaptive(g, Fraction(2)) == \
            pytest.approx(2.0, abs=1e-12)

    def test_observe_then_repair(self):
        # seed 0; once its edge resolves, a second seed goes wherever
        # activation failed: 0.5 * 3 + 0.5 * 2 = 2.5 with an isolated spare
        g = load_graph("# nodes=3\n0 1 0.5\n")
        assert optimal_full_feedback_adaptive(g, Fraction(2)) == \
            pytest.approx(2.5, abs=1e-12)

    def test_dominates_nonadaptive(self):
        for g in tiny_instances(5, 900, max_edges=7):
            if g.node_count > 6 or g.edge_count > 12:
                continue
            adaptive = optimal_full_feedback_adaptive(g, Fraction(2))
            _, nonadaptive = best_seed_set_exhaustive(g, Fraction(2))
            assert adaptive >= nonadaptive - 1e-9
            assert adaptive <= g.node_count + 1e-9

    @settings(max_examples=200, deadline=None)
    @given(tiny_graphs(), st.integers(1, 3))
    def test_matches_plain_recursion(self, g, budget):
        assert optimal_full_feedback_adaptive(g, Fraction(budget)) == pytest.approx(
            full_feedback_optimum(g, min(budget, g.node_count)), abs=1e-9)

    def test_optimum_values_keep_their_bytes(self):
        # pins the values to the bit, which approx comparisons cannot see
        reprs = [repr(optimal_full_feedback_adaptive(g, Fraction(b)))
                 for g, b in ACCEPTANCE_INSTANCES]
        assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == (
            "51b7340fecaef6a4484d7e6c8abc89327cdeaa38c5e29d9c6d3844e8a890d563")

    def test_guard(self):
        g = generate_graph(10, 20, "erdos-renyi", 50, 1)
        with pytest.raises(InstanceTooLarge):
            optimal_full_feedback_adaptive(g, Fraction(2))

    def test_requires_unit_costs(self):
        g = DIAMOND.with_costs(tuple(Fraction(c) for c in (2, 1, 1, 1)))
        with pytest.raises(ValueError):
            optimal_full_feedback_adaptive(g, Fraction(2))
