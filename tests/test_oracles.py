from fractions import Fraction

import pytest

from pfim import oracles
from pfim.diffusion import sample_full_realization
from pfim.estimation import ExactEstimator, InstanceTooLarge, MonteCarloEstimator
from pfim.graph import generate_graph, load_graph
from pfim.oracles import (evaluate_policy_exact, evaluate_policy_sampled,
                          optimal_full_feedback_adaptive, optimal_nonadaptive)
from pfim.policies import PolicyConfig, run_policy

from bruteforce import best_seed_set_exhaustive, policy_value_by_enumeration

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


def literal_value(g, cfg):
    """The policy run with the exact backend on every world, weighted."""
    return policy_value_by_enumeration(g, lambda real: run_policy(
        g, cfg, real, ExactEstimator(), 0).realized_cascade)


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


class TestNonadaptiveOptimum:
    def test_matches_exhaustive_search(self):
        for g in tiny_instances(5, 700, max_edges=7):
            best_set, best_value = optimal_nonadaptive(g, Fraction(2))
            want_set, want_value = best_seed_set_exhaustive(g, Fraction(2))
            assert best_value == pytest.approx(want_value, abs=1e-9)
            assert best_set == want_set

    def test_respects_costs(self):
        g = DIAMOND.with_costs(tuple(Fraction(c) for c in (10, 1, 1, 1)))
        best_set, _ = optimal_nonadaptive(g, Fraction(3))
        assert 0 not in best_set

    def test_single_node_budget(self):
        best_set, value = optimal_nonadaptive(DIAMOND, Fraction(1))
        assert best_set == {0}
        assert value == pytest.approx(2.4375, abs=1e-12)


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

    def test_guard(self):
        g = generate_graph(10, 20, "erdos-renyi", 50, 1)
        with pytest.raises(InstanceTooLarge):
            optimal_full_feedback_adaptive(g, Fraction(2))

    def test_requires_unit_costs(self):
        g = DIAMOND.with_costs(tuple(Fraction(c) for c in (2, 1, 1, 1)))
        with pytest.raises(ValueError):
            optimal_full_feedback_adaptive(g, Fraction(2))
