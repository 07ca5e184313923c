"""Each check in pfim.checks reports a failure once the package function it
measures gives a wrong answer. The CLI self-check and the acceptance suite
run these same bodies, so a check that always passed would hide in both."""

import math
from dataclasses import replace

import pytest

import pfim.checks as checks
from pfim.diffusion import (EdgeState, FullRealization, PartialRealization,
                            SeedSchedule, empty_partial, sample_full_realization)
from pfim.estimation import exact_conditional_activation
from pfim.graph import generate_graph, load_graph

from bruteforce import greedy_nonadaptive_uniform

DIAMOND = load_graph("0 1 0.5\n0 2 0.5\n1 3 0.5\n2 3 0.5\n")
CHAIN = load_graph("0 1 1\n1 2 1\n2 3 1\n")
# the chain beside a longer live path 4->8: the live diameter, 4, would put
# the horizon a slot late
BESIDE_LONGER = load_graph("0 1 1\n1 2 1\n2 3 1\n4 5 1\n5 6 1\n6 7 1\n7 8 1\n")
# the chain and node 4 without edges: a seed there at slot 2 settles at
# once, so the horizon is a max over seeds, not the last slot plus the
# deepest layer
CHAIN_AND_ISLE = load_graph("# nodes=5\n0 1 1\n1 2 1\n2 3 1\n")


def test_guarantee_ratio_drops_with_a_scaled_policy_value(monkeypatch):
    floor = 1.0 - 1.0 / math.e
    assert checks.guarantee_ratio(DIAMOND, 2) >= floor
    real = checks.evaluate_policy_exact
    monkeypatch.setattr(checks, "evaluate_policy_exact",
                        lambda g, c: replace(real(g, c), value=0.6 * real(g, c).value))
    assert checks.guarantee_ratio(DIAMOND, 2) < floor


def test_alpha_zero_flags_other_seeds_and_late_seeds(monkeypatch):
    greedy = checks.greedy_nonadaptive(DIAMOND, 2)
    world = sample_full_realization(DIAMOND, 1)
    assert checks.alpha_zero_seeds(DIAMOND, 2, world, greedy) == (greedy, True)
    assert not checks.alpha_zero_seeds(DIAMOND, 2, world, greedy[::-1])[1]
    real = checks.run_policy
    monkeypatch.setattr(checks, "run_policy", lambda *a: replace(
        real(*a), schedule=SeedSchedule(tuple((v, 1) for v in greedy))))
    assert checks.alpha_zero_seeds(DIAMOND, 2, world, greedy) == (greedy, False)


def test_cli_greedy_referee_matches_the_bruteforce_greedy():
    for seed in range(10):
        g = generate_graph(5, 8, "erdos-renyi", 45, seed)
        assert checks.greedy_nonadaptive(g, 2) == greedy_nonadaptive_uniform(g, 2)


def test_estimator_agreement_flags_a_shifted_estimate_and_zero_set(monkeypatch):
    g = load_graph("0 1 0.5\n0 2 0.5\n1 3 0.5\n2 3 0.5\n3 4 0\n")  # zero set {4}
    assert checks.estimator_agreement(g, [0], empty_partial(g), 4000, 3) == (0, True)

    class Shifted(checks.MonteCarloEstimator):
        # every hit count 4 sigma above the exact mean, and no zero set
        def _propagate(self, graph, seed_set, partial):
            k = self.samples
            return [round(k * p + 4.0 * math.sqrt(k * p * (1.0 - p)))
                    for p in exact_conditional_activation(graph, seed_set, partial)], frozenset()

    monkeypatch.setattr(checks, "MonteCarloEstimator", Shifted)
    # nodes 1, 2 and 3 are uncertain
    assert checks.estimator_agreement(g, [0], empty_partial(g), 4000, 3) == (3, False)


@pytest.mark.parametrize("graph, entries, edge, code, wrong, slots", [
    (CHAIN, ((0, 0),), 0, EdgeState.UNOBSERVED, range(3, 9), range(6)),
    (CHAIN, ((0, 0),), 0, EdgeState.BLOCKED, range(9), range(6)),
    (CHAIN, ((0, 0),), 2, EdgeState.UNOBSERVED, range(6), range(6)),
    (BESIDE_LONGER, ((0, 0),), 2, EdgeState.UNOBSERVED, (4,), ()),
    (CHAIN_AND_ISLE, ((0, 0), (4, 2)), 2, EdgeState.UNOBSERVED, (4, 5), ()),
], ids=["forgets", "contradicts", "late", "late-beside-a-longer-path", "late-two-seeds"])
def test_observation_violations_flag_a_wrong_observe(monkeypatch, graph, entries, edge,
                                                     code, wrong, slots):
    # every edge live, seed 0 at slot 0 on the chain 0->1->2->3: the edge
    # 2->3 shows at slot 3, and the state settles at slot 4, compared at 7
    world, schedule = FullRealization((True,) * graph.edge_count), SeedSchedule(entries)
    assert checks.observation_violations(graph, world, schedule, slots, 3) == 0
    real = checks.observe

    def wrong_observe(g, realization, sched, t):
        codes = bytearray(real(g, realization, sched, t).codes)
        if t in wrong:
            codes[edge] = code
        return PartialRealization(bytes(codes))

    monkeypatch.setattr(checks, "observe", wrong_observe)
    assert checks.observation_violations(graph, world, schedule, slots, 3) > 0
