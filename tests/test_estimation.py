import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import pfim.estimation as estimation
from pfim.checks import estimator_agreement
from pfim.diffusion import (EdgeState, PartialRealization, SeedSchedule,
                            empty_partial, observe, sample_full_realization)
from pfim.estimation import (ActivationEstimate, EpsilonEstimator, ExactEstimator,
                             InstanceTooLarge, MonteCarloEstimator,
                             exact_conditional_activation, zero_probability_set)
from pfim.graph import DirectedGraph, generate_graph, load_graph
from pfim.policies import best_single_node
from pfim.reach import closure_masks, closure_union, mask_nodes, node_mask, reachable_mask

from bruteforce import coin_stream, mc_coins, naive_activation_probability

CHAIN = load_graph("0 1 0.5\n1 2 0.5\n")
DIAMOND = load_graph("0 1 0.5\n0 2 0.5\n1 3 0.5\n2 3 0.5\n")
EDGELESS = DirectedGraph.build(4, [])
# In the 15 completions of MonteCarloEstimator(15, 60), node 0 reaches
# node 1 in 8 and node 2 reaches nodes 3 and 4 in 8 together: both total
# 23, so their values tie and node 0 wins
TOTALS_TIE = DirectedGraph.build(5, [(0, 1, 0.5), (2, 3, 0.2), (2, 4, 0.5)])


def observed_instance(seed):
    """Random small graph plus a partial state actually produced by observe."""
    rng = random.Random(seed)
    n = rng.randrange(3, 7)
    m = min(rng.randrange(1, 2 * n), n * (n - 1))
    g = generate_graph(n, m, "erdos-renyi", 60, seed)
    realization = sample_full_realization(g, rng.randrange(1 << 30))
    k = rng.randrange(1, min(3, n) + 1)
    nodes = rng.sample(range(n), k)
    schedule = SeedSchedule(tuple((v, i) for i, v in enumerate(nodes)))
    t = (k - 1) + rng.randrange(0, n + 1)
    psi = observe(g, realization, schedule, t)
    return g, sorted(schedule.nodes), psi


@st.composite
def observed_states(draw):
    """Tiny graph (p = 0 and p = 1 edges included) with a partial state
    produced by observe, the seeds behind it, and a completion seed."""
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10))
    probs = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
                          min_size=len(chosen), max_size=len(chosen)))
    g = DirectedGraph.build(n, [(u, v, p) for (u, v), p in zip(chosen, probs)])
    realization = sample_full_realization(g, draw(st.integers(0, 1 << 30)))
    nodes = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1,
                          max_size=3))
    schedule = SeedSchedule(tuple((v, i) for i, v in enumerate(nodes)))
    psi = observe(g, realization, schedule, len(nodes) - 1 + draw(st.integers(0, n)))
    return g, sorted(nodes), psi, draw(st.integers(0, 1 << 30))


@st.composite
def coded_states(draw):
    """Tiny graph (p = 0 and p = 1 edges included) with arbitrary edge
    codes, observed-live and observed-blocked among them, a random seed
    set, a sample count and a completion seed."""
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14))
    probs = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
                          min_size=len(chosen), max_size=len(chosen)))
    g = DirectedGraph.build(n, [(u, v, p) for (u, v), p in zip(chosen, probs)])
    codes = draw(st.lists(st.sampled_from(list(EdgeState)),
                          min_size=g.edge_count, max_size=g.edge_count))
    seeds = frozenset(draw(st.lists(st.integers(0, n - 1), max_size=3)))
    return (g, seeds, PartialRealization(bytes(codes)), draw(st.integers(1, 12)),
            draw(st.integers(0, 1 << 30)))


@st.composite
def coded_state_pairs(draw):
    """Tiny graph (p = 0 and p = 1 edges included), two arbitrary coded
    states of it, a sample count and a completion seed."""
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=16))
    probs = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
                          min_size=len(chosen), max_size=len(chosen)))
    g = DirectedGraph.build(n, [(u, v, p) for (u, v), p in zip(chosen, probs)])
    states = [PartialRealization(bytes(draw(st.lists(
        st.sampled_from(list(EdgeState)), min_size=g.edge_count, max_size=g.edge_count))))
        for _ in range(2)]
    return g, *states, draw(st.integers(1, 12)), draw(st.integers(0, 1 << 30))


class TestExactActivation:
    def test_chain_from_empty_state(self):
        probs = exact_conditional_activation(CHAIN, [0], empty_partial(CHAIN))
        assert probs == [1.0, 0.5, 0.25]
        assert math.fsum(probs) == pytest.approx(1.75, abs=1e-12)

    def test_diamond_join_probability(self):
        probs = exact_conditional_activation(DIAMOND, [0], empty_partial(DIAMOND))
        assert probs[3] == pytest.approx(0.4375, abs=1e-12)
        assert math.fsum(probs) == pytest.approx(2.4375, abs=1e-12)

    def test_star_values_are_the_nearest_floats(self):
        # node 1's four float weights (0.1 * 0.9 * 0.9 and so on) sum to
        # 0.10000000000000003; their integer sum divided once gives 0.1
        star = load_graph("0 1 0.1\n0 2 0.1\n0 3 0.1\n")
        assert exact_conditional_activation(star, [0], empty_partial(star)) == [
            1.0, 0.1, 0.1, 0.1]
        assert ExactEstimator().activation(star, [0], empty_partial(star)).expected_cascade \
            == float(1 + 3 * Fraction(0.1))

    def test_conditioning_on_live_edge(self):
        psi = PartialRealization(bytes([1, 2]))  # 0->1 live, 1->2 unknown
        assert exact_conditional_activation(CHAIN, [0], psi) == [1.0, 1.0, 0.5]

    def test_conditioning_on_blocked_edge(self):
        psi = PartialRealization(bytes([0, 2]))
        assert exact_conditional_activation(CHAIN, [0], psi) == [1.0, 0.0, 0.0]
        assert ExactEstimator().activation(CHAIN, [0], psi) == ActivationEstimate(1.0, {1, 2})

    def test_matches_enumeration_reference(self):
        for seed in range(60):
            g, seeds, psi = observed_instance(seed)
            got = exact_conditional_activation(g, seeds, psi)
            want = naive_activation_probability(g, seeds, psi)
            for v in range(g.node_count):
                assert got[v] == pytest.approx(want[v], abs=1e-9), (seed, v)
            assert math.fsum(got) == pytest.approx(
                math.fsum(want.values()), abs=1e-9)

    def test_guard_rejects_wide_instances(self):
        g = generate_graph(12, 40, "erdos-renyi", 50, 3)
        with pytest.raises(InstanceTooLarge):
            exact_conditional_activation(g, [0, 1, 2], empty_partial(g))

    def test_guard_counts_relevant_edges_only(self):
        # 40 edges but all observed: nothing left to enumerate
        g = generate_graph(12, 40, "erdos-renyi", 50, 3)
        realization = sample_full_realization(g, 1)
        codes = bytes(1 if live else 0 for live in realization.live)
        probs = exact_conditional_activation(g, [0], PartialRealization(codes))
        assert math.fsum(probs) == sum(1.0 for p in probs if p == 1.0)


class TestZeroProbabilitySet:
    def test_matches_exact_zeros(self):
        for seed in range(80):
            g, seeds, psi = observed_instance(seed)
            zero = zero_probability_set(g, seeds, psi)
            exact = exact_conditional_activation(g, seeds, psi)
            truly_zero = {v for v, p in enumerate(exact) if p == 0.0}
            assert zero == truly_zero, seed

    def test_zero_probability_edge_blocks(self):
        g = load_graph("0 1 0\n1 2 1\n")
        zero = zero_probability_set(g, [0], empty_partial(g))
        assert zero == {1, 2}

    def test_observed_live_zero_probability_edge_conducts(self):
        # an impossible edge that was nevertheless observed live counts;
        # only unobserved edges get filtered by probability
        g = load_graph("0 1 0.5\n1 2 1\n")
        psi = PartialRealization(bytes([1, 2]))
        assert zero_probability_set(g, [0], psi) == set()


class TestMonteCarlo:
    def test_agrees_with_exact_within_three_sigma(self):
        for seed in range(25):
            g, seeds, psi = observed_instance(seed)
            assert estimator_agreement(g, seeds, psi, 6000, seed)[0] == 0

    def test_zero_set_is_exact_not_sampled(self):
        for seed in range(40):
            g, seeds, psi = observed_instance(seed)
            est = MonteCarloEstimator(50, seed)
            hits, zero = est._propagate(g, frozenset(seeds), psi)
            assert est.activation(g, seeds, psi).zero_set == zero == \
                zero_probability_set(g, seeds, psi)
            assert [hits[v] for v in zero] == [0] * len(zero)

    def test_deterministic_in_seed(self):
        a, b = (MonteCarloEstimator(500, 9)._propagate(DIAMOND, {0}, empty_partial(DIAMOND))
                for _ in range(2))
        assert a == b

    def test_gain_never_negative_via_common_completions(self):
        est = MonteCarloEstimator(400, 17)
        for seed in range(30):
            g, seeds, psi = observed_instance(seed)
            for v in range(g.node_count):
                if v in seeds:
                    continue
                assert est.gains(g, seeds, psi, [v])[0] >= 0.0

    def test_query_order_does_not_change_answers(self):
        g, seeds, psi = observed_instance(4)
        others = [v for v in range(g.node_count) if v not in seeds]
        forward = {v: MonteCarloEstimator(300, 5).gains(g, seeds, psi, [v])[0]
                   for v in others}
        backward = {}
        est = MonteCarloEstimator(300, 5)
        for v in reversed(others):
            backward[v] = est.gains(g, seeds, psi, [v])[0]
        assert forward == backward

    def test_backend_tag(self):
        assert MonteCarloEstimator(128, 0).tag == "mc(128)"

    def test_holds_one_closure_batch(self):
        g = generate_graph(60, 240, "erdos-renyi", 40, 7)
        realization = sample_full_realization(g, 5)
        first = observe(g, realization, SeedSchedule(((3, 0),)), 0)
        second = observe(g, realization, SeedSchedule(((3, 0), (17, 1))), 1)
        assert first.codes != second.codes
        candidates = list(range(20, 40))
        est = MonteCarloEstimator(20, 1)
        est.gains(g, [3], first, candidates)
        est.gains(g, [3, 17], second, candidates)
        assert len(est._batches) == 1
        fresh = MonteCarloEstimator(20, 1)
        assert est.gains(g, [3], first, candidates) == fresh.gains(g, [3], first, candidates)
        assert est.activation(g, [3], first) == fresh.activation(g, [3], first)


class TestGain:
    def test_chain_marginal(self):
        est = ExactEstimator()
        gain = est.gains(CHAIN, [0], empty_partial(CHAIN), [2])[0]
        assert gain == pytest.approx(0.75, abs=1e-12)

    def test_matches_activation_difference(self):
        est = ExactEstimator()
        for seed in range(30):
            g, seeds, psi = observed_instance(seed)
            base = est.activation(g, seeds, psi).expected_cascade
            for v in range(g.node_count):
                if v in seeds:
                    continue
                with_v = est.activation(g, seeds + [v], psi).expected_cascade
                assert est.gains(g, seeds, psi, [v])[0] == pytest.approx(
                    with_v - base, abs=1e-9)


class TestEpsilonWrapper:
    def test_adversarial_high_scales_up(self):
        inner = ExactEstimator()
        wrapped = EpsilonEstimator(inner, 0.2, "adversarial-high", 0)
        base = inner.activation(DIAMOND, [0], empty_partial(DIAMOND))
        high = wrapped.activation(DIAMOND, [0], empty_partial(DIAMOND))
        assert high.expected_cascade == pytest.approx(
            1.2 * base.expected_cascade, rel=1e-12)

    def test_adversarial_low_scales_down(self):
        wrapped = EpsilonEstimator(ExactEstimator(), 0.3, "adversarial-low", 0)
        est = wrapped.activation(DIAMOND, [0], empty_partial(DIAMOND))
        assert est.expected_cascade == pytest.approx(0.7 * 2.4375, rel=1e-12)

    def test_random_mode_stays_inside_band(self):
        wrapped = EpsilonEstimator(ExactEstimator(), 0.25, "random", 3)
        for _ in range(50):
            est = wrapped.activation(DIAMOND, [0], empty_partial(DIAMOND))
            ratio = est.expected_cascade / 2.4375
            assert 0.75 - 1e-12 <= ratio <= 1.25 + 1e-12

    def test_random_mode_deterministic_per_seed(self):
        a = EpsilonEstimator(ExactEstimator(), 0.25, "random", 3)
        b = EpsilonEstimator(ExactEstimator(), 0.25, "random", 3)
        seq_a = [a.activation(DIAMOND, [0], empty_partial(DIAMOND)).expected_cascade
                 for _ in range(10)]
        seq_b = [b.activation(DIAMOND, [0], empty_partial(DIAMOND)).expected_cascade
                 for _ in range(10)]
        assert seq_a == seq_b

    def test_gain_may_go_negative(self):
        wrapped = EpsilonEstimator(ExactEstimator(), 0.9, "random", 11)
        gains = [wrapped.gains(CHAIN, [0], empty_partial(CHAIN), [2])[0]
                 for _ in range(200)]
        assert any(g < 0 for g in gains)
        assert any(g > 0 for g in gains)

    def test_zero_set_untouched(self):
        g = load_graph("0 1 0\n1 2 1\n")
        wrapped = EpsilonEstimator(ExactEstimator(), 0.5, "adversarial-high", 0)
        est = wrapped.activation(g, [0], empty_partial(g))
        assert est.zero_set == {1, 2}

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            EpsilonEstimator(ExactEstimator(), 0.5, "sideways", 0)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            EpsilonEstimator(ExactEstimator(), 1.5, "random", 0)


class TestBatchedQueries:
    """The batched and lazily built query paths return exactly what the
    one-at-a-time queries return."""

    @settings(max_examples=80, deadline=None)
    @given(observed_states())
    def test_mc_gains_equal_single_gains(self, state):
        g, seeds, psi, seed = state
        others = [v for v in range(g.node_count) if v not in seeds]
        batched = MonteCarloEstimator(40, seed).gains(g, seeds, psi, others)
        single = MonteCarloEstimator(40, seed)
        assert batched == [single.gains(g, seeds, psi, [v])[0] for v in others]

        def hits(seed_list):
            # completions reaching each node, summed, from the propagation
            return sum(single._propagate(g, frozenset(seed_list), psi)[0])

        assert batched == [(hits(seeds + [v]) - hits(seeds)) / 40 for v in others]

    @settings(max_examples=80, deadline=None)
    @given(observed_states())
    def test_mc_activation_same_before_and_after_closures(self, state):
        g, seeds, psi, seed = state
        before = MonteCarloEstimator(40, seed).activation(g, seeds, psi)
        est = MonteCarloEstimator(40, seed)
        est.gains(g, seeds, psi, [])
        assert est._batches.lookup(g, psi.codes) is not None
        assert est.activation(g, seeds, psi) == before

    @settings(max_examples=150, deadline=None)
    @given(observed_states())
    def test_mc_propagation_equals_per_completion_bfs(self, state):
        g, seeds, psi, seed = state
        est = MonteCarloEstimator(40, seed)
        nodes = range(g.node_count)

        def counts(seed_list, partial):
            hits = [0] * g.node_count
            for masks in completion_closures(est, g, partial):
                for v in mask_nodes(closure_union(masks, seed_list)):
                    hits[v] += 1
            return hits

        def mean(seed_list, partial):
            # the count total divided once: the correctly rounded sample mean
            return float(Fraction(sum(counts(seed_list, partial)), 40))

        zero = zero_probability_set(g, seeds, psi)
        assert est._propagate(g, frozenset(seeds), psi) == (counts(seeds, psi), zero)
        propagated = est.activation(g, seeds, psi)
        assert propagated == ActivationEstimate(mean(seeds, psi), zero)
        assert est.cascades_with(g, seeds, psi, nodes) == [mean(seeds + [c], psi)
                                                           for c in nodes]
        # the same seeds on the batch that query built
        assert est.activation(g, seeds, psi) == propagated
        empty = empty_partial(g)
        assert est.single_node_values(g) == [mean([v], empty) for v in nodes]

    @settings(max_examples=80, deadline=None)
    @given(observed_states())
    def test_mc_single_node_values_equal_singleton_cascades(self, state):
        g, _, _, seed = state
        empty = empty_partial(g)
        reference = MonteCarloEstimator(40, seed)
        assert MonteCarloEstimator(40, seed).single_node_values(g) == [
            reference.activation(g, {v}, empty).expected_cascade
            for v in range(g.node_count)]

    @settings(max_examples=150, deadline=None)
    @given(observed_states(), st.integers(1, 64))
    @example((EDGELESS, [0], empty_partial(EDGELESS), 0), 7)
    @example((TOTALS_TIE, [0], empty_partial(TOTALS_TIE), 60), 15)
    def test_mc_best_single_node_is_the_first_largest_value(self, state, k):
        g, _, _, seed = state
        values = MonteCarloEstimator(k, seed).single_node_values(g)
        best = values.index(max(values))
        assert best_single_node(g, MonteCarloEstimator(k, seed)) == (best, values[best])

    @settings(max_examples=150, deadline=None)
    @given(coded_states(),
           st.lists(st.tuples(st.sampled_from(["activation", "gains", "cascades_with"]),
                              st.frozensets(st.integers(0, 6), max_size=4)),
                    max_size=8),
           st.frozensets(st.integers(0, 6), max_size=4))
    # the zero set kept for {0} is empty; the one of {1} holds node 0
    @example((CHAIN, frozenset(), empty_partial(CHAIN), 4, 0),
             [("activation", frozenset({0}))], frozenset({1}))
    def test_scanned_state_answers_activation_whatever_came_before(
            self, state, history, last):
        # growing, shrinking, disjoint and empty seed sets on one cached
        # batch leave no trace in the answer: its float and zero set are a
        # fresh estimator's (which propagates), and the zero set is
        # `zero_probability_set`'s
        g, seeds, psi, k, seed = state
        n = g.node_count
        est = MonteCarloEstimator(k, seed)
        est.gains(g, seeds, psi, [])
        for query, nodes in history:
            nodes = frozenset(v for v in nodes if v < n)
            if query == "activation":
                est.activation(g, nodes, psi)
            else:
                getattr(est, query)(g, nodes, psi, [v for v in range(n) if v not in nodes])
        last = frozenset(v for v in last if v < n)
        got = est.activation(g, last, psi)
        assert len(est._batches) == 1
        assert got == MonteCarloEstimator(k, seed).activation(g, last, psi)
        assert got.zero_set == zero_probability_set(g, last, psi)

    @settings(max_examples=80, deadline=None)
    @given(observed_states())
    def test_epsilon_gains_keep_the_factor_stream(self, state):
        g, seeds, psi, seed = state
        others = [v for v in range(g.node_count) if v not in seeds]

        def fresh():
            return EpsilonEstimator(MonteCarloEstimator(20, seed), 0.3, "random", seed)

        single = fresh()
        assert fresh().gains(g, seeds, psi, others) == [
            single.gains(g, seeds, psi, [v])[0] for v in others]


    @settings(max_examples=120, deadline=None)
    @given(coded_states())
    def test_cascades_with_equal_activation_per_candidate(self, state):
        g, seeds, psi, k, seed = state
        candidates = list(range(g.node_count))
        # `activation` never builds closures, so this one propagates
        propagated = MonteCarloEstimator(k, seed)
        want = [propagated.activation(g, seeds | {c}, psi).expected_cascade
                for c in candidates]
        fresh = MonteCarloEstimator(k, seed)
        assert fresh.cascades_with(g, seeds, psi, candidates) == want
        assert fresh._batches.lookup(g, psi.codes) is not None
        assert fresh.cascades_with(g, seeds, psi, candidates) == want
        # a cached batch scanned for another seed set
        est = MonteCarloEstimator(k, seed)
        est.gains(g, seeds ^ {0}, psi, [])
        assert est.cascades_with(g, seeds, psi, candidates) == want
        assert [est.activation(g, seeds | {c}, psi).expected_cascade
                for c in candidates] == want

        exact = ExactEstimator()
        assert ExactEstimator().cascades_with(g, seeds, psi, candidates) == [
            exact.activation(g, seeds | {c}, psi).expected_cascade for c in candidates]

    @settings(max_examples=80, deadline=None)
    @given(coded_states())
    def test_epsilon_gains_equal_per_candidate_activations(self, state):
        # the wrapper's gain, written out as one inner activation per
        # candidate and the factors drawn with-candidate first, then base
        g, seeds, psi, k, seed = state
        candidates = list(range(g.node_count))
        inner = MonteCarloEstimator(k, seed)
        factors = EpsilonEstimator(MonteCarloEstimator(k, seed), 0.3, "random", seed)
        base = inner.activation(g, seeds, psi).expected_cascade
        want = [inner.activation(g, seeds | {c}, psi).expected_cascade * factors._factor()
                - base * factors._factor() for c in candidates]
        wrapped = EpsilonEstimator(MonteCarloEstimator(k, seed), 0.3, "random", seed)
        assert wrapped.gains(g, seeds, psi, candidates) == want


def completion_closures(est, g, partial):
    """Each completion's closure mask of each node, by one BFS per node:
    completion j keeps the observed-live edges and the unobserved edges
    whose coin j in the estimator's snapshot is set."""
    coins = est._snapshot(g)[0]
    closures = []
    for j in range(est.samples):
        adj = [[] for _ in range(g.node_count)]
        for idx, (c, e) in enumerate(zip(partial.codes, g.edges)):
            if c == EdgeState.LIVE or (c == EdgeState.UNOBSERVED and coins[idx] >> j & 1):
                adj[e.source].append(e.target)
        closures.append([reachable_mask(adj, 1 << v) for v in range(g.node_count)])
    return closures


def stacked_view(closures):
    """Bit u*w + j of node v's int set when completion j's closure of v
    holds u, w the completion count rounded up to whole bytes."""
    n, w = len(closures[0]), (len(closures) + 7) // 8 * 8
    return [sum(1 << u * w + j for j, masks in enumerate(closures) for u in mask_nodes(masks[v]))
            for v in range(n)]


def per_completion_gains(closures, seeds, candidates, k):
    """The gain scan written out over the completions one by one."""
    pairs = [(masks, closure_union(masks, seeds)) for masks in closures]
    base = sum(reached.bit_count() for _, reached in pairs)
    return [(sum((reached | masks[c]).bit_count() for masks, reached in pairs) - base) / k
            for c in candidates]


TRIANGLE = load_graph("0 1 0.5\n1 2 0.5\n2 0 0.5\n")


class TestStackedView:
    """`gains` reads the stacked view: one OR and one bit count per
    candidate, equal to the per-completion sum."""

    @settings(max_examples=200, deadline=None)
    @given(coded_state_pairs(), st.sampled_from([1, 2, 21, 22, 64, 70]), st.booleans(),
           st.data())
    # a slot is k rounded up to whole bytes: k = 64 fills its slots, and
    # k = 21, 22 and 70 leave padding bits, which stay clear. Three slots
    # of 72 bits span four 64-bit words
    @example((TRIANGLE, PartialRealization(bytes([2, 2, 2])),
              PartialRealization(bytes([1, 2, 0])), 1, 4), 70, True, None)
    @example((TRIANGLE, PartialRealization(bytes([2, 2, 2])),
              PartialRealization(bytes([2, 0, 2])), 1, 4), 1, False, None)
    def test_gains_equal_the_per_completion_sum(self, pair, k, scan_held, data):
        g, held, psi, _, seed = pair
        n = g.node_count
        if data is None:
            seeds, candidates = frozenset({0}), [2, 1, 0, 2]
        else:
            seeds = data.draw(st.frozensets(st.integers(0, n - 1), max_size=3))
            candidates = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        est = MonteCarloEstimator(k, seed)
        if scan_held:
            est.gains(g, seeds, held, candidates)
        got = est.gains(g, seeds, psi, candidates)
        closures = completion_closures(est, g, psi)
        assert got == per_completion_gains(closures, seeds, candidates, k)
        assert est._batch(g, psi).stacked == stacked_view(closures)
        assert got == MonteCarloEstimator(k, seed).gains(g, seeds, psi, candidates)


LARGER = generate_graph(30, 90, "erdos-renyi", 40, 3)


class TestDerivedBatches:
    """A state scanned after another derives its view from the one the
    estimator holds; the view is a fresh build's, and each completion's
    bits are its closure masks."""

    @settings(max_examples=300, deadline=None)
    @given(coded_state_pairs(), st.sampled_from([1, 21, 22, 64, 70]))
    # edge 0 -> 1 goes from unobserved to blocked: every completion whose
    # coin made it live loses node 1
    @example((CHAIN, PartialRealization(bytes([2, 2])), PartialRealization(bytes([0, 2])),
              8, 0), 8)
    # a seed's observed edges on a 30-node graph with cycles
    @example((LARGER, empty_partial(LARGER),
              observe(LARGER, sample_full_realization(LARGER, 9), SeedSchedule(((4, 0),)), 2),
              8, 5), 70)
    def test_derived_batch_equals_a_fresh_build(self, pair, k):
        g, held, psi, _, seed = pair
        est = MonteCarloEstimator(k, seed)
        assert est._batch(g, held).stacked == stacked_view(completion_closures(est, g, held))
        derived = est._batch(g, psi).stacked
        fresh = MonteCarloEstimator(k, seed)._batch(g, psi).stacked
        assert derived == fresh == stacked_view(completion_closures(est, g, psi))

    def test_a_node_that_meets_no_changed_edge_keeps_its_view(self):
        est = MonteCarloEstimator(20, 3)
        held = est._batch(CHAIN, empty_partial(CHAIN)).stacked
        # edge 0 -> 1 is blocked: it changes exactly the completions whose
        # coin made it live, and only node 0 holds its source
        psi = PartialRealization(bytes([EdgeState.BLOCKED, EdgeState.UNOBSERVED]))
        derived = est._batch(CHAIN, psi).stacked
        coins = est._snapshot(CHAIN)[0][0]
        assert 0 < (coins & (1 << 20) - 1).bit_count() < 20
        assert [derived[v] is held[v] for v in range(3)] == [False, True, True]
        assert derived == MonteCarloEstimator(20, 3)._batch(CHAIN, psi).stacked


def reference_coins(graph, k, seed):
    """The (k + 1)-bit coin masks of `MonteCarloEstimator(k, seed)` from
    one random() per coin (`mc_coins`): bit j for completion j, bit k for
    p > 0."""
    rows = mc_coins(graph, k, seed)
    return [sum(row[idx] << j for j, row in enumerate(rows)) | (e.probability > 0.0) << k
            for idx, e in enumerate(graph.edges)]


# each edge of the 24-edge graph gets one of these in turn, or a uniform float
EDGE_PROBABILITIES = [0.0, 1.0, 2.0 ** -60, 2.0 ** -27, 3 * 2.0 ** -27, 1 - 2.0 ** -53,
                      0.04, 0.4]
SNAPSHOT_GRAPH = generate_graph(8, 24, "erdos-renyi", 40, 5)


class TestSnapshot:
    """`_snapshot` draws a whole completion per `getrandbits` and compares
    by lanes; its coins are bit for bit those of one random() < p each."""

    @pytest.mark.parametrize("k", [1, 7, 8, 31, 32, 33, 63, 64, 65, 130])
    def test_coins_equal_one_random_draw_per_coin(self, k):
        uniform = random.Random(k)
        for seed in range(3):
            g = SNAPSHOT_GRAPH.with_probabilities(
                uniform.random() if idx % 2 else EDGE_PROBABILITIES[idx // 2 % 8]
                for idx in range(SNAPSHOT_GRAPH.edge_count))
            coins, windows = MonteCarloEstimator(k, seed)._snapshot(g)
            assert coins == reference_coins(g, k, seed)
            if k in (64, 65):
                # either side of the window built by multiplication
                w, own = (k + 7) // 8 * 8, (1 << k) - 1
                assert windows == [sum((c & own) << u * w for u in range(g.node_count))
                                   for c in coins]
        assert MonteCarloEstimator(k, 0)._snapshot(EDGELESS) == ([], [])

    @pytest.mark.parametrize("k", [1, 130])
    def test_a_tie_on_the_first_word_compares_the_whole_draw(self, k):
        # edge 0's first coin is the stream's first random(), X / 2^53: at
        # p = X / 2^53 it is blocked, and at (X + 1) / 2^53 and at X / 2^53
        # + 2^-54 (p * 2^53 not an integer, so T rounds up) live. All share
        # its high 27 bits, so all take the tie path. X < 2^52 keeps 2X + 1
        # within a float's 53 bits
        x = int(coin_stream(CHAIN, 5).random() * 2 ** 53)
        assert x < 2 ** 52 and (x + 1) >> 26 == x >> 26
        for p, live in ((x / 2 ** 53, 0), ((x + 1) / 2 ** 53, 1), ((2 * x + 1) / 2 ** 54, 1)):
            g = CHAIN.with_probabilities([p, 0.5])
            coins = MonteCarloEstimator(k, 5)._snapshot(g)[0]
            assert coins == reference_coins(g, k, 5)
            assert coins[0] & 1 == live

    def test_lane_constants_follow_the_graph(self):
        # same edge count, other probabilities: the constants of the
        # graph asked last must never serve the other
        other = LARGER.with_probabilities(1 - e.probability for e in LARGER.edges)
        est = MonteCarloEstimator(20, 4)
        for g in (LARGER, other, LARGER, other):
            assert est._snapshot(g)[0] == reference_coins(g, 20, 4)


def test_closure_masks_equal_a_bfs_per_node():
    # one bit per node, as a world of the exact table: only edge sources
    # are solved, with mask -1. Then k completions as a Monte Carlo view,
    # node u's reach in completion j at bit u*w + j (w is k rounded up to
    # whole bytes), each edge live in a random subset of them, its coin
    # bytes repeated in every slot: every completion must be the BFS over
    # its own edges, and re-solving a random subset of nodes from their
    # own bits, the rest held, must give the same view
    rng, draws = random.Random(5), random.Random(6)
    for _ in range(300):
        n = rng.randrange(1, 9)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        edges = sorted(rng.sample(pairs, rng.randrange(len(pairs) + 1)))
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
        view = [1 << v for v in range(n)]
        closure_masks(view, {u: [(v, -1) for v in adj[u]] for u in range(n) if adj[u]})
        assert view == [reachable_mask(adj, 1 << v) for v in range(n)]
        for k in (1, 3, 9):
            own, w = (1 << k) - 1, (k + 7) // 8 * 8
            live = [draws.getrandbits(k) for _ in edges]
            out = {u: [] for u in range(n)}
            for (u, v), bits in zip(edges, live):
                out[u].append((v, int.from_bytes(bits.to_bytes(w // 8, "little") * n, "little")))
            view = [own << v * w for v in range(n)]
            closure_masks(view, out)
            for j in range(k):
                adj_j = [[] for _ in range(n)]
                for (u, v), bits in zip(edges, live):
                    if bits >> j & 1:
                        adj_j[u].append(v)
                assert [node_mask(u for u in range(n) if reach >> u * w + j & 1)
                        for reach in view] == [reachable_mask(adj_j, 1 << v) for v in range(n)]
            reset = draws.sample(range(n), draws.randrange(n + 1))
            derived = view.copy()
            for v in reset:
                derived[v] = own << v * w
            closure_masks(derived, {v: out[v] for v in reset})
            assert derived == view


def test_epsilon_gain_scan_reads_one_closure_batch(monkeypatch):
    # one view solved for the scanned state, and no propagation for f(S)
    # or for any candidate: each query takes one seed union of the view.
    # In the next round the alpha-gate's query on one more seed walks from
    # that seed alone, and the scan's f(S) then reads the gate's zero set:
    # no walk
    g = generate_graph(60, 240, "erdos-renyi", 40, 7)
    realization = sample_full_realization(g, 5)
    psi = observe(g, realization, SeedSchedule(((3, 0), (17, 0))), 2)
    calls = {"propagate": 0, "views": 0, "unions": 0, "zero sets": 0, "walks": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    # a zero set from scratch is a `zero_probability_set` call; every walk,
    # from scratch or from new seeds, is a `_still_unreached` call
    for counter, name in [("propagate", "_propagate"), ("views", "_solve")]:
        monkeypatch.setattr(MonteCarloEstimator, name,
                            counted(counter, getattr(MonteCarloEstimator, name)))
    for counter, name in [("unions", "closure_union"),
                          ("zero sets", "zero_probability_set"),
                          ("walks", "_still_unreached")]:
        monkeypatch.setattr(estimation, name, counted(counter, getattr(estimation, name)))
    wrapped = EpsilonEstimator(MonteCarloEstimator(10, 1), 0.2, "random", 1)
    candidates = [v for v in range(g.node_count) if v not in (3, 17)]
    assert len(wrapped.gains(g, [3, 17], psi, candidates)) == len(candidates)
    assert calls == {"propagate": 0, "views": 1, "unions": 2, "zero sets": 1, "walks": 1}
    assert len(wrapped.inner._batches) == 1

    seeds = [3, 17, candidates[0]]
    wrapped.activation(g, seeds, psi)
    assert calls == {"propagate": 0, "views": 1, "unions": 3, "zero sets": 1, "walks": 2}
    assert len(wrapped.gains(g, seeds, psi, candidates[1:])) == len(candidates) - 1
    assert calls == {"propagate": 0, "views": 1, "unions": 5, "zero sets": 1, "walks": 2}


def test_gate_zero_set_seeds_the_next_batch(monkeypatch):
    # gate on S (propagation), scan S (a new batch), select v, gate on
    # S + v: the batch starts from the gate's zero set of S, so the second
    # gate walks from v alone and no zero set is walked from scratch
    g = generate_graph(60, 240, "erdos-renyi", 40, 7)
    psi = observe(g, sample_full_realization(g, 5), SeedSchedule(((3, 0), (17, 0))), 2)
    calls = {"zero sets": 0, "walks": 0}
    for counter, name in [("zero sets", "zero_probability_set"),
                          ("walks", "_still_unreached")]:
        def counted(*args, counter=counter, fn=getattr(estimation, name)):
            calls[counter] += 1
            return fn(*args)
        monkeypatch.setattr(estimation, name, counted)
    est = MonteCarloEstimator(10, 1)
    est.activation(g, [3, 17], psi)
    candidates = [v for v in range(g.node_count) if v not in (3, 17)]
    est.gains(g, [3, 17], psi, candidates)
    got = est.activation(g, [3, 17, candidates[0]], psi)
    assert calls == {"zero sets": 0, "walks": 1}
    assert got == MonteCarloEstimator(10, 1).activation(g, [3, 17, candidates[0]], psi)


def test_gate_zero_set_is_never_read_on_another_graph():
    # equal edge counts and codes; from node 0 the first graph reaches
    # node 1 and the second does not
    forward, backward = load_graph("0 1 0.5\n"), load_graph("1 0 0.5\n")
    psi = empty_partial(forward)
    est = MonteCarloEstimator(8, 2)
    assert est.activation(forward, [0], psi).zero_set == set()
    est.gains(backward, [0], psi, [1])
    assert est._batch(backward, psi).last_zero is None
    assert est.activation(backward, [0], psi).zero_set == {1}


@pytest.mark.parametrize("make", [
    ExactEstimator,
    lambda: MonteCarloEstimator(10, 1),
    lambda: EpsilonEstimator(MonteCarloEstimator(10, 1), 0.2, "random", 1),
    lambda: EpsilonEstimator(ExactEstimator(), 0.2, "adversarial-low", 1),
], ids=["exact", "mc", "eps-mc", "eps-exact"])
@pytest.mark.parametrize("query", ["gains", "cascades_with"])
@pytest.mark.parametrize("bad", [-1, 6])
def test_out_of_range_candidates_raise_on_every_backend(make, query, bad):
    g = load_graph("0 1 0.5\n1 2 0.5\n2 3 0.5\n3 4 0.5\n4 5 0.5\n")
    with pytest.raises(ValueError, match=f"seed node {bad} out of range"):
        getattr(make(), query)(g, [0], empty_partial(g), [bad, 5])


def test_mc_single_node_values_keep_their_bytes():
    # the empty state's completions, and with them every alpha = 0 run,
    # come from the snapshot's stream alone; this pins them. Node 17's
    # view holds 161 nodes over the 30 completions: on both routes its
    # value is the float nearest 161 / 30, where a sum of per-node
    # quotients fl(c / 30) rounds to 5.366666666666667
    g = generate_graph(60, 240, "erdos-renyi", 40, 7)
    empty = empty_partial(g)
    est = MonteCarloEstimator(30, 0)
    assert est.activation(g, [17], empty).expected_cascade == 5.366666666666666
    values = est.single_node_values(g)
    assert hashlib.sha256(repr(values).encode()).hexdigest() == (
        "3dff01d60b419c4c9019b9742efc3057556f0b5725b1c87d7afc6079f021b467")
    assert est._batch(g, empty).stacked[17].bit_count() == 161
    assert values[17] == float(Fraction(161, 30)) == 5.366666666666666
    assert est.activation(g, [17], empty).expected_cascade == 5.366666666666666


@pytest.mark.parametrize("graph", [DIAMOND, generate_graph(30, 20, "erdos-renyi", 40, 3)],
                         ids=["diamond", "30 nodes"])
@pytest.mark.parametrize("make", [
    ExactEstimator,
    lambda: EpsilonEstimator(ExactEstimator(), 0.2, "random", 1),
    lambda: EpsilonEstimator(MonteCarloEstimator(10, 1), 0.2, "random", 1),
], ids=["exact", "eps-exact", "eps-mc"])
def test_best_single_node_defaults_to_the_first_largest_value(make, graph):
    # the epsilon wrapper perturbs every node's value, so its stream moves
    # on by one draw per node, as the loop over the values does
    est, twin = make(), make()
    values = twin.single_node_values(graph)
    best = values.index(max(values))
    assert best_single_node(graph, est) == (best, values[best])
    if isinstance(est, EpsilonEstimator):
        assert est._factor() == twin._factor()


def test_shared_estimators_never_answer_for_a_dropped_graph():
    # Each graph is dropped after its queries, so a later graph may be
    # allocated at its address and get its id().
    exact, mc = ExactEstimator(), MonteCarloEstimator(20, 3)
    stale_exact = stale_mc = 0
    for seed in range(1500):
        g = generate_graph(5, 6, "erdos-renyi", 60, seed)
        empty = empty_partial(g)
        fresh_exact = ExactEstimator().activation(g, [0], empty)
        fresh_mc = MonteCarloEstimator(20, 3).activation(g, [0], empty)
        stale_exact += exact.activation(g, [0], empty) != fresh_exact
        stale_mc += mc.activation(g, [0], empty) != fresh_mc
    assert (stale_exact, stale_mc) == (0, 0)
