import random
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

from pfim.checks import observation_violations
from pfim.diffusion import (EdgeState, FullRealization, PartialRealization,
                            SeedSchedule, cascade_size, empty_partial, observe,
                            sample_full_realization)
from pfim.graph import DirectedGraph, generate_graph, load_graph

from bruteforce import bfs_cascade, naive_observe

CHAIN = load_graph("0 1 1\n1 2 1\n2 3 1\n")
DIAMOND = load_graph("0 1 0.5\n0 2 0.5\n1 3 0.5\n2 3 0.5\n")


def random_instance(seed, n_lo=3, n_hi=8):
    rng = random.Random(seed)
    n = rng.randrange(n_lo, n_hi)
    m = min(rng.randrange(0, 2 * n + 1), n * (n - 1))
    g = generate_graph(n, m, "erdos-renyi", 50, seed)
    realization = sample_full_realization(g, rng.randrange(1 << 30))
    k = rng.randrange(1, min(3, n) + 1)
    nodes = rng.sample(range(n), k)
    # one seed per consecutive slot keeps the schedule valid and varied
    entries = tuple((v, i) for i, v in enumerate(nodes))
    return g, realization, SeedSchedule(entries)


class TestSampling:
    def test_deterministic(self):
        a = sample_full_realization(DIAMOND, 42)
        b = sample_full_realization(DIAMOND, 42)
        assert a.live == b.live

    def test_sure_and_impossible_edges(self):
        g = load_graph("0 1 1\n1 2 0\n")
        for seed in range(20):
            r = sample_full_realization(g, seed)
            assert r.live[0] is True
            assert r.live[1] is False

    def test_frequency_tracks_probability(self):
        g = load_graph("0 1 0.25\n")
        hits = sum(sample_full_realization(g, s).live[0] for s in range(4000))
        assert abs(hits / 4000 - 0.25) < 0.03


class TestCascadeSize:
    def test_matches_bfs(self):
        for seed in range(80):
            g, realization, schedule = random_instance(seed)
            assert cascade_size(g, realization, schedule.nodes) == \
                bfs_cascade(g, realization.live, schedule.nodes)

    def test_empty_seed_set(self):
        assert cascade_size(CHAIN, FullRealization((True,) * 3), frozenset()) == 0


class TestObserve:
    def test_nothing_before_first_slot_elapses(self):
        r = sample_full_realization(DIAMOND, 1)
        psi = observe(DIAMOND, r, SeedSchedule(((0, 0),)), 0)
        assert psi == empty_partial(DIAMOND)

    def test_one_slot_reveals_seed_out_edges(self):
        r = FullRealization((False, True, True, True))
        psi = observe(DIAMOND, r, SeedSchedule(((0, 0),)), 1)
        assert psi.codes[0] == EdgeState.BLOCKED
        assert psi.codes[1] == EdgeState.LIVE
        assert psi.codes[2] == EdgeState.UNOBSERVED
        assert psi.codes[3] == EdgeState.UNOBSERVED

    def test_blocked_frontier_edges_are_visible(self):
        # second hop reveals 2->3 because 2 sits one live hop out; the
        # blocked 0->1 never hides 1's edges behind it
        r = FullRealization((False, True, True, False))
        psi = observe(DIAMOND, r, SeedSchedule(((0, 0),)), 2)
        assert psi.codes[3] == EdgeState.BLOCKED
        assert psi.codes[2] == EdgeState.UNOBSERVED

    def test_matches_reference_implementation(self):
        for seed in range(150):
            g, realization, schedule = random_instance(seed)
            start = max(s for _, s in schedule.entries)
            for t in range(start, start + g.node_count + 2):
                got = observe(g, realization, schedule, t)
                want = naive_observe(g, realization, schedule, t)
                assert got.codes == want.codes, (seed, t)

    def test_settles_after_the_deepest_live_layer(self):
        for seed in range(120):
            g, realization, schedule = random_instance(seed)
            # with no slots listed, only the settled state is compared
            assert observation_violations(g, realization, schedule, (), 49) == 0


@st.composite
def observed_worlds(draw):
    """Tiny graph, a world, a schedule whose seeds may share a slot, and a
    slot at or after the last activation."""
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    live = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    nodes = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=n))
    gaps = draw(st.lists(st.integers(0, 2), min_size=len(nodes), max_size=len(nodes)))
    schedule = SeedSchedule(tuple(zip(nodes, accumulate(gaps))))
    slot = schedule.entries[-1][1] + draw(st.integers(0, n + 1))
    graph = DirectedGraph.build(n, [(u, v, 0.5) for u, v in chosen])
    return graph, FullRealization(tuple(live)), schedule, slot


@given(observed_worlds())
@settings(max_examples=300, deadline=None)
# seeds 0 and 3 share slot 0 and both reach node 2: 0 in two hops, 3 in
# one, so only 3's walk reveals the edge leaving 2 at slot 2
@example((DirectedGraph.build(4, [(0, 1, 0.5), (1, 2, 0.5), (3, 2, 0.5), (2, 0, 0.5)]),
          FullRealization((True,) * 4), SeedSchedule(((0, 0), (3, 0))), 2))
def test_observe_matches_naive_observe(state):
    graph, realization, schedule, slot = state
    assert observe(graph, realization, schedule, slot) == \
        naive_observe(graph, realization, schedule, slot)


@given(st.integers(min_value=0, max_value=5000), st.integers(min_value=0, max_value=8))
@settings(max_examples=80, deadline=None)
def test_observation_grows_monotonically(seed, offset):
    g, realization, schedule = random_instance(seed)
    t = max(s for _, s in schedule.entries) + offset
    assert observation_violations(g, realization, schedule, (t, t + 1), 1) == 0


class TestPartialRealization:
    def test_rejects_bad_codes(self):
        with pytest.raises(ValueError):
            PartialRealization(b"\x03")
        # the message names the first bad byte, after valid ones
        with pytest.raises(ValueError, match="^invalid edge state code 7$"):
            PartialRealization(bytes([0, 1, 2, 7, 2, 9]))

    def test_built_states_equal_checked_ones(self):
        # states that observe and empty_partial build equal those rebuilt
        # from their codes
        g, realization, schedule = random_instance(4)
        t = max(s for _, s in schedule.entries) + 2
        for psi in (empty_partial(g), observe(g, realization, schedule, t)):
            checked = PartialRealization(psi.codes)
            assert psi == checked and hash(psi) == hash(checked)

    def test_subset_relation(self):
        a = PartialRealization(bytes([2, 2, 1, 2]))
        b = PartialRealization(bytes([0, 2, 1, 2]))
        assert a.is_subset_of(b)
        assert not b.is_subset_of(a)

    def test_subset_requires_agreement(self):
        a = PartialRealization(bytes([1]))
        b = PartialRealization(bytes([0]))
        assert not a.is_subset_of(b)

    def test_consistency(self):
        r = FullRealization((True, False))
        assert PartialRealization(bytes([1, 2])).is_consistent_with(r)
        assert not PartialRealization(bytes([0, 2])).is_consistent_with(r)


class TestSeedSchedule:
    def test_duplicate_node_rejected(self):
        with pytest.raises(ValueError):
            SeedSchedule(((0, 0), (0, 1)))

    def test_decreasing_slots_rejected(self):
        with pytest.raises(ValueError):
            SeedSchedule(((0, 2), (1, 1)))

    def test_negative_slot_rejected(self):
        with pytest.raises(ValueError):
            SeedSchedule(((0, -1),))

    def test_same_slot_allowed(self):
        s = SeedSchedule(((0, 0), (1, 0), (2, 0)))
        assert len(s) == 3
