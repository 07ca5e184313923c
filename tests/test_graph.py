from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pfim.graph import (DirectedGraph, Edge, GraphFormatError,
                        assign_trivalency_probabilities, edge_list_text,
                        generate_graph, load_graph)


class TestLoadGraph:
    def test_basic_parse(self):
        g = load_graph("0 1 0.5\n1 2 0.25\n")
        assert g.node_count == 3
        assert g.edge_count == 2
        assert g.edges[0] == Edge(0, 1, 0.5)
        assert g.costs == (Fraction(1), Fraction(1), Fraction(1))

    def test_comments_and_blank_lines_skipped(self):
        g = load_graph("# a comment\n\n0 1 0.5\n  \n# another\n1 2 1\n")
        assert g.edge_count == 2

    def test_tab_separated(self):
        g = load_graph("0\t1\t0.5\n")
        assert g.edges[0].probability == 0.5

    def test_sparse_ids_remapped(self):
        g = load_graph("10 30 0.5\n30 20 0.25\n")
        assert g.node_count == 3
        assert g.external_ids == (10, 20, 30)
        # dense ids follow sorted external order
        assert g.edges == (Edge(0, 2, 0.5), Edge(2, 1, 0.25))

    def test_node_count_hint_keeps_isolated_nodes(self):
        g = load_graph("# nodes=5\n0 1 0.5\n")
        assert g.node_count == 5

    def test_hint_below_max_id_rejected(self):
        with pytest.raises(GraphFormatError):
            load_graph("# nodes=2\n0 3 0.5\n")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph("0 1 0.5\n0 1\n")

    def test_probability_out_of_range(self):
        with pytest.raises(GraphFormatError, match="probability"):
            load_graph("0 1 1.5\n")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            load_graph("2 2 0.5\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphFormatError):
            load_graph("0 1 0.5\n0 1 0.5\n")

    def test_cost_file(self):
        g = load_graph("0 1 0.5\n", cost_text="0 2\n1 3/2\n")
        assert g.costs == (Fraction(2), Fraction(3, 2))

    def test_cost_file_partial_coverage_defaults(self):
        g = load_graph("0 1 0.5\n", cost_text="0 2\n")
        assert g.costs == (Fraction(2), Fraction(1))

    def test_nonpositive_cost_rejected(self):
        with pytest.raises(GraphFormatError):
            load_graph("0 1 0.5\n", cost_text="0 0\n1 1\n")


def test_round_trip_preserves_graph():
    g = load_graph("# nodes=4\n0 1 0.5\n2 1 0.125\n")
    again = load_graph(edge_list_text(g))
    assert again.node_count == g.node_count
    assert again.edges == g.edges


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    edges = []
    for u, v in sorted(chosen):
        p = draw(st.sampled_from([0.0, 0.125, 0.5, 0.875, 1.0]))
        edges.append(Edge(u, v, p))
    return DirectedGraph(n, tuple(edges), tuple(Fraction(1) for _ in range(n)),
                         tuple(range(n)))


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_round_trip_any_graph(g):
    again = load_graph(edge_list_text(g))
    assert again.node_count == g.node_count
    assert again.edges == g.edges


class TestTrivalency:
    def test_values_drawn_from_two_levels(self):
        g = load_graph("0 1 0.5\n1 2 0.5\n2 0 0.5\n0 2 0.5\n")
        g2 = assign_trivalency_probabilities(g, 40, 11)
        assert set(e.probability for e in g2.edges) <= {0.4, 0.04}
        # structure untouched
        assert [(e.source, e.target) for e in g2.edges] == \
               [(e.source, e.target) for e in g.edges]

    def test_deterministic_in_seed(self):
        g = load_graph("0 1 0.5\n1 2 0.5\n")
        assert assign_trivalency_probabilities(g, 7, 3).edges == \
               assign_trivalency_probabilities(g, 7, 3).edges

    def test_index_too_large(self):
        g = load_graph("0 1 0.5\n")
        with pytest.raises(ValueError):
            assign_trivalency_probabilities(g, 101, 0)


class TestGenerateGraph:
    def test_erdos_renyi_shape(self):
        g = generate_graph(20, 35, "erdos-renyi", 10, 0)
        assert g.node_count == 20
        assert g.edge_count == 35
        assert all(e.source != e.target for e in g.edges)
        assert len(set((e.source, e.target) for e in g.edges)) == 35
        assert set(e.probability for e in g.edges) <= {0.1, 0.01}

    def test_scale_free_shape(self):
        g = generate_graph(25, 40, "scale-free-ish", 20, 1)
        assert g.node_count == 25
        assert g.edge_count == 40
        assert len(set((e.source, e.target) for e in g.edges)) == 40

    def test_deterministic(self):
        a = generate_graph(15, 25, "erdos-renyi", 5, 42)
        b = generate_graph(15, 25, "erdos-renyi", 5, 42)
        assert a.edges == b.edges

    def test_too_many_edges(self):
        with pytest.raises(ValueError):
            generate_graph(3, 7, "erdos-renyi", 1, 0)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            generate_graph(3, 2, "small-world", 1, 0)
