import random
from itertools import combinations

import pytest

from sfvs import (
    Graph,
    GraphError,
    find_independent_set,
    independence_at_most,
    is_s_forest,
)
from sfvs.generate import generate_instance

from conftest import (
    atlas_graphs,
    build_hat_graph,
    complete_graph,
    cycle_graph,
    max_independent_set,
    naive_is_s_forest,
    neighborhood,
    nx_is_s_forest,
    path_graph,
    random_bounded_alpha,
    random_graph,
    random_subset,
)


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(2, [(1, 1)])

    def test_rejects_parallel_edge(self):
        with pytest.raises(GraphError):
            Graph(2, [(1, 2), (2, 1)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(GraphError):
            Graph(2, [(1, 3)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(GraphError):
            Graph(1, [], {1: 0})

    def test_default_weights_are_one(self):
        g = Graph(3, [(1, 2)])
        assert [g.weight(v) for v in g.vertices()] == [1, 1, 1]
        assert g.weight_of(g.vertices()) == 3


class TestInducedSubgraph:
    """The base of the hat-graph reference: with no parts it is G[x]."""

    def test_identity_on_k3(self):
        k3 = complete_graph(3)
        assert build_hat_graph(k3, [1, 2, 3], ()) == k3

    def test_k3_two_vertices_is_an_edge(self):
        sub = build_hat_graph(complete_graph(3), [1, 2], ())
        assert sub.n == 2 and sub.edges == frozenset({(1, 2)})

    def test_p4_endpoints_are_isolated(self):
        sub = build_hat_graph(path_graph(4), [1, 3], ())
        assert sub.n == 2 and not sub.edges

    def test_weights_follow_the_bijection(self):
        g = path_graph(3, weights={1: 5, 2: 7, 3: 9})
        sub = build_hat_graph(g, [2, 3], ())
        assert (sub.weight(1), sub.weight(2)) == (7, 9)


class TestNeighborhood:
    def test_open_middle_of_path(self):
        assert neighborhood(path_graph(3), [2]) == (1, 3)

    def test_closed_middle_of_path(self):
        assert neighborhood(path_graph(3), [2], closed=True) == (1, 2, 3)

    def test_empty_set(self):
        assert neighborhood(path_graph(3), []) == ()
        assert neighborhood(path_graph(3), [], closed=True) == ()


class TestBlocks:
    """The S-forest test against biconnected blocks: a vertex lies on a cycle
    of G[x] iff it belongs to a block of G[x] with three or more vertices."""

    def test_path_gives_two_bridges(self):
        g = path_graph(3)
        assert is_s_forest(g, g.vertices(), g.vertices())

    def test_k4_is_one_block(self):
        g = complete_graph(4)
        assert not any(is_s_forest(g, g.vertices(), [v]) for v in g.vertices())

    def test_two_triangles_sharing_a_vertex(self):
        g = Graph(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])
        assert not any(is_s_forest(g, g.vertices(), [v]) for v in g.vertices())
        assert is_s_forest(g, [1, 2, 4, 5], [1, 2, 4, 5])

    def test_agrees_with_networkx(self, rng):
        for _ in range(80):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, rng.random())
            x = random_subset(rng, n, 0.8)
            subsets = [[v] for v in x] + [x, random_subset(rng, n, 0.5)]
            subsets += [[v for v in x if rng.random() < 0.5] for _ in range(3)]
            for s in subsets:
                assert is_s_forest(g, x, s) == nx_is_s_forest(g, x, s), (g.edges, x, s)


class TestSForest:
    def test_triangle_through_s_vertex(self):
        assert not is_s_forest(complete_graph(3), [1, 2, 3], [1])

    def test_no_s_vertex_no_s_cycle(self):
        assert is_s_forest(complete_graph(3), [1, 2, 3], [])

    def test_c4_minus_vertex_is_a_path(self):
        assert is_s_forest(cycle_graph(4), [1, 2, 3], [1])

    def test_s_outside_x_is_ignored(self):
        g = Graph(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
        assert is_s_forest(g, [3, 4], [1, 2])

    def test_exhaustive_against_naive_on_atlas(self):
        for g in atlas_graphs(5):
            verts = list(g.vertices())
            for rx in range(len(verts) + 1):
                for x in combinations(verts, rx):
                    for rs in range(len(x) + 1):
                        for s in combinations(x, rs):
                            assert is_s_forest(g, x, s) == naive_is_s_forest(g, x, s), (
                                g.edges,
                                x,
                                s,
                            )

    def test_randomized_against_naive_up_to_ten(self, rng):
        for _ in range(150):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
            x = random_subset(rng, n, 0.7)
            s = tuple(v for v in x if rng.random() < 0.5)
            assert is_s_forest(g, x, s) == naive_is_s_forest(g, x, s)

    def test_accepted_forests_keep_few_s_vertices_under_bounded_alpha(self, rng):
        from conftest import random_bounded_alpha

        for _ in range(120):
            d = rng.choice([1, 2, 3])
            n = rng.randint(1, 9)
            g = random_bounded_alpha(rng, n, d, 0.4)
            x = random_subset(rng, n, 0.8)
            s = random_subset(rng, n, 0.6)
            if is_s_forest(g, x, s):
                assert len(set(x) & set(s)) <= 2 * d


class TestIndependence:
    def test_clique_has_alpha_one(self):
        assert independence_at_most(complete_graph(5), 1)

    def test_c4_alpha_two(self):
        assert not independence_at_most(cycle_graph(4), 1)
        assert independence_at_most(cycle_graph(4), 2)

    def test_three_disjoint_edges(self):
        g = Graph(6, [(1, 2), (3, 4), (5, 6)])
        assert not independence_at_most(g, 2)
        assert independence_at_most(g, 3)

    def test_max_independent_set_examples(self):
        assert max_independent_set(complete_graph(4)) == (1,)
        assert max_independent_set(Graph(5)) == (1, 2, 3, 4, 5)
        assert max_independent_set(cycle_graph(5)) == (1, 3)

    def test_witness_is_independent_and_lex_smallest(self):
        g = Graph(4, [(1, 2)])
        assert find_independent_set(g, 2) == (1, 3)
        assert find_independent_set(g, 3) == (1, 3, 4)
        assert find_independent_set(g, 4) is None

    def test_witness_equals_brute_force(self, rng):
        for _ in range(300):
            n = rng.randint(0, 12)
            g = random_graph(rng, n, rng.random())
            for k in range(1, 6):
                want = next(
                    (c for c in combinations(g.vertices(), k)
                     if not any(g.has_edge(u, v) for u, v in combinations(c, 2))),
                    None,
                )
                assert find_independent_set(g, k) == want

    def test_search_decides_where_the_greedy_cover_fails(self):
        # alpha = 2 in both, but the greedy takes {1, 2} and {3, 4} from C5,
        # and {1, 2} and {3} from the path 3-1-2-4, and leaves a vertex
        assert find_independent_set(cycle_graph(5), 3) is None
        assert find_independent_set(Graph(4, [(1, 2), (1, 3), (2, 4)]), 3) is None

    def test_planted_alpha_two_graphs_have_no_witness(self, rng):
        for n in (100, 117, 133, 149):
            seed = rng.randrange(2**31)
            # contiguous planted cliques, as in the benchmark's instances
            assert find_independent_set(generate_instance(n, 2, 0.6, seed, "nmc").graph, 3) is None
            # cliques of odd and even ids, which the greedy cover mixes up
            g = random_bounded_alpha(random.Random(seed), n, 2, 0.3)
            assert find_independent_set(g, 3) is None
            assert find_independent_set(g, 2) is not None

    def test_bound_matches_maximum_on_atlas(self):
        for g in atlas_graphs(6):
            alpha = len(max_independent_set(g))
            for d in range(1, g.n + 1):
                assert independence_at_most(g, d) == (alpha <= d)

    def test_bound_matches_maximum_randomized(self, rng):
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            alpha = len(max_independent_set(g))
            members = max_independent_set(g)
            for u in members:
                assert not set(g.neighbors(u)) & set(members)
            for d in (1, 2, 3, 4):
                assert independence_at_most(g, d) == (alpha <= d)
