import random

import pytest

from sfvs import (
    FlowNetwork,
    Graph,
    PreconditionError,
    UnboundedFlowError,
    max_flow,
    min_vertex_separator,
)
from sfvs.flow import _solve_bipartite_cover
from sfvs.graph import ids_of, mask_of

from conftest import (
    brute_bipartite_cover_weight,
    brute_min_separator_weight,
    edmonds_karp_max_flow,
    path_graph,
    random_graph,
)


def cut_capacity(net: FlowNetwork, cut) -> int:
    cut = set(cut)
    total = 0
    for u, v, c in net.arcs:
        if (u, v) in cut:
            assert c is not None
            total += c
    return total


class TestMaxFlow:
    def test_single_arc(self):
        value, cut = max_flow(FlowNetwork(2, ((0, 1, 7),), 0, 1))
        assert value == 7 and cut == ((0, 1),)

    def test_two_disjoint_paths(self):
        net = FlowNetwork(4, ((0, 1, 2), (1, 3, 2), (0, 2, 3), (2, 3, 3)), 0, 3)
        assert max_flow(net).value == 5

    def test_disconnected_sink(self):
        value, cut = max_flow(FlowNetwork(3, ((0, 1, 4),), 0, 2))
        assert value == 0 and cut == ()

    def test_unbounded_path_is_reported(self):
        for arcs, sink in (
            (((0, 1, None), (1, 2, None)), 2),
            # infinite arcs only: finite total 0, surrogate 1
            (((0, 1, None), (0, 2, None), (2, 1, None), (1, 3, None)), 3),
            # hops whose finite and infinite arcs merge, in either order
            (((0, 1, None), (1, 2, 5), (1, 2, None), (2, 3, None), (2, 3, 7)), 3),
        ):
            net = FlowNetwork(sink + 1, arcs, 0, sink)
            with pytest.raises(UnboundedFlowError, match="unbounded"):
                max_flow(net)
            assert _outcome(edmonds_karp_max_flow, net) == "unbounded"

    def test_infinite_arcs_behind_a_zero_arc_are_bounded(self):
        net = FlowNetwork(4, ((0, 1, None), (1, 2, 0), (2, 3, None)), 0, 3)
        assert max_flow(net) == edmonds_karp_max_flow(net) == (0, ())

    def test_infinite_arc_off_the_path_is_fine(self):
        net = FlowNetwork(4, ((0, 1, 2), (1, 3, 5), (0, 2, None), (2, 1, None)), 0, 3)
        assert max_flow(net).value == 5

    def test_source_sink_validation(self):
        with pytest.raises(PreconditionError):
            FlowNetwork(2, (), 1, 1)
        with pytest.raises(PreconditionError):
            FlowNetwork(2, ((0, 5, 1),), 0, 1)

    def test_flow_equals_cut_on_random_networks(self, rng):
        for _ in range(150):
            n = rng.randint(2, 8)
            arcs = []
            for _ in range(rng.randint(0, 16)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    arcs.append((u, v, rng.randint(0, 9)))
            net = FlowNetwork(n, tuple(arcs), 0, n - 1)
            value, cut = max_flow(net)
            assert value == cut_capacity(net, cut)

    def test_deterministic(self, rng):
        arcs = tuple(
            (rng.randrange(6), rng.randrange(6), rng.randint(1, 9))
            for _ in range(12)
        )
        arcs = tuple(a for a in arcs if a[0] != a[1])
        net = FlowNetwork(6, arcs, 0, 5)
        assert max_flow(net) == max_flow(net)

    def test_same_result_as_edmonds_karp(self, rng):
        # parallel arcs, self-loops, zero-capacity and infinite arcs, and
        # capacities up to 2^150 like nmc-a2's cover weights
        for trial in range(600):
            n = rng.randint(2, 7) if trial % 6 else rng.randint(8, 30)
            arcs = []
            for _ in range(rng.randint(0, 5 * n)):
                r = rng.random()
                c = None if r < 0.1 else 0 if r < 0.2 else rng.randint(1, 2 ** rng.choice((3, 64, 150)))
                arcs.append((rng.randrange(n), rng.randrange(n), c))
            s, t = rng.sample(range(n), 2)
            net = FlowNetwork(n, tuple(arcs), s, t)
            assert _outcome(max_flow, net) == _outcome(edmonds_karp_max_flow, net)

    def test_long_path_needs_no_recursion(self):
        n = 20_000
        arcs = tuple((i, i + 1, 5 + i % 7) for i in range(n - 1))
        assert max_flow(FlowNetwork(n, arcs, 0, n - 1)) == (5, ((0, 1),))


def _outcome(solve, net: FlowNetwork):
    try:
        return solve(net)
    except UnboundedFlowError:
        return "unbounded"


class TestBipartiteCover:
    def test_no_edges_empty_cover(self):
        assert _solve_bipartite_cover(0b0110, 0b1000, [0] * 4, [0, 1, 1, 1]) == (0, 0)

    def test_single_edge_picks_cheap_endpoint(self):
        adj = Graph(2, [(1, 2)])._adj
        assert _solve_bipartite_cover(0b010, 0b100, adj, [0, 1, 5]) == (1, 0b010)

    def test_star_center_beats_leaves(self):
        adj = Graph(3, [(1, 3), (2, 3)])._adj
        got = _solve_bipartite_cover(0b0110, 0b1000, adj, [0, 2, 2, 3])
        assert got == (3, 0b1000)

    def test_matches_brute_force_and_is_minimal(self, rng):
        for _ in range(250):
            nl, nr = rng.randint(0, 6), rng.randint(0, 6)
            n = nl + nr + 2  # two vertices outside both sides
            left = tuple(range(1, nl + 1))
            right = tuple(range(nl + 1, nl + nr + 1))
            edges = [(a, b) for a in left for b in right if rng.random() < 0.4]
            # edges inside a side or to an outside vertex must be ignored
            noise = [
                (a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                if not a <= nl < b <= nl + nr and rng.random() < 0.3
            ]
            weights = [0] + [rng.randint(1, 9) for _ in range(n)]
            value, cover = _solve_bipartite_cover(
                mask_of(left), mask_of(right), Graph(n, edges + noise)._adj, weights
            )
            got = set(ids_of(cover))
            assert got <= set(left + right)
            assert all(a in got or b in got for a, b in edges)
            want = brute_bipartite_cover_weight(
                left, right, edges, {v: weights[v] for v in left + right}
            )
            assert sum(weights[v] for v in got) == value == want
            # positive weights make optimal covers minimal; check anyway
            for v in got:
                rest = got - {v}
                assert any(a not in rest and b not in rest for a, b in edges)


class TestVertexSeparator:
    def test_path_middle(self):
        assert min_vertex_separator(path_graph(3), [1], [3]) == (2,)

    def test_adjacent_terminals_infeasible(self):
        assert min_vertex_separator(Graph(2, [(1, 2)]), [1], [2]) is None

    def test_k4_minus_edge(self):
        g = Graph(4, [(1, 2), (1, 4), (2, 3), (2, 4), (3, 4)])
        assert min_vertex_separator(g, [1], [3]) == (2, 4)

    def test_forbidden_vertices_are_not_used(self):
        g = Graph(4, [(1, 2), (2, 4), (1, 3), (3, 4)])
        assert min_vertex_separator(g, [1], [4]) == (2, 3)
        assert min_vertex_separator(g, [1], [4], forbidden=[2]) is None

    def test_empty_side_needs_nothing(self):
        assert min_vertex_separator(path_graph(3), [], [3]) == ()

    def test_overlapping_sides_rejected(self):
        with pytest.raises(PreconditionError):
            min_vertex_separator(path_graph(3), [1], [1])

    def test_weight_matches_brute_force_and_separates(self, rng):
        for _ in range(150):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, rng.choice([0.3, 0.5]), wmax=5)
            verts = list(g.vertices())
            rng.shuffle(verts)
            s_side, t_side = [verts[0]], [verts[1]]
            forbidden = [v for v in verts[2:] if rng.random() < 0.15]
            got = min_vertex_separator(g, s_side, t_side, forbidden)
            want = brute_min_separator_weight(g, s_side, t_side, forbidden)
            if want is None:
                assert got is None
                continue
            assert got is not None
            assert g.weight_of(got) == want
            assert not set(got) & (set(s_side) | set(t_side) | set(forbidden))
            assert not _reachable(g, s_side[0], t_side[0], got)

    def test_protected_only_paths_mean_infeasible(self):
        g = path_graph(3)
        assert min_vertex_separator(g, [1], [3], forbidden=[2]) is None


def _reachable(g: Graph, a: int, b: int, removed) -> bool:
    removed = set(removed)
    seen = {a}
    stack = [a]
    while stack:
        v = stack.pop()
        if v == b:
            return True
        for u in g.neighbors(v):
            if u not in removed and u not in seen:
                seen.add(u)
                stack.append(u)
    return False
