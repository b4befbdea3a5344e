import tracemalloc

import pytest

from sfvs import (
    Graph,
    PreconditionError,
    ProblemInstance,
    SizeGuardError,
    feasible_removed,
    oracle_solve,
)
from sfvs.generate import generate_instance

from conftest import (
    complete_graph,
    cycle_graph,
    max_independent_set,
    oracle_clique_cover_at_most,
    path_graph,
    random_graph,
)


def solve(g, kind, special=(), **kw):
    return oracle_solve(ProblemInstance(g, kind, special), **kw)


class TestInstances:
    def test_unknown_kind(self):
        with pytest.raises(PreconditionError):
            ProblemInstance(Graph(1), "tsp")

    def test_fvs_requires_full_special(self):
        with pytest.raises(PreconditionError):
            ProblemInstance(path_graph(3), "fvs", (1,))

    def test_vc_requires_empty_special(self):
        with pytest.raises(PreconditionError):
            ProblemInstance(path_graph(3), "vc", (1,))

    def test_special_is_normalized(self):
        inst = ProblemInstance(path_graph(3), "sfvs", (3, 1))
        assert inst.special == (1, 3)


class TestOracle:
    def test_wsfvs_k4_all_s(self):
        sol = solve(complete_graph(4), "wsfvs", (1, 2, 3, 4))
        assert sol.objective == 2 and sol.removed == (1, 2)

    def test_sfvs_empty_s(self):
        sol = solve(complete_graph(4), "sfvs")
        assert sol.objective == 0 and sol.removed == ()

    def test_nmc_path(self):
        sol = solve(path_graph(3), "nmc", (1, 3))
        assert sol.removed == (2,) and sol.objective == 1 and sol.feasible

    def test_nmc_adjacent_terminals_infeasible(self):
        sol = solve(Graph(2, [(1, 2)]), "nmc", (1, 2))
        assert not sol.feasible and sol.objective is None

    def test_nmcdt_may_delete_terminals(self):
        sol = solve(Graph(2, [(1, 2)]), "nmcdt", (1, 2))
        assert sol.feasible and sol.objective == 1 and sol.removed == (1,)

    def test_weighted_kind_minimizes_weight(self):
        g = path_graph(3, weights={1: 9, 2: 1, 3: 9})
        sol = solve(g, "wnmcdt", (1, 3))
        # the middle vertex is cheap, both terminals are heavy
        assert sol.objective == 1 and sol.removed == (2,)

    def test_ties_break_lexicographically(self):
        sol = solve(complete_graph(3), "fvs", (1, 2, 3))
        assert sol.removed == (1,)

    def test_canonical_among_equal_weights(self):
        # bowtie with a heavy middle: {3} and the cross pairs all weigh 2
        g = Graph(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)], {3: 2})
        sol = solve(g, "wsfvs", (1, 2, 3, 4, 5))
        assert sol.objective == 2 and sol.removed == (1, 4)

    def test_solution_recheckable(self):
        inst = ProblemInstance(cycle_graph(5), "sfvs", (2, 4))
        sol = oracle_solve(inst)
        assert feasible_removed(inst, sol.removed)
        for v in sol.removed:
            smaller = tuple(u for u in sol.removed if u != v)
            assert not feasible_removed(inst, smaller)

    def test_nothing_lighter_is_feasible(self, rng):
        # re-enumerate everything below the optimum and insist it all fails
        for _ in range(25):
            n = rng.randint(1, 7)
            g = random_graph(rng, n, 0.5, wmax=4)
            s = tuple(v for v in g.vertices() if rng.random() < 0.6)
            inst = ProblemInstance(g, "wsfvs", s)
            best = oracle_solve(inst)
            assert feasible_removed(inst, best.removed)
            assert best.objective == g.weight_of(best.removed)
            for mask in range(1 << n):
                ys = tuple(v for v in range(1, n + 1) if mask >> (v - 1) & 1)
                if g.weight_of(ys) < best.objective:
                    assert not feasible_removed(inst, ys), (g.edges, s, ys)

    def test_weighted_pass_keeps_constant_memory(self):
        # one streaming pass with an incumbent, not 2^n masks held in weight
        # buckets, which peaked at 0.66 MB here and double per vertex
        inst = generate_instance(14, 3, 0.3, 7, "wsfvs", 0.5, wmax=5)
        tracemalloc.start()
        try:
            sol = oracle_solve(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (sol.objective, sol.removed) == (12, (1, 2, 3, 6, 7, 8, 14))
        assert peak < 100_000, peak

    def test_guard_refuses_and_is_overridable(self):
        g = Graph(23)
        with pytest.raises(SizeGuardError):
            solve(g, "sfvs")
        assert solve(g, "sfvs", max_vertices=23).objective == 0

    def test_mis_vc_duality(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 9), rng.random())
            vc = solve(g, "vc")
            mis = solve(g, "mis")
            assert vc.objective + (g.n - mis.objective) == g.n
            assert g.n - mis.objective == len(max_independent_set(g))


class TestCliqueCover:
    def test_clique_is_one_clique(self):
        assert oracle_clique_cover_at_most(complete_graph(5), 1)

    def test_c4_covers_with_two_edges(self):
        assert oracle_clique_cover_at_most(cycle_graph(4), 2)
        assert not oracle_clique_cover_at_most(cycle_graph(4), 1)

    def test_three_isolated_vertices_need_three(self):
        assert not oracle_clique_cover_at_most(Graph(3), 2)
        assert oracle_clique_cover_at_most(Graph(3), 3)

    def test_cover_number_at_least_alpha(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 8), rng.random())
            alpha = len(max_independent_set(g))
            if alpha > 1:
                assert not oracle_clique_cover_at_most(g, alpha - 1)
            kappa = next(
                c for c in range(1, g.n + 1) if oracle_clique_cover_at_most(g, c)
            )
            assert kappa >= alpha
