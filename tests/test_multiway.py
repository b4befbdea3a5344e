import pytest

from sfvs import (
    AlphaBoundError,
    Graph,
    PreconditionError,
    ProblemInstance,
    check_multiway,
    min_vertex_separator,
    oracle_solve,
    solve_nmc_alpha2,
    solve_nmcdt_xp,
    solve_wnmcdt_alpha2,
)
from sfvs.generate import generate_instance

from conftest import complete_graph, cycle_graph, path_graph, random_bounded_alpha, random_subset


class TestCheckMultiway:
    def test_removing_all_terminals_works_when_deletable(self):
        g = path_graph(3)
        assert check_multiway(g, [1, 3], [1, 3], deletable=True)

    def test_protected_terminals_must_stay(self):
        g = path_graph(3)
        assert not check_multiway(g, [1, 3], [1, 3], deletable=False)

    def test_surviving_path_fails(self):
        assert not check_multiway(path_graph(3), [1, 3], [], deletable=True)


class TestNmcAlpha2:
    def test_single_terminal_needs_nothing(self):
        sol = solve_nmc_alpha2(cycle_graph(4), [2])
        assert sol.removed == () and sol.objective == 0

    def test_adjacent_terminals_infeasible(self):
        sol = solve_nmc_alpha2(complete_graph(3), [1, 2])
        assert not sol.feasible and sol.objective is None

    def test_c4_opposite_terminals(self):
        sol = solve_nmc_alpha2(cycle_graph(4), [1, 3])
        assert sol.removed == (2, 4) and sol.objective == 2

    def test_alpha_three_is_refused(self):
        with pytest.raises(AlphaBoundError):
            solve_nmc_alpha2(Graph(3), [1, 3])

    def test_matches_oracle(self, rng):
        for _ in range(200):
            n = rng.randint(1, 10)
            g = random_bounded_alpha(rng, n, 2, 0.4)
            t = random_subset(rng, n, rng.choice([0.2, 0.4]))
            got = solve_nmc_alpha2(g, t)
            want = oracle_solve(ProblemInstance(g, "nmc", t))
            assert got == want, (g.edges, t)
            if got.feasible:
                assert check_multiway(g, t, got.removed, deletable=False)

    def test_p4_ties_go_to_the_lowest_vertex(self):
        # path 1-4-3-2: cutting 4 or 3 both separate 1 from 2; [3] is canonical
        sol = solve_nmc_alpha2(Graph(4, [(1, 4), (4, 3), (3, 2)]), [1, 2])
        assert sol.removed == (3,) and sol.objective == 1

    def test_size_matches_a_flow_separator_past_the_oracle_guard(self, rng):
        checked = 0
        for _ in range(40):
            n = rng.randint(30, 60)
            g = random_bounded_alpha(rng, n, 2, rng.choice([0.3, 0.6]))
            apart = [(u, v) for u in range(1, n + 1, 2) for v in range(2, n + 1, 2)
                     if not g.has_edge(u, v)]
            if not apart:
                continue
            t = rng.choice(apart)
            got = solve_nmc_alpha2(g, t)
            want = min_vertex_separator(g, t[:1], t[1:])
            assert got.objective == len(want), (g.edges, t)
            assert check_multiway(g, t, got.removed, deletable=False)
            checked += 1
        assert checked > 30


class TestNmcdtXP:
    def test_no_terminals(self):
        assert solve_nmcdt_xp(complete_graph(3), [], 1).removed == ()

    def test_one_terminal(self):
        assert solve_nmcdt_xp(complete_graph(3), [2], 1).removed == ()

    def test_triangle_all_terminals(self):
        sol = solve_nmcdt_xp(complete_graph(3), [1, 2, 3], 1)
        assert sol.objective == 2 and sol.removed == (1, 2)

    def test_refuses_weights(self):
        with pytest.raises(PreconditionError):
            solve_nmcdt_xp(Graph(2, [(1, 2)], {2: 3}), [1], 2)

    def test_matches_oracle(self, rng):
        for d in (2, 3):
            for _ in range(120):
                n = rng.randint(1, 9)
                g = random_bounded_alpha(rng, n, d, 0.4)
                t = random_subset(rng, n, rng.choice([0.4, 0.7]))
                got = solve_nmcdt_xp(g, t, d)
                want = oracle_solve(ProblemInstance(g, "nmcdt", t))
                assert got == want, (d, g.edges, t)
                assert check_multiway(g, t, got.removed, deletable=True)


class TestWeightedNmcdtAlpha2:
    def test_no_terminals(self):
        assert solve_wnmcdt_alpha2(complete_graph(3), []).objective == 0

    def test_cheaper_endpoint_goes(self):
        g = Graph(2, [(1, 2)], {1: 1, 2: 9})
        sol = solve_wnmcdt_alpha2(g, [1, 2])
        assert sol.removed == (1,) and sol.objective == 1

    def test_alpha_three_is_refused(self):
        with pytest.raises(AlphaBoundError):
            solve_wnmcdt_alpha2(Graph(3), [1])

    def test_matches_oracle_weighted(self, rng):
        for _ in range(200):
            n = rng.randint(1, 9)
            g = random_bounded_alpha(rng, n, 2, 0.4, wmax=6)
            t = random_subset(rng, n, rng.choice([0.4, 0.7]))
            got = solve_wnmcdt_alpha2(g, t)
            want = oracle_solve(ProblemInstance(g, "wnmcdt", t))
            assert got == want, (g.edges, t)
            assert check_multiway(g, t, got.removed, deletable=True)
            # the apex helper vertex must never leak into the answer
            assert all(v <= g.n for v in got.removed)

    def test_pin_beyond_the_oracle_guard(self):
        # the pin agrees with an independent branch and bound
        inst = generate_instance(30, 2, 0.3, 7, "wnmcdt", 0.5, wmax=5)
        got = solve_wnmcdt_alpha2(inst.graph, inst.special)
        assert (got.objective, got.removed) == (
            45, (1, 4, 5, 6, 15, 16, 17, 18, 20, 22, 23, 25, 27, 28)
        )
        assert check_multiway(inst.graph, inst.special, got.removed, deletable=True)

    def test_agrees_with_xp_on_unit_weights(self, rng):
        for _ in range(100):
            n = rng.randint(1, 9)
            g = random_bounded_alpha(rng, n, 2, 0.5)
            t = random_subset(rng, n, 0.5)
            assert (
                solve_wnmcdt_alpha2(g, t).objective
                == solve_nmcdt_xp(g, t, 2).objective
            )
