from math import comb

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
from sfvs import graph, multiway, solvers
from sfvs.generate import generate_instance

from conftest import (
    apex_wnmcdt_alpha2,
    complete_graph,
    count_calls,
    cycle_graph,
    path_graph,
    random_bounded_alpha,
    random_subset,
)


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

    def test_keep_then_extend_work_pin(self, monkeypatch):
        # a search whose cut pool holds the kept terminals, and which tests
        # cuts that cannot beat the incumbent, makes 185 separation tests here
        inst = generate_instance(14, 3, 0.3, 7, "nmcdt", 0.6)
        tested = count_calls(monkeypatch, multiway, "_terminals_separated")
        masks = count_calls(monkeypatch, graph, "mask_of")
        assert solve_nmcdt_xp(inst.graph, inst.special, 3).objective == 7
        assert tested[0] < 185, tested
        # the search builds one mask per kept terminal set and one per ranked
        # set; a branch ranks at most one set without testing it, the first
        # one that does not beat the incumbent
        branches = sum(comb(len(inst.special), k) for k in range(1, 4))
        ranked = masks[0] - branches
        assert ranked - tested[0] <= branches, (ranked, tested)


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

    @pytest.mark.parametrize("n", [26, 30, 40])
    def test_matches_the_apex_referee_past_the_oracle_guard(self, n):
        # the referee runs wsfvs-a3's weighted two-component completions here
        inst = generate_instance(n, 2, 0.3, 7, "wnmcdt", 0.3, wmax=5)
        got = solve_wnmcdt_alpha2(inst.graph, inst.special)
        assert got == apex_wnmcdt_alpha2(inst.graph, inst.special)

    def test_a_pair_cut_ties_the_keep_one_candidates(self):
        # path 1-3-2: keeping 1 removes [2], keeping 2 removes [1], keeping
        # both removes the pair cut [3]; the canonical [1] is found second
        g = Graph(3, [(1, 3), (3, 2)])
        sol = solve_wnmcdt_alpha2(g, [1, 2])
        assert sol.removed == (1,) and sol.objective == 1
        assert sol == oracle_solve(ProblemInstance(g, "wnmcdt", (1, 2)))

    def test_two_pair_cuts_tie(self):
        # the pairs (2, 3), (2, 5), (3, 4) and (4, 5) all cut at weight 6,
        # and the second, [1, 3, 4], is canonical
        g = Graph(5, [(1, 2), (1, 3), (1, 5), (2, 4), (3, 5)],
                  {1: 2, 2: 3, 3: 3, 4: 1, 5: 3})
        sol = solve_wnmcdt_alpha2(g, [2, 3, 4, 5])
        assert sol.removed == (1, 3, 4) and sol.objective == 6
        assert sol == oracle_solve(ProblemInstance(g, "wnmcdt", (2, 3, 4, 5)))

    def test_one_cover_per_pair_and_no_wsfvs(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("wnmcdt-a2 called wsfvs-a3")

        for mod in (solvers, multiway):
            monkeypatch.setattr(mod, "solve_wsfvs_alpha3", refuse, raising=False)
        calls = 0
        real_cover = multiway._solve_bipartite_cover

        def cover(*args):
            nonlocal calls
            calls += 1
            return real_cover(*args)

        monkeypatch.setattr(multiway, "_solve_bipartite_cover", cover)
        inst = generate_instance(40, 2, 0.3, 7, "wnmcdt", 0.3, wmax=5)
        solve_wnmcdt_alpha2(inst.graph, inst.special)
        k = len(inst.special)
        assert 0 < calls <= k * (k - 1) // 2, (calls, k)

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
            assert solve_wnmcdt_alpha2(g, t) == solve_nmcdt_xp(g, t, 2), (g.edges, t)

    @pytest.mark.parametrize("n", range(15, 21))
    def test_agrees_with_xp_at_n_15_to_20(self, n):
        inst = generate_instance(n, 2, 0.1, n, "nmcdt", 0.5)
        got = solve_wnmcdt_alpha2(inst.graph, inst.special)
        assert got == solve_nmcdt_xp(inst.graph, inst.special, 2)
