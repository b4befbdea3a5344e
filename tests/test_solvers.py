import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from sfvs import (
    AlphaBoundError,
    Graph,
    PreconditionError,
    ProblemInstance,
    oracle_solve,
    solve_sfvs_xp,
    solve_wnmcdt_alpha2,
    solve_wsfvs_alpha3,
)
from sfvs import graph, multiway, solvers
from sfvs.flow import _cover_weights
from sfvs.generate import generate_instance
from sfvs.graph import _add_vertex, _before, _removed_first, ids_of, mask_of
from sfvs.solvers import (
    _b_mask,
    _case_a1,
    _case_a1a2,
    _hat_ok,
    _s1_candidates,
    _valid_single_parts,
)

from conftest import (
    apex_wnmcdt_alpha2,
    build_hat_graph,
    complete_graph,
    count_calls,
    forest_labels,
    heavy_s,
    neighborhood,
    nx_is_s_forest,
    random_bounded_alpha,
    random_subset,
)


def candidates(g: Graph, s, d: int) -> list[tuple[int, ...]]:
    """The near-layer candidates ``_s1_candidates`` yields, as id tuples."""
    return [ids_of(x) for x, _, _ in _s1_candidates(g, mask_of(s), d, [0])]


def true_near_layer(g: Graph, kept, s) -> tuple[int, ...]:
    """The S_<=1 of a concrete S-forest: closed neighborhood of its kept S part."""
    kept_s = sorted(set(kept) & set(s))
    closed = set(neighborhood(g, kept_s, closed=True))
    return tuple(sorted(closed & set(kept)))


def candidate_ok(g: Graph, x, s, d: int) -> bool:
    """The four defining properties of a near-layer candidate."""
    xs, ss = set(x), set(s)
    kept_s = xs & ss
    if len(kept_s) > 2 * d:
        return False
    cap = 4 * d - 2 if len(kept_s) <= 2 * d - 2 else 2 * d
    if len(x) > cap:
        return False
    if not (xs - ss) <= set(neighborhood(g, sorted(kept_s))):
        return False
    return nx_is_s_forest(g, x, s)


def reaching_family():
    """200 seeded ``(seed, g, s)``: low p, few S-vertices and heavy S on odd
    seeds.  Unlike the usual mix, this family makes each of the four
    completion cases the canonical optimum often."""
    for seed in range(200):
        inst = generate_instance(
            6 + seed % 6, 3, 0.05, seed, "wsfvs", (0.1, 0.3)[seed // 2 % 2], 3
        )
        g = heavy_s(inst.graph, inst.special, 5) if seed % 2 else inst.graph
        yield seed, g, inst.special


class TestCandidateEnumeration:
    def test_empty_s_yields_only_the_empty_candidate(self):
        assert candidates(complete_graph(3), [], 3) == [()]

    def test_single_vertex(self):
        assert sorted(candidates(Graph(1), [1], 3)) == [(), (1,)]

    def test_k3_candidates(self):
        got = sorted(candidates(complete_graph(3), [1], 3))
        # the full triangle is an S-cycle through 1, so it is filtered out
        assert got == [(), (1,), (1, 2), (1, 3)]

    def test_all_candidates_satisfy_the_contract(self, rng):
        for _ in range(40):
            n = rng.randint(1, 8)
            g = random_bounded_alpha(rng, n, 3, 0.4)
            s = random_subset(rng, n, 0.5)
            for x in candidates(g, s, 3):
                if x:
                    assert candidate_ok(g, x, s, 3), (g.edges, s, x)

    def test_alpha_precondition_is_checked(self, monkeypatch):
        # the enumeration has no guard of its own; the solver checks first
        def enumerate_too_early(*args):
            raise AssertionError("candidates enumerated before the alpha check")

        monkeypatch.setattr(solvers, "_s1_candidates", enumerate_too_early)
        with pytest.raises(AlphaBoundError):
            solve_wsfvs_alpha3(Graph(4), [1])

    def test_optimums_near_layer_is_enumerated(self, rng):
        for _ in range(40):
            n = rng.randint(1, 8)
            g = random_bounded_alpha(rng, n, 3, 0.4, wmax=4)
            s = random_subset(rng, n, 0.5)
            best = oracle_solve(ProblemInstance(g, "wsfvs", s))
            kept = [v for v in g.vertices() if v not in best.removed]
            layer = true_near_layer(g, kept, s)
            cands = set(candidates(g, s, 3))
            assert layer in cands, (g.edges, s, best, layer)

    def test_yields_exactly_the_candidates_once_each(self, rng):
        # soundness alone would let an over-strict S-forest test through
        checked = 0
        for _ in range(150):
            n = rng.randint(1, 8)
            d = rng.randint(1, 3)
            g = random_bounded_alpha(rng, n, d, 0.4)
            s = random_subset(rng, n, 0.5)
            got = candidates(g, s, d)
            assert len(got) == len(set(got)), (g.edges, s, d)
            want = {
                x
                for r in range(n + 1)
                for x in combinations(g.vertices(), r)
                if candidate_ok(g, x, s, d)
            }
            assert set(got) == want, (g.edges, s, d)
            checked += len(got)
        assert checked > 1500

    def test_labels_match_bfs(self, rng):
        checked = 0
        for _ in range(60):
            n = rng.randint(1, 10)
            g = random_bounded_alpha(rng, n, 3, 0.4)
            s = random_subset(rng, n, 0.5)
            for x_mask, ycomp, tree in _s1_candidates(g, mask_of(s), 3, [0]):
                want = forest_labels(g, ids_of(x_mask), s)
                assert (ycomp, tree) == want, (g.edges, s, ids_of(x_mask))
                checked += 1
        assert checked > 500


class TestAddVertex:
    """Growing an S-forest X by one vertex v, with S = {1}."""

    def _add(self, g, x, s, v):
        ycomp, tree = forest_labels(g, x, s)
        return _add_vertex(g._adj, mask_of(s), mask_of(x), ycomp, tree, v)

    def test_s_vertex_touching_one_y_component_twice_is_rejected(self):
        g = Graph(3, [(2, 3), (1, 2), (1, 3)])
        assert self._add(g, [2, 3], [1], 1) is None

    def test_cycle_inside_one_y_component_is_accepted(self):
        # 4 closes 2 - 3 - 4, which avoids S, in the tree of S-vertex 1
        g = Graph(4, [(1, 2), (2, 3), (2, 4), (3, 4)])
        got = self._add(g, [1, 2, 3], [1], 4)
        assert got == forest_labels(g, [1, 2, 3, 4], [1])
        assert got[0][4] == mask_of((2, 3, 4))

    def test_seeing_an_s_vertex_and_its_y_neighbour_is_rejected(self):
        g = Graph(3, [(1, 2), (1, 3), (2, 3)])
        assert self._add(g, [1, 2], [1], 3) is None


class TestHatGraph:
    def test_empty_tuple_is_plain_induced_subgraph(self):
        g = complete_graph(4, weights={2: 5})
        hat = build_hat_graph(g, [1, 2, 3], ())
        assert hat.n == 3 and hat.weight(2) == 5
        assert hat.edges == frozenset({(1, 2), (1, 3), (2, 3)})

    def test_star_gets_a_four_cycle(self):
        g = Graph(3, [(1, 2), (1, 3)])  # S-vertex 1 with two leaves
        hat = build_hat_graph(g, [1, 2, 3], [(2, 3)])
        assert hat.n == 4
        assert hat.edges == frozenset({(1, 2), (1, 3), (2, 4), (3, 4)})
        assert not nx_is_s_forest(hat, [1, 2, 3, 4], [1])

    def test_single_leaf_stays_a_forest(self):
        g = Graph(2, [(1, 2)])
        hat = build_hat_graph(g, [1, 2], [(2,)])
        assert nx_is_s_forest(hat, [1, 2, 3], [1])

    def test_part_outside_x_is_rejected(self):
        with pytest.raises(PreconditionError):
            build_hat_graph(complete_graph(3), [1, 2], [(3,)])


def _singles(g, x, s):
    """The valid single budget sets of candidate x, as id tuples."""
    ycomp, tree = forest_labels(g, x, s)
    free = mask_of(x) & ~mask_of(s)
    return [ids_of(a) for a in _valid_single_parts(ycomp, tree, free)]


def _pair_ok(g, x, s, p1, p2):
    ycomp, tree = forest_labels(g, x, s)
    return _hat_ok(ycomp, tree, (mask_of(p1), mask_of(p2)))


class TestTupleEnumeration:
    def test_no_free_vertices_means_only_empty_parts(self):
        g = Graph(1)
        assert _singles(g, [1], [1]) == [()]
        assert _pair_ok(g, [1], [1], (), ())

    def test_path_edge_all_pass(self):
        g = Graph(2, [(1, 2)])
        assert _singles(g, [1, 2], [1]) == [(), (2,)]
        assert _pair_ok(g, [1, 2], [1], (), (2,))
        assert _pair_ok(g, [1, 2], [1], (2,), (2,))

    def test_star_rejects_the_double_budget(self):
        g = Graph(3, [(1, 2), (1, 3)])
        singles = _singles(g, [1, 2, 3], [1])
        assert (2,) in singles and (3,) in singles
        assert (2, 3) not in singles

    def test_first_proxy_of_a_pair_joins_two_trees(self):
        # trees 2 - 1 - 3 and 4 - 5 with S = {1, 4}; proxy (2, 5) joins them,
        # so proxy (3, 5) closes 2 - 1 - 3 - p2 - 5 - p1 through 1
        g = Graph(5, [(1, 2), (1, 3), (4, 5)])
        x, s = (1, 2, 3, 4, 5), (1, 4)
        assert {(2, 5), (3, 5)} <= set(_singles(g, x, s))
        assert _pair_ok(g, x, s, (2, 5), (2, 5))
        assert not _pair_ok(g, x, s, (2, 5), (3, 5))
        hat = build_hat_graph(g, x, [(2, 5), (3, 5)])
        assert not nx_is_s_forest(hat, hat.vertices(), s)

    def test_matches_hat_graph_definition(self, rng):
        forests = 0
        for _ in range(25):
            n = rng.randint(1, 9)
            g = random_bounded_alpha(rng, n, 3, 0.5)
            s = random_subset(rng, n, 0.5)
            xs = [x for x in candidates(g, s, 3) if x]
            # the first candidates lie in one tree, where the first proxy of a
            # pair joins nothing; a pair spanning two trees needs more
            forest = [
                x for x in xs
                if len(set(forest_labels(g, x, s)[1]) - {0}) > 1
                and len(set(x) - set(s)) <= 4
            ]
            forests += len(forest[:4])
            for x in xs[:4] + forest[:4]:
                free = tuple(v for v in x if v not in s)
                singles = _singles(g, x, s)
                got = {(p1,) for p1 in singles}
                got |= {
                    (p1, p2) for p1 in singles for p2 in singles
                    if _pair_ok(g, x, s, p1, p2)
                }
                want = set()
                all_parts = [
                    tuple(sorted(sub))
                    for r in range(len(free) + 1)
                    for sub in combinations(free, r)
                ]
                for p1 in all_parts:
                    hat1 = build_hat_graph(g, x, (p1,))
                    if nx_is_s_forest(hat1, hat1.vertices(), _remap(x, s)):
                        want.add((p1,))
                    for p2 in all_parts:
                        hat2 = build_hat_graph(g, x, (p1, p2))
                        if nx_is_s_forest(hat2, hat2.vertices(), _remap(x, s)):
                            want.add((p1, p2))
                assert got == want, (g.edges, s, x)
        assert forests > 10


def _remap(x, s):
    """S-vertex positions after x is renumbered to 1..len(x)."""
    xs = sorted(x)
    return [i + 1 for i, v in enumerate(xs) if v in set(s)]


def _b_set(g, x, s, a):
    return ids_of(_b_mask(g, mask_of(x), mask_of(s), mask_of(a)))


class TestBSets:
    def test_neighbor_of_kept_s_vertex_is_excluded(self):
        # 3 sees the kept S-vertex 1, so it cannot sit in the far part
        g = Graph(3, [(1, 2), (1, 3)])
        assert _b_set(g, [1, 2], [1], []) == ()
        assert _b_set(g, [1, 2], [1], [2]) == ()

    def test_far_vertex_with_allowed_contact(self):
        g = Graph(3, [(1, 2), (2, 3)])
        assert _b_set(g, [1, 2], [1], [2]) == (3,)
        assert _b_set(g, [1, 2], [1], []) == ()

    def test_s_vertices_never_become_far(self):
        g = Graph(3, [(1, 2)])
        assert _b_set(g, [1, 2], [1, 3], [2]) == ()


class TestCompletionCases:
    def _cells(self, rng, trials, pairs=False):
        for _ in range(trials):
            n = rng.randint(2, 8)
            g = random_bounded_alpha(rng, n, 3, 0.4, wmax=4)
            s = random_subset(rng, n, 0.4)
            for x in candidates(g, s, 3):
                if not set(x) & set(s):
                    continue
                singles = _singles(g, x, s)
                if not pairs:
                    for a1 in singles:
                        yield g, s, x, (a1,)
                    continue
                for a1 in singles:
                    for a2 in singles:
                        if _pair_ok(g, x, s, a1, a2):
                            yield g, s, x, (a1, a2)

    def test_empty_b_set_gives_no_far_component(self):
        g = Graph(2, [(1, 2)])
        assert _case_a1(g, mask_of((1, 2)), 0) == (mask_of((1, 2)), 0)

    def test_heavier_component_wins(self):
        # two candidate components behind budget vertex 2: {3} light, {4} heavy
        g = Graph(4, [(1, 2), (2, 3), (2, 4)], {3: 3, 4: 5})
        x_mask = mask_of((1, 2))
        b = _b_mask(g, x_mask, mask_of((1,)), mask_of((2,)))
        assert _case_a1(g, x_mask, b) == (mask_of((1, 2, 4)), mask_of((4,)))

    def test_single_component_matches_brute_force(self, rng):
        for g, s, x, (a1,) in self._cells(rng, 12):
            x_mask, s_mask = mask_of(x), mask_of(s)
            kept, _ = _case_a1(g, x_mask, _b_mask(g, x_mask, s_mask, mask_of(a1)))
            want = g.weight_of(x) + _best_far(g, s, x, [a1], want_components=1)
            assert g.weight_of_mask(kept) == want, (g.edges, s, x, a1)
            assert nx_is_s_forest(g, ids_of(kept), s)

    def test_two_components_match_brute_force(self, rng):
        checked = 0
        for g, s, x, (a1, a2) in self._cells(rng, 14, pairs=True):
            x_mask, s_mask = mask_of(x), mask_of(s)
            b1 = _b_mask(g, x_mask, s_mask, mask_of(a1))
            b2 = _b_mask(g, x_mask, s_mask, mask_of(a2))
            res = _case_a1a2(g, x_mask, s_mask, b1, b2, _cover_weights(g._w))
            best = _best_far(g, s, x, [a1, a2], want_components=2)
            if res is None:
                assert best == 0, (g.edges, s, x, a1, a2)
                continue
            kept = res[0]
            assert g.weight_of_mask(kept) == g.weight_of(x) + best, (g.edges, s, x, a1, a2)
            assert nx_is_s_forest(g, ids_of(kept), s)
            checked += 1
        assert checked > 10


def _best_far(g, s, x, budgets, want_components):
    """Exhaustive best completion: assign each outside vertex to a slot or drop it."""
    rest = [v for v in g.vertices() if v not in set(x) | set(s)]
    budget_sets = [set(b) for b in budgets]
    best = 0
    for assignment in _assignments(len(rest), want_components):
        slots = [[] for _ in range(want_components)]
        for v, slot in zip(rest, assignment):
            if slot >= 0:
                slots[slot].append(v)
        if want_components == 2 and (not slots[0] or not slots[1]):
            continue
        if not _valid_slots(g, x, budget_sets, slots):
            continue
        weight = sum(g.weight_of(c) for c in slots)
        best = max(best, weight)
    return best


def _assignments(count, slots):
    if count == 0:
        yield ()
        return
    for rest in _assignments(count - 1, slots):
        for choice in range(-1, slots):
            yield rest + (choice,)


def _valid_slots(g, x, budget_sets, slots):
    x_set = set(x)
    for i, comp in enumerate(slots):
        comp_set = set(comp)
        if not comp:
            continue
        for v in comp:
            into_x = set(g.neighbors(v)) & x_set
            if not into_x <= budget_sets[i]:
                return False
        # connected?
        seen = {comp[0]}
        stack = [comp[0]]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w in comp_set and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(comp):
            return False
    if len(slots) == 2 and slots[0] and slots[1]:
        for v in slots[0]:
            if set(g.neighbors(v)) & set(slots[1]):
                return False
    return True


class TestWeightedAlpha3:
    def test_empty_s(self):
        sol = solve_wsfvs_alpha3(complete_graph(4), [])
        assert sol.removed == () and sol.objective == 0

    def test_k4_full_s(self):
        sol = solve_wsfvs_alpha3(complete_graph(4), [1, 2, 3, 4])
        assert sol.objective == 2 and sol.removed == (1, 2)

    def test_alpha_four_is_refused(self):
        with pytest.raises(AlphaBoundError) as err:
            solve_wsfvs_alpha3(Graph(4), [1])
        assert err.value.witness == (1, 2, 3, 4)

    def test_matches_oracle_on_random_weighted_instances(self, rng):
        for _ in range(250):
            n = rng.randint(1, 9)
            g = random_bounded_alpha(rng, n, rng.choice([1, 2, 3]), 0.4, wmax=5)
            s = random_subset(rng, n, rng.choice([0.3, 0.6, 0.9]))
            got = solve_wsfvs_alpha3(g, s)
            want = oracle_solve(ProblemInstance(g, "wsfvs", s))
            assert got == want, (g.edges, s)
            assert nx_is_s_forest(
                g, [v for v in g.vertices() if v not in got.removed], s
            )


    @pytest.mark.parametrize(
        "n, objective, removed",
        [
            (10, 11, (1, 3, 5, 9, 10)),
            (14, 12, (1, 2, 3, 6, 7, 8, 14)),
            (18, 31, (1, 2, 3, 5, 7, 8, 10, 17, 18)),
            (22, 38, (2, 4, 6, 7, 9, 12, 14, 15, 16, 18, 22)),
            (26, 39, (1, 5, 8, 14, 17, 18, 19, 20, 21, 22, 23, 24, 26)),
            (30, 40, (2, 3, 4, 6, 8, 9, 10, 11, 17, 19, 20, 24, 25, 28, 29)),
            (34, 53, (1, 2, 3, 6, 7, 8, 10, 11, 12, 13, 17, 18, 24, 28, 30, 31,
                      34)),
        ],
    )
    def test_ladder_beyond_the_oracle_guard(self, n, objective, removed):
        # the benchmark ladder; the pins agree with an independent branch and bound
        inst = generate_instance(n, 3, 0.3, 7, "wsfvs", 0.5, wmax=5)
        got = solve_wsfvs_alpha3(inst.graph, inst.special)
        assert (got.objective, got.removed) == (objective, removed)

    @pytest.mark.parametrize(
        "n, objective, removed",
        [
            (10, 14, (1, 3, 4, 5, 9)),
            (14, 28, (2, 3, 4, 6, 7, 9, 11, 14)),
            (18, 104, (1, 2, 4, 5, 8, 9, 11, 12, 13, 15, 16, 17)),
            (22, 122, (1, 3, 4, 5, 6, 8, 9, 10, 11, 13, 14, 16, 17, 19, 20, 21)),
            (26, 192, (2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 19,
                       20, 22, 23, 24, 25)),
            (30, 237, (1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 16, 18, 19,
                       21, 22, 23, 24, 26, 27, 29, 30)),
            (34, 385, (1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 14, 15, 16, 17, 19, 20,
                       21, 22, 23, 24, 25, 26, 27, 28, 29, 31, 32, 33)),
        ],
    )
    def test_heavy_s_ladder_beyond_the_oracle_guard(self, n, objective, removed):
        # the ladder with S weights times n // 3, so the optimum keeps
        # S-vertices at every n; the pins agree with an independent branch
        # and bound
        inst = generate_instance(n, 3, 0.3, 7, "wsfvs", 0.5, wmax=5)
        got = solve_wsfvs_alpha3(heavy_s(inst.graph, inst.special, n // 3), inst.special)
        assert (got.objective, got.removed) == (objective, removed)

    @pytest.mark.parametrize(
        "g, s, removed",
        [
            # {1, 2, 4} (removing 3) is found first; X = {4} can only tie it,
            # with the far component {1, 3}, and that tie wins
            (Graph(4, [(1, 2), (1, 3), (2, 3)], {1: 2, 4: 2}), (2, 4), (2,)),
            # {1, 2, 3, 5} (removing 4) is found first; X = {5} with the two
            # far components {2} and {3, 4} only ties it, and that tie wins
            (Graph(5, [(1, 3), (1, 4), (3, 4)], {1: 2, 3: 3, 4: 2}), (1, 5), (1,)),
            # the baseline keeps {1, 3} (removing 2); under X = {2} the
            # candidate subtree of {2, 3} skips pool vertex 1, so its cap
            # w(2) + w({1, 3}) - w(1) only ties it, and {2, 3} wins the tie
            (complete_graph(3), (2,), (1,)),
        ],
    )
    def test_a_bound_that_only_ties_the_incumbent_prunes_nothing(self, g, s, removed):
        # the incumbent bounds are exact only with a strict <: an equal-weight
        # completion can still win the tie-break
        got = solve_wsfvs_alpha3(g, s)
        assert got == oracle_solve(ProblemInstance(g, "wsfvs", s))
        assert got.removed == removed

    def test_subtree_bound_prunes_candidates_on_the_ladder(self, monkeypatch):
        # guards against Bound 1 silently becoming dead code
        inst = generate_instance(30, 3, 0.3, 7, "wsfvs", 0.5, wmax=5)
        g, s_mask = inst.graph, mask_of(inst.special)
        unpruned = sum(1 for _ in _s1_candidates(g, s_mask, 3, [0]))
        drawn = 0

        def counted(*args):
            nonlocal drawn
            for cand in _s1_candidates(*args):
                drawn += 1
                yield cand

        monkeypatch.setattr(solvers, "_s1_candidates", counted)
        got = solve_wsfvs_alpha3(g, inst.special)
        assert got.objective == 40
        assert 0 < drawn < unpruned, (drawn, unpruned)

    def test_every_completion_case_wins_on_the_reaching_family(self, monkeypatch):
        produced = {}  # kept mask -> the completion case that returned it
        real_a1, real_a1a2 = solvers._case_a1, solvers._case_a1a2

        def case_a1(*args):
            res = real_a1(*args)
            produced[res[0]] = "one far component"
            return res

        def case_a1a2(*args):
            res = real_a1a2(*args)
            if res is not None:
                produced[res[0]] = "two far components"
            return res

        monkeypatch.setattr(solvers, "_case_a1", case_a1)
        monkeypatch.setattr(solvers, "_case_a1a2", case_a1a2)
        wins = Counter()
        for seed, g, s in reaching_family():
            produced.clear()
            got = solve_wsfvs_alpha3(g, s)
            want = oracle_solve(ProblemInstance(g, "wsfvs", s))
            assert got.removed == want.removed, (seed, g.edges, s)
            kept = g.vertex_mask() & ~mask_of(got.removed)
            if not kept & mask_of(s):
                wins["all of S removed"] += 1
            else:
                wins[produced.get(kept, "X alone")] += 1
        assert len(wins) == 4 and min(wins.values()) >= 10, wins

    def test_weights_times_2_64_keep_every_removed_set(self, monkeypatch):
        # capacities past 64 bits through the bipartite cover, on the family
        # above and on wnmcdt-a2 instances beyond the oracle guard
        cover_values = {solve_wsfvs_alpha3: [], solve_wnmcdt_alpha2: []}
        real_cover = solvers._solve_bipartite_cover
        assert multiway._solve_bipartite_cover is real_cover
        solve = None  # the solver running, set by the loop below

        def cover(*args):
            res = real_cover(*args)
            cover_values[solve].append(res[0])
            return res

        monkeypatch.setattr(solvers, "_solve_bipartite_cover", cover)
        monkeypatch.setattr(multiway, "_solve_bipartite_cover", cover)
        cases = [(solve_wsfvs_alpha3, g, s) for _, g, s in reaching_family()]
        for n in (26, 30):
            inst = generate_instance(n, 2, 0.3, n, "wnmcdt", 0.5, wmax=5)
            cases.append((solve_wnmcdt_alpha2, inst.graph, inst.special))
        for solve, g, s in cases:
            want = solve(g, s)
            scaled = Graph(g.n, g.edges, {v: g.weight(v) << 64 for v in g.vertices()})
            got = solve(scaled, s)
            assert got.removed == want.removed, (solve.__name__, g.edges, s)
            assert got.objective == want.objective << 64
        for values in cover_values.values():
            assert any(value >> 64 for value in values)


class TestUnweightedXP:
    def test_empty_s(self):
        assert solve_sfvs_xp(complete_graph(4), [], 1).removed == ()

    def test_k4_d1(self):
        sol = solve_sfvs_xp(complete_graph(4), [1, 2, 3, 4], 1)
        assert sol.objective == 2

    def test_refuses_weights(self):
        g = Graph(2, [(1, 2)], {1: 2})
        with pytest.raises(PreconditionError):
            solve_sfvs_xp(g, [1], 2)

    def test_refuses_alpha_violation(self):
        with pytest.raises(AlphaBoundError):
            solve_sfvs_xp(Graph(5), [1], 2)

    def test_matches_oracle_per_d(self, rng):
        for d in (1, 2, 3):
            for _ in range(80):
                n = rng.randint(1, 10)
                g = random_bounded_alpha(rng, n, d, 0.4)
                s = random_subset(rng, n, rng.choice([0.3, 0.6]))
                got = solve_sfvs_xp(g, s, d)
                want = oracle_solve(ProblemInstance(g, "sfvs", s))
                assert got == want, (d, g.edges, s)

    def test_agrees_with_weighted_solver_on_unit_weights(self, rng):
        for _ in range(60):
            n = rng.randint(1, 9)
            g = random_bounded_alpha(rng, n, 3, 0.5)
            s = random_subset(rng, n, 0.5)
            assert (
                solve_sfvs_xp(g, s, 3).objective
                == solve_wsfvs_alpha3(g, s).objective
            )

    def test_keep_then_extend_work_pin(self, monkeypatch):
        # a search trying the largest kept S-sets first makes 6,640 S-forest
        # tests here
        inst = generate_instance(14, 3, 0.3, 7, "sfvs", 0.5)
        tested = count_calls(monkeypatch, solvers, "_s_cycle_free")
        ranked = count_calls(monkeypatch, graph, "_before")
        assert solve_sfvs_xp(inst.graph, inst.special, 3).objective == 7
        assert tested[0] < 6640, tested
        # skipping kept S-sets that hold an S-cycle: 2,000 output tests plus
        # 126 kept-set tests here, against 6,477 output tests without
        assert tested[0] < 6477, tested
        # every output test passes when a branch ranks sets past the first
        # one that is not before the incumbent; this count sees it, since a
        # branch ranks at most that one set without testing it
        branches = sum(comb(len(inst.special), k) for k in range(1, 7))
        assert ranked[0] - tested[0] <= branches, (ranked, tested)


class TestCanonicalTieBreak:
    """The exact removed set, not just the objective, is the oracle's."""

    def test_weighted_solver_returns_the_oracles_removed_set(self):
        rng = random.Random(20180518)
        for _ in range(300):
            n = rng.randint(4, 11)
            inst = generate_instance(
                n, rng.randint(1, 3), rng.choice([0.3, 0.6]), rng.randrange(2**31),
                "wsfvs", rng.choice([0.3, 0.6, 0.9]), rng.choice([1, 2]),
            )
            got = solve_wsfvs_alpha3(inst.graph, inst.special)
            want = oracle_solve(inst)
            assert got.removed == want.removed, (inst.graph.edges, inst.special)

    @staticmethod
    def _wnmcdt_family():
        rng = random.Random(20180519)
        for _ in range(30):
            n = rng.randint(4, 10)
            yield generate_instance(
                n, rng.randint(1, 2), rng.choice([0.3, 0.6]), rng.randrange(2**31),
                "wnmcdt", rng.choice([0.3, 0.6]), rng.choice([1, 2]),
            )

    def test_apex_reduction_returns_the_oracles_removed_set(self):
        # the package's direct solver; the apex route is the referee below
        for inst in self._wnmcdt_family():
            got = solve_wnmcdt_alpha2(inst.graph, inst.special)
            want = oracle_solve(inst)
            assert got.removed == want.removed, (inst.graph.edges, inst.special)

    def test_apex_referee_returns_the_oracles_removed_set(self):
        for inst in self._wnmcdt_family():
            got = apex_wnmcdt_alpha2(inst.graph, inst.special)
            want = oracle_solve(inst)
            assert got.removed == want.removed, (inst.graph.edges, inst.special)

    def test_mask_order_agrees_with_removed_tuple_order(self, rng):
        checked = 0
        for _ in range(3000):
            n = rng.randint(1, 12)
            g = random_bounded_alpha(rng, n, 3, 0.0, wmax=rng.choice([1, 2, 3]))
            full = g.vertex_mask()
            k1 = rng.getrandbits(n + 1) & full
            k2 = rng.getrandbits(n + 1) & full
            w1, w2 = g.weight_of_mask(k1), g.weight_of_mask(k2)
            if w1 != w2 or k1 == k2:
                continue
            want = ids_of(full & ~k1) < ids_of(full & ~k2)
            assert _before(-w1, ~k1, -w2, ~k2) == want, (n, k1, k2)
            assert _before(-w2, ~k2, -w1, ~k1) == (not want), (n, k1, k2)
            assert _removed_first(full & ~k1, full & ~k2) == want, (n, k1, k2)
            assert _removed_first(full & ~k2, full & ~k1) == (not want), (n, k1, k2)
            checked += 1
        assert checked > 200

    def test_mask_order_prefers_the_heavier_kept_set(self):
        assert _before(-5, ~0b0110, -4, ~0b1000)
        assert not _before(-4, ~0b1000, -5, ~0b0110)

    def test_lower_objective_wins_against_the_tie_break(self):
        # {2} comes after {1} lexicographically, but its objective is lower
        assert not _removed_first(0b100, 0b010)
        assert _before(2, 0b100, 3, 0b010)
        assert not _before(3, 0b010, 2, 0b100)
