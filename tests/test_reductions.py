import random

import pytest

from sfvs import (
    Graph,
    MulticoloredInstance,
    PreconditionError,
    ProblemInstance,
    TripartiteGraph,
    independence_at_most,
    multicolored_source_optimum,
    oracle_solve,
    reduce_mcis_to_fvs,
    reduce_vc3_to_nmc,
    reduce_vc3_to_wsfvs,
    verify_reduction,
)

from conftest import oracle_clique_cover_at_most


def random_tripartite(rng: random.Random, n: int, p: float) -> TripartiteGraph:
    part_of = [rng.randint(0, 2) for _ in range(n)]
    parts = tuple(
        tuple(v for v in range(1, n + 1) if part_of[v - 1] == i) for i in range(3)
    )
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if part_of[u - 1] != part_of[v - 1] and rng.random() < p
    ]
    return TripartiteGraph(Graph(n, edges), parts)


def random_multicolored(rng: random.Random, k: int, max_class: int, p: float):
    sizes = [rng.randint(1, max_class) for _ in range(k)]
    classes, v = [], 1
    for size in sizes:
        classes.append(tuple(range(v, v + size)))
        v += size
    n = v - 1
    edges = [
        (u, w) for u in range(1, n + 1) for w in range(u + 1, n + 1) if rng.random() < p
    ]
    return MulticoloredInstance(Graph(n, edges), tuple(classes))


def vc_optimum(g: Graph) -> int:
    return oracle_solve(ProblemInstance(g, "vc")).objective


class TestSourceTypes:
    def test_parts_must_be_independent(self):
        with pytest.raises(PreconditionError):
            TripartiteGraph(Graph(2, [(1, 2)]), ((1, 2), (), ()))

    def test_parts_must_cover(self):
        with pytest.raises(PreconditionError):
            TripartiteGraph(Graph(3), ((1,), (2,), ()))

    def test_classes_must_be_nonempty(self):
        with pytest.raises(PreconditionError):
            MulticoloredInstance(Graph(1), ((1,), ()))


class TestVcToWsfvs:
    def test_single_edge_structure(self):
        tg = TripartiteGraph(Graph(2, [(1, 2)]), ((1,), (2,), ()))
        out = reduce_vc3_to_wsfvs(tg, 1)
        g = out.instance.graph
        assert g.n == 6
        assert out.instance.special == (6,)
        assert out.instance.budget == 1
        assert out.mapping == (("r_A", 3), ("r_B", 4), ("r_C", 5), ("s", 6))
        assert g.weight(3) == g.weight(6) == 2 and g.weight(1) == 1
        assert oracle_solve(out.instance).objective == 1

    def test_edgeless_source(self):
        tg = TripartiteGraph(Graph(3), ((1,), (2,), (3,)))
        out = reduce_vc3_to_wsfvs(tg, 2)
        assert oracle_solve(out.instance).objective == 0
        assert verify_reduction(out, 0)

    def test_budget_must_be_below_n(self):
        tg = TripartiteGraph(Graph(2, [(1, 2)]), ((1,), (2,), ()))
        with pytest.raises(PreconditionError):
            reduce_vc3_to_wsfvs(tg, 2)

    def test_random_equivalence_and_alpha(self, rng):
        for _ in range(30):
            tg = random_tripartite(rng, rng.randint(1, 8), rng.random())
            out = reduce_vc3_to_wsfvs(tg, max(tg.graph.n - 1, 0) or 0)
            assert independence_at_most(out.instance.graph, 4)
            assert verify_reduction(out, vc_optimum(tg.graph))


class TestVcToNmc:
    def test_single_edge(self):
        tg = TripartiteGraph(Graph(2, [(1, 2)]), ((1,), (2,), ()))
        out = reduce_vc3_to_nmc(tg, 1)
        assert out.instance.graph.n == 5
        assert out.instance.special == (3, 4, 5)
        assert oracle_solve(out.instance).objective == 1

    def test_random_equivalence_and_alpha(self, rng):
        for _ in range(30):
            tg = random_tripartite(rng, rng.randint(1, 8), rng.random())
            out = reduce_vc3_to_nmc(tg, max(tg.graph.n - 1, 0))
            assert independence_at_most(out.instance.graph, 3)
            assert verify_reduction(out, vc_optimum(tg.graph))


class TestMcisToFvs:
    def test_singleton_class_is_acyclic(self):
        mi = MulticoloredInstance(Graph(1), ((1,),))
        out = reduce_mcis_to_fvs(mi)
        g = out.instance.graph
        assert g.n == 4  # v, x_1, y_1, z
        assert out.instance.budget == 0
        assert out.mapping == (("x_1", 2), ("y_1", 3), ("z", 4))
        assert oracle_solve(out.instance).objective == 0

    def test_transversal_decides_the_budget(self, rng):
        hits = {True: 0, False: 0}
        for _ in range(40):
            mi = random_multicolored(rng, rng.randint(1, 3), 3, 0.5)
            out = reduce_mcis_to_fvs(mi)
            k = len(mi.classes)
            n = mi.graph.n
            assert out.instance.graph.n == n + 2 * k + 1
            assert out.instance.budget == n - k
            src = multicolored_source_optimum(mi)
            exists = src == k
            hits[exists] += 1
            fvs = oracle_solve(out.instance).objective
            assert fvs >= n - k
            assert (fvs == n - k) == exists
            assert verify_reduction(out, src)
            assert oracle_clique_cover_at_most(out.instance.graph, 2 * k + 1)
        assert hits[True] and hits[False]
