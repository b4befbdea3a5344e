"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Sizes and tolerances are fixed here, not calibrated: every
equivalence is an exact match against the brute-force oracle.
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import combinations

import pytest

from sfvs import (
    Graph,
    MulticoloredInstance,
    ProblemInstance,
    TripartiteGraph,
    independence_at_most,
    is_s_forest,
    max_flow,
    multicolored_source_optimum,
    oracle_solve,
    reduce_mcis_to_fvs,
    reduce_vc3_to_nmc,
    reduce_vc3_to_wsfvs,
    solve_nmc_alpha2,
    solve_nmcdt_xp,
    solve_sfvs_xp,
    solve_wnmcdt_alpha2,
    solve_wsfvs_alpha3,
    verify_reduction,
)
from sfvs.fileformat import emit_instance
from sfvs.flow import FlowNetwork, _solve_bipartite_cover
from sfvs.generate import generate_instance
from sfvs.graph import ids_of, mask_of

from conftest import (
    atlas_alpha3,
    brute_bipartite_cover_weight,
    neighborhood,
    oracle_clique_cover_at_most,
    random_bounded_alpha,
    random_subset,
)

pytestmark = pytest.mark.acceptance


@contextmanager
def criterion(num: int, name: str, budget_s: float | None = None, extra_s: float = 0.0):
    start = time.perf_counter()
    note = {}
    try:
        yield note
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start + extra_s
    detail = note.get("detail", "")
    print(f"ACCEPTANCE {num} ({name}): PASS {detail}[{elapsed:.1f}s]")
    if budget_s is not None:
        assert elapsed <= budget_s, f"criterion {num} exceeded {budget_s}s"


@pytest.fixture(scope="module")
def exhaustive_suite():
    """Every (graph, S) pair with n <= 6 and alpha <= 3, unit weights."""
    start = time.perf_counter()
    items = []
    for g in atlas_alpha3(6):
        verts = list(g.vertices())
        for r in range(len(verts) + 1):
            for s in combinations(verts, r):
                got = solve_wsfvs_alpha3(g, s)
                want = oracle_solve(ProblemInstance(g, "wsfvs", s))
                items.append((g, s, got, want))
    return items, time.perf_counter() - start


@pytest.fixture(scope="module")
def randomized_weighted_suite():
    """500 generated weighted instances, n <= 9, weights 1..5."""
    start = time.perf_counter()
    items = []
    for seed in range(500):
        n = 4 + seed % 6
        frac = (0.2, 0.4, 0.6, 0.8, 1.0)[seed % 5]
        inst = generate_instance(
            n, alpha=3, p=(0.25, 0.45, 0.65)[seed % 3], seed=seed,
            kind="wsfvs", special_frac=frac, wmax=5,
        )
        got = solve_wsfvs_alpha3(inst.graph, inst.special)
        want = oracle_solve(inst)
        items.append((inst, got, want))
    return items, time.perf_counter() - start


def test_criterion_1_exhaustive_weighted_equivalence(exhaustive_suite):
    items, build_s = exhaustive_suite
    with criterion(1, "WSFVS alpha<=3 exhaustive n<=6", budget_s=600, extra_s=build_s) as note:
        for g, s, got, want in items:
            assert got == want, (g.edges, s, got, want)
        note["detail"] = f"{len(items)} (graph, S) pairs "


def test_criterion_2_randomized_weighted_equivalence(randomized_weighted_suite):
    items, build_s = randomized_weighted_suite
    with criterion(2, "WSFVS alpha<=3 randomized n<=9", budget_s=300, extra_s=build_s) as note:
        for inst, got, want in items:
            assert got == want, (inst, got, want)
        note["detail"] = f"{len(items)} instances "


def test_criterion_3_unweighted_xp_equivalence():
    with criterion(3, "SFVS n^O(d) for d in 1..3", budget_s=600) as note:
        runs = 0
        for d in (1, 2, 3):
            for seed in range(500):
                n = 5 + seed % 8
                inst = generate_instance(
                    n, alpha=d, p=(0.3, 0.5)[seed % 2], seed=10_000 * d + seed,
                    kind="sfvs", special_frac=(0.3, 0.5, 0.8)[seed % 3],
                )
                got = solve_sfvs_xp(inst.graph, inst.special, d)
                want = oracle_solve(inst)
                assert got == want, (d, inst, got, want)
                runs += 1
        note["detail"] = f"{runs} instances "


def test_criterion_4_small_sets_force_cycles():
    with criterion(4, "2d+1 vertices force a cycle; forests keep <=2d of S") as note:
        rng = random.Random(40_404)
        cycles_checked = 0
        for i in range(200):
            d = 1 + i % 3
            n = rng.randint(2 * d + 1, 9)
            g = random_bounded_alpha(rng, n, d, rng.choice([0.2, 0.5, 0.8]))
            verts = list(g.vertices())
            for _ in range(20):
                x = tuple(sorted(rng.sample(verts, 2 * d + 1)))
                assert not is_s_forest(g, x, x), (g.edges, x)
                cycles_checked += 1
            s = random_subset(rng, n, 0.7)
            best = oracle_solve(ProblemInstance(g, "wsfvs", s))
            kept_s = set(s) - set(best.removed)
            assert len(kept_s) <= 2 * d, (g.edges, s, best)
        note["detail"] = f"{cycles_checked} sampled subsets "


def test_criterion_5_near_layer_size_bounds(
    exhaustive_suite, randomized_weighted_suite
):
    with criterion(5, "near-layer size bounds on optimal forests") as note:
        d = 3
        checked = 0
        pool = [(g, s, want) for g, s, _, want in exhaustive_suite[0]]
        pool += [
            (inst.graph, inst.special, want)
            for inst, _, want in randomized_weighted_suite[0]
        ]
        for g, s, want in pool:
            kept = [v for v in g.vertices() if v not in want.removed]
            kept_s = sorted(set(kept) & set(s))
            if not kept_s:
                continue
            layer = set(neighborhood(g, kept_s, closed=True)) & set(kept)
            cap = 4 * d - 2 if len(kept_s) <= 2 * d - 2 else 2 * d
            assert len(layer) <= cap, (g.edges, s, want)
            checked += 1
        note["detail"] = f"{checked} optimal forests "


def test_criterion_6_reduction_equivalences():
    with criterion(6, "reduction generators verified end to end", budget_s=600) as note:
        rng = random.Random(60_606)
        for _ in range(100):
            n = rng.randint(1, 8)
            part_of = [rng.randint(0, 2) for _ in range(n)]
            parts = tuple(
                tuple(v for v in range(1, n + 1) if part_of[v - 1] == i)
                for i in range(3)
            )
            edges = [
                (u, v)
                for u in range(1, n + 1)
                for v in range(u + 1, n + 1)
                if part_of[u - 1] != part_of[v - 1] and rng.random() < 0.5
            ]
            tg = TripartiteGraph(Graph(n, edges), parts)
            vc_opt = oracle_solve(ProblemInstance(tg.graph, "vc")).objective
            out_w = reduce_vc3_to_wsfvs(tg, max(n - 1, 0))
            out_n = reduce_vc3_to_nmc(tg, max(n - 1, 0))
            assert out_w.instance.graph.n == n + 4
            assert independence_at_most(out_w.instance.graph, 4)
            assert independence_at_most(out_n.instance.graph, 3)
            assert verify_reduction(out_w, vc_opt)
            assert verify_reduction(out_n, vc_opt)

        for _ in range(100):
            k = rng.randint(1, 3)
            sizes = [rng.randint(1, 3) for _ in range(k)]
            classes, v = [], 1
            for size in sizes:
                classes.append(tuple(range(v, v + size)))
                v += size
            n = v - 1
            edges = [
                (u, w)
                for u in range(1, n + 1)
                for w in range(u + 1, n + 1)
                if rng.random() < 0.45
            ]
            mi = MulticoloredInstance(Graph(n, edges), tuple(classes))
            out = reduce_mcis_to_fvs(mi)
            assert out.instance.graph.n == n + 2 * k + 1
            assert oracle_clique_cover_at_most(out.instance.graph, 2 * k + 1)
            assert verify_reduction(out, multicolored_source_optimum(mi))
        note["detail"] = "100 sources per reduction "


def test_criterion_7_multiway_oracle_equivalence():
    with criterion(7, "multiway solvers vs oracle") as note:
        rng = random.Random(70_707)
        infeasible_seen = 0
        for _ in range(300):
            n = rng.randint(1, 10)
            g = random_bounded_alpha(rng, n, 2, rng.choice([0.3, 0.6]))
            t = random_subset(rng, n, rng.choice([0.2, 0.4]))
            got = solve_nmc_alpha2(g, t)
            want = oracle_solve(ProblemInstance(g, "nmc", t))
            assert got == want, (g.edges, t, got, want)
            infeasible_seen += not got.feasible
        assert infeasible_seen > 0

        for i in range(300):
            d = 2 + i % 2
            n = rng.randint(1, 10)
            g = random_bounded_alpha(rng, n, d, rng.choice([0.3, 0.6]))
            t = random_subset(rng, n, rng.choice([0.4, 0.7]))
            got = solve_nmcdt_xp(g, t, d)
            want = oracle_solve(ProblemInstance(g, "nmcdt", t))
            assert got == want, (d, g.edges, t, got, want)

        for _ in range(300):
            n = rng.randint(1, 9)
            g = random_bounded_alpha(rng, n, 2, rng.choice([0.3, 0.6]), wmax=6)
            t = random_subset(rng, n, rng.choice([0.4, 0.7]))
            got = solve_wnmcdt_alpha2(g, t)
            want = oracle_solve(ProblemInstance(g, "wnmcdt", t))
            assert got == want, (g.edges, t, got, want)
        note["detail"] = f"3x300 instances, {infeasible_seen} infeasible verdicts agree "


def test_criterion_8_cross_solver_consistency():
    with criterion(8, "cross-solver agreement on shared regimes") as note:
        rng = random.Random(80_808)
        for _ in range(200):
            n = rng.randint(1, 9)
            g = random_bounded_alpha(rng, n, 3, rng.choice([0.3, 0.6]))
            s = random_subset(rng, n, rng.choice([0.4, 0.8]))
            assert (
                solve_wsfvs_alpha3(g, s).objective == solve_sfvs_xp(g, s, 3).objective
            )
        for _ in range(200):
            n = rng.randint(1, 9)
            g = random_bounded_alpha(rng, n, 2, rng.choice([0.3, 0.6]))
            t = random_subset(rng, n, rng.choice([0.4, 0.7]))
            assert (
                solve_wnmcdt_alpha2(g, t).objective
                == solve_nmcdt_xp(g, t, 2).objective
            )
        note["detail"] = "200 + 200 instances "


def test_criterion_9_flow_suite():
    with criterion(9, "max-flow = min-cut and bipartite covers") as note:
        rng = random.Random(90_909)
        for _ in range(200):
            nodes = rng.randint(2, 9)
            arcs = []
            for _ in range(rng.randint(0, 18)):
                u, v = rng.randrange(nodes), rng.randrange(nodes)
                if u != v:
                    arcs.append((u, v, rng.randint(0, 9)))
            net = FlowNetwork(nodes, tuple(arcs), 0, nodes - 1)
            value, cut = max_flow(net)
            cut_set = set(cut)
            merged: dict[tuple[int, int], int] = {}
            for u, v, c in arcs:
                merged[(u, v)] = merged.get((u, v), 0) + c
            assert value == sum(merged[a] for a in cut_set)

        for _ in range(500):
            nl, nr = rng.randint(0, 8), rng.randint(0, 8)
            left = tuple(range(1, nl + 1))
            right = tuple(range(nl + 1, nl + nr + 1))
            edges = [(a, b) for a in left for b in right if rng.random() < 0.35]
            weights = [0] + [rng.randint(1, 9) for _ in left + right]
            adj = Graph(nl + nr, edges)._adj
            _, cover = _solve_bipartite_cover(
                mask_of(left), mask_of(right), adj, weights
            )
            got = ids_of(cover)
            want = brute_bipartite_cover_weight(
                left, right, edges, dict(enumerate(weights))
            )
            assert all(a in got or b in got for a, b in edges)
            assert sum(weights[v] for v in got) == want
        note["detail"] = "200 networks, 500 bipartite instances "


ALGO_FILES = {
    "wsfvs-a3": ("wsfvs", 3, 5),
    "sfvs-xp": ("sfvs", 3, 1),
    "nmc-a2": ("nmc", 2, 1),
    "nmcdt-xp": ("nmcdt", 3, 1),
    "wnmcdt-a2": ("wnmcdt", 2, 4),
    "oracle": ("wsfvs", 3, 3),
}


def test_criterion_10_deterministic_json(tmp_path):
    with criterion(10, "byte-identical JSON across runs and --threads") as note:
        for algo, (kind, alpha, wmax) in ALGO_FILES.items():
            inst = generate_instance(
                8, alpha=alpha, p=0.45, seed=101, kind=kind,
                special_frac=0.4, wmax=wmax,
            )
            path = tmp_path / f"{algo}.txt"
            path.write_text(emit_instance(inst))
            outputs = []
            codes = []
            for threads in ("1", "1", "4"):
                proc = subprocess.run(
                    [
                        sys.executable, "-m", "sfvs", "solve",
                        "--algo", algo, "--input", str(path),
                        "--json", "--threads", threads, "--d", str(alpha),
                    ],
                    capture_output=True, text=True,
                )
                codes.append(proc.returncode)
                assert proc.returncode in (0, 1), proc.stderr
                normalized = re.sub(r'"millis": \d+', '"millis": 0', proc.stdout)
                outputs.append(normalized)
            assert len(set(outputs)) == 1, (algo, outputs)
            assert len(set(codes)) == 1
            json.loads(outputs[0])  # stays well-formed
        note["detail"] = f"{len(ALGO_FILES)} algorithms x 3 runs "
