"""Metamorphic properties of the five solvers, checked with Hypothesis.

Each property transforms an instance in a way whose effect on the answer is
known without solving it: scaling every weight, reversing the vertex ids,
adding an isolated vertex outside S / T.  One more property pins the graph
itself: an instance survives emission and parsing unchanged.  Examples are
derandomized, so the suite draws the same instances on every run.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfvs import (
    Graph,
    ProblemInstance,
    solve_nmc_alpha2,
    solve_nmcdt_xp,
    solve_sfvs_xp,
    solve_wnmcdt_alpha2,
    solve_wsfvs_alpha3,
)
from sfvs.fileformat import emit_instance, parse_instance

# name -> (solve(g, special), alpha bound, largest weight, largest |special|)
SOLVERS = {
    "wsfvs-a3": (solve_wsfvs_alpha3, 3, 5, 8),
    "sfvs-xp": (lambda g, s: solve_sfvs_xp(g, s, 3), 3, 1, 8),
    "nmc-a2": (solve_nmc_alpha2, 2, 1, 2),
    "nmcdt-xp": (lambda g, t: solve_nmcdt_xp(g, t, 2), 2, 1, 8),
    "wnmcdt-a2": (solve_wnmcdt_alpha2, 2, 5, 8),
}
WEIGHTED = ("wsfvs-a3", "wnmcdt-a2")

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None, database=None)


@st.composite
def instances(draw, alpha: int, wmax: int, max_special: int, max_n: int = 8):
    """A graph with alpha(G) <= alpha (``alpha`` planted cliques plus random
    edges between them) and a set of special vertices."""
    n = draw(st.integers(1, max_n))
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u - v) % alpha == 0 or draw(st.booleans())
    ]
    weights = {v: draw(st.integers(1, wmax)) for v in range(1, n + 1)}
    special = draw(st.sets(st.integers(1, n), max_size=min(max_special, n)))
    return Graph(n, edges, weights), tuple(sorted(special))


@pytest.mark.parametrize("name", WEIGHTED)
@SETTINGS
@given(data=st.data(), c=st.integers(2, 5))
def test_scaling_weights_scales_the_objective_only(name, data, c):
    solve, alpha, wmax, max_special = SOLVERS[name]
    g, special = data.draw(instances(alpha, wmax, max_special))
    scaled = Graph(g.n, g.edges, {v: c * g.weight(v) for v in g.vertices()})
    base, big = solve(g, special), solve(scaled, special)
    assert big.removed == base.removed
    assert big.objective == c * base.objective


@pytest.mark.parametrize("name", list(SOLVERS))
@SETTINGS
@given(data=st.data())
def test_reversing_vertex_ids_keeps_the_objective(name, data):
    solve, alpha, wmax, max_special = SOLVERS[name]
    g, special = data.draw(instances(alpha, wmax, max_special))
    flip = {v: g.n + 1 - v for v in g.vertices()}
    mirrored = Graph(
        g.n,
        [(flip[u], flip[v]) for u, v in g.edges],
        {flip[v]: g.weight(v) for v in g.vertices()},
    )
    got = solve(mirrored, [flip[v] for v in special])
    want = solve(g, special)
    assert (got.objective, got.feasible) == (want.objective, want.feasible)


@pytest.mark.parametrize("name", list(SOLVERS))
@SETTINGS
@given(data=st.data())
def test_an_isolated_outside_vertex_changes_nothing(name, data):
    solve, alpha, wmax, max_special = SOLVERS[name]
    # one planted clique fewer than the bound, so the new vertex keeps
    # alpha(G) within the solver's guard
    g, special = data.draw(instances(alpha - 1, wmax, max_special))
    grown = Graph(g.n + 1, g.edges, {v: g.weight(v) for v in g.vertices()})
    assert solve(grown, special) == solve(g, special)


@st.composite
def graph_files(draw):
    """Arguments of a random instance: a graph with each edge given in a
    random orientation, trailing isolated vertices, weights, kind, special
    set and budget."""
    core = draw(st.integers(0, 8))
    n = core + draw(st.integers(0, 3))
    pairs = [(u, v) for u in range(1, core + 1) for v in range(u + 1, core + 1)]
    chosen = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]
    weights = {v: draw(st.integers(1, 9)) for v in range(1, n + 1)}
    kind = draw(st.sampled_from(["wsfvs", "sfvs", "fvs", "nmc", "nmcdt", "wnmcdt"]))
    if kind == "fvs":
        special = tuple(range(1, n + 1))
    else:
        special = tuple(sorted(draw(st.sets(st.integers(1, n)) if n else st.just(set()))))
    budget = draw(st.one_of(st.none(), st.integers(0, 12)))
    return n, edges, weights, kind, special, budget


@settings(SETTINGS, max_examples=100)
@given(graph_files())
@example((0, [], {}, "sfvs", (), None))
@example((3, [], {}, "fvs", (1, 2, 3), None))
def test_an_instance_survives_the_file_format(args):
    n, edges, weights, kind, special, budget = args
    inst = ProblemInstance(Graph(n, edges, weights), kind, special, budget)
    parsed = parse_instance(emit_instance(inst))
    assert parsed == inst and hash(parsed) == hash(inst)
    g = parsed.graph
    assert Graph(n, edges, weights) == g and hash(Graph(n, edges, weights)) == hash(g)
    assert g.edges == {(min(u, v), max(u, v)) for u, v in edges}
    assert g.edge_count() == len(edges)
