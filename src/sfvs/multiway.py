"""Terminal separation solvers: node multiway cut and its deletable variant.

Three regimes are tractable and implemented here:

* plain node multiway cut (terminals are protected) for alpha(G) <= 2, where
  after the trivial no-instance check at most two terminals exist and one
  max-flow separator finishes the job;
* multiway cut with deletable terminals for alpha(G) <= d, unit weights, by
  branching on which independent set of at most d terminals survives;
* the weighted deletable variant for alpha(G) <= 2, by attaching one heavy
  apex vertex to all terminals and handing the graph to the weighted subset
  feedback vertex set solver (cycles through the apex are exactly the
  terminal-to-terminal paths).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .flow import _solve_bipartite_cover
from .graph import (
    Graph,
    InternalInvariantError,
    PreconditionError,
    _bits,
    _removed_first,
    check_vertices,
    ids_of,
    mask_of,
    require_alpha,
)
from .oracle import Solution, _terminals_separated
from .solvers import solve_wsfvs_alpha3


def check_multiway(
    g: Graph, t: Iterable[int], x: Iterable[int], deletable: bool
) -> bool:
    """Feasibility of a removed set: surviving terminals pairwise disconnected.

    Without ``deletable`` the removed set must avoid the terminals entirely.
    """
    tm = check_vertices(g, t)
    xm = check_vertices(g, x)
    if not deletable and xm & tm:
        return False
    kept = g.vertex_mask() & ~xm
    return _terminals_separated(g, kept, tm & kept)


def solve_nmc_alpha2(g: Graph, t: Iterable[int]) -> Solution:
    """Node multiway cut (terminals protected) for alpha(G) <= 2.

    Adjacent terminals make the instance infeasible outright.  Otherwise the
    terminal set is independent, hence has at most two members t1 and t2,
    and every other vertex sees t1 or t2 (else the three would be
    independent).  Every cut removes the common neighbours C = N(t1) & N(t2).
    The rest of the two neighbourhoods, A = N(t1) - C and B = N(t2) - C, is
    joined only by A-B edges, so the optimum is C plus a minimum vertex cover
    of the bipartite graph between A and B.  Giving vertex v the cover weight
    2^(n+1) - 2^(n-v) makes cardinality dominate and the lowest differing
    vertex break ties, so the one minimum cover is the canonical one.
    """
    require_alpha(g, 2)
    tm = check_vertices(g, t)
    adj = g._adj
    for v in _bits(tm):
        if adj[v] & tm:
            return Solution((), None, False)
    terms = ids_of(tm)
    if len(terms) <= 1:
        return Solution((), 0, True)
    t1, t2 = terms
    common = adj[t1] & adj[t2]
    a = adj[t1] & ~common
    b = adj[t2] & ~common
    n = g.n
    weight = [(1 << (n + 1)) - (1 << (n - v)) for v in range(n + 1)]
    _, cover = _solve_bipartite_cover(a, b, adj, weight)
    removed = ids_of(common | cover)
    if not check_multiway(g, terms, removed, deletable=False):
        raise InternalInvariantError("cut failed the multiway recheck")
    return Solution(removed, len(removed), True)


def _smallest_cut(
    g: Graph, avail_mask: int, t_mask: int, limit: int
) -> tuple[int, int] | None:
    """Smallest X within ``avail`` (|X| <= limit) separating the terminals
    left, as (|X|, X mask).

    First hit in ascending-size, lexicographic order is the canonical optimum.
    """
    ids = ids_of(avail_mask)
    for k in range(min(limit, len(ids)) + 1):
        for members in combinations(ids, k):
            xm = mask_of(members)
            kept = avail_mask & ~xm
            if _terminals_separated(g, kept, t_mask & kept):
                return k, xm
    return None


def solve_nmcdt_xp(g: Graph, t: Iterable[int], d: int) -> Solution:
    """Multiway cut with deletable terminals for alpha(G) <= d, unit weights.

    Removing all terminals is always feasible, so the optimum has at most |T|
    vertices.  With few terminals (|T| <= d) plain subset enumeration works;
    otherwise every solution keeps an independent set T' of at most d
    terminals, so branch over those, delete the rest, and recurse into the
    small case.
    """
    if d < 1:
        raise PreconditionError(f"d must be >= 1, got {d}")
    if any(w != 1 for w in g._w[1:]):
        raise PreconditionError("solve_nmcdt_xp handles unit weights only")
    require_alpha(g, d)
    tm = check_vertices(g, t)
    t_ids = ids_of(tm)
    full = g.vertex_mask()

    if len(t_ids) <= d:
        found = _smallest_cut(g, full, tm, len(t_ids))
        assert found is not None  # X = T is always feasible
        size, xm = found
        return Solution(ids_of(xm), size, True)

    adj = g._adj
    best_size, best = len(t_ids), tm  # keep = 0: removing every terminal
    for keep in range(1, d + 1):
        for t_keep in combinations(t_ids, keep):
            km = mask_of(t_keep)
            if any(adj[v] & km for v in t_keep):
                continue  # surviving terminals must be independent
            um = tm & ~km
            base = um.bit_count()
            if base > best_size:
                continue
            found = _smallest_cut(g, full & ~um, km, min(keep, best_size - base))
            if found is None:
                continue
            size, xm = found
            total = base + size
            removed = um | xm
            if total < best_size or total == best_size and _removed_first(removed, best):
                best_size, best = total, removed
    removed = ids_of(best)
    if not check_multiway(g, t_ids, removed, deletable=True):
        raise InternalInvariantError("deletable-terminal cut failed the recheck")
    return Solution(removed, best_size, True)


def solve_wnmcdt_alpha2(g: Graph, t: Iterable[int]) -> Solution:
    """Weighted multiway cut with deletable terminals for alpha(G) <= 2.

    Adds an apex vertex adjacent to every terminal, with weight equal to the
    whole graph's weight so it can never be worth removing, and solves
    weighted subset feedback vertex set with S = {apex} on the result (which
    has alpha <= 3).
    """
    require_alpha(g, 2)
    tm = check_vertices(g, t)
    terms = ids_of(tm)
    if not terms:
        return Solution((), 0, True)
    apex = g.n + 1
    adj = [a | (tm >> v & 1) << apex for v, a in enumerate(g._adj)]
    adj.append(tm)
    weights = {v: g.weight(v) for v in g.vertices()}
    weights[apex] = g.total_weight()
    extended = Graph._from_adjacency(apex, adj, weights)
    inner = solve_wsfvs_alpha3(extended, (apex,))
    if apex in inner.removed:
        raise InternalInvariantError("the apex outweighs every solution, yet was removed")
    if not check_multiway(g, terms, inner.removed, deletable=True):
        raise InternalInvariantError("apex reduction produced an invalid multiway cut")
    return Solution(inner.removed, g.weight_of(inner.removed), True)
