"""Terminal separation solvers: node multiway cut and its deletable variant.

Three regimes are tractable and implemented here:

* plain node multiway cut (terminals are protected) for alpha(G) <= 2, where
  after the trivial no-instance check at most two terminals exist and one
  pair cut (``_pair_cut``) finishes the job;
* multiway cut with deletable terminals for alpha(G) <= d, unit weights, by
  ``sfvs.graph._xp_search``: it branches on which independent set of at
  most d terminals survives, removes the other terminals, and finds the
  fewest non-terminals that cut the survivors apart;
* the weighted deletable variant for alpha(G) <= 2: surviving terminals are
  independent, so at most two survive, and the optimum keeps none, one, or a
  non-adjacent pair cut apart by the same pair cut.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .flow import _cover_weights, _solve_bipartite_cover
from .graph import (
    Graph,
    InternalInvariantError,
    PreconditionError,
    _before,
    _bits,
    _xp_search,
    check_vertices,
    ids_of,
    require_alpha,
)
from .oracle import ProblemInstance, Solution, _terminals_separated, feasible_removed


def check_multiway(
    g: Graph, t: Iterable[int], x: Iterable[int], deletable: bool
) -> bool:
    """Feasibility of a removed set: surviving terminals pairwise disconnected.

    Without ``deletable`` the removed set must avoid the terminals entirely.
    The oracle's checker decides, on an ``nmcdt`` or ``nmc`` instance.
    """
    inst = ProblemInstance(g, "nmcdt" if deletable else "nmc", tuple(t))
    return feasible_removed(inst, tuple(x))


def _pair_cut(adj: list[int], weight: list[int], t1: int, t2: int, gone: int) -> int:
    """The canonical minimum cut, as a mask, between non-adjacent t1 and t2
    in G - gone, where every other vertex sees t1 or t2.

    Every cut removes the common neighbours C.  The rest of the two
    neighbourhoods, A = N(t1) - N(t2) and B = N(t2) - N(t1), is joined only
    by A-B edges, so the optimum is C plus a minimum cover of those edges,
    the canonical one under the ``flow._cover_weights`` list ``weight``.
    """
    a, b = adj[t1] & ~gone, adj[t2] & ~gone
    _, cover = _solve_bipartite_cover(a & ~b, b & ~a, adj, weight)
    return (a & b) | cover


def solve_nmc_alpha2(g: Graph, t: Iterable[int]) -> Solution:
    """Node multiway cut (terminals protected) for alpha(G) <= 2.

    Adjacent terminals make the instance infeasible outright.  Otherwise the
    terminal set is independent, hence has at most two members t1 and t2,
    every other vertex sees t1 or t2 (else the three would be independent),
    and the optimum is their ``_pair_cut`` at unit weights.
    """
    require_alpha(g, 2)
    tm = check_vertices(g, t)
    adj = g._adj
    for v in _bits(tm):
        if adj[v] & tm:
            return Solution((), None)
    terms = ids_of(tm)
    if len(terms) <= 1:
        return Solution((), 0)
    t1, t2 = terms
    removed = ids_of(_pair_cut(adj, _cover_weights([1] * (g.n + 1)), t1, t2, 0))
    if not check_multiway(g, terms, removed, deletable=False):
        raise InternalInvariantError("cut failed the multiway recheck")
    return Solution(removed, len(removed))


def solve_nmcdt_xp(g: Graph, t: Iterable[int], d: int) -> Solution:
    """Multiway cut with deletable terminals for alpha(G) <= d, unit weights.

    Surviving terminals are pairwise disconnected, so they form an
    independent set T' of at most d terminals.  ``graph._xp_search``
    branches over those: it removes U = T - T' and finds the fewest
    non-terminals whose removal cuts T' apart in G - U.
    """
    if d < 1:
        raise PreconditionError(f"d must be >= 1, got {d}")
    if any(w != 1 for w in g._w[1:]):
        raise PreconditionError("solve_nmcdt_xp handles unit weights only")
    require_alpha(g, d)
    tm = check_vertices(g, t)
    adj = g._adj
    size, best = _xp_search(
        g, tm, d,
        lambda kept: _terminals_separated(g, kept, tm & kept),
        lambda km: not any(adj[v] & km for v in _bits(km)),
    )
    removed = ids_of(best)
    if not check_multiway(g, ids_of(tm), removed, deletable=True):
        raise InternalInvariantError("deletable-terminal cut failed the recheck")
    return Solution(removed, size)


def solve_wnmcdt_alpha2(g: Graph, t: Iterable[int]) -> Solution:
    """Weighted multiway cut with deletable terminals for alpha(G) <= 2.

    Surviving terminals are pairwise disconnected, so non-adjacent; with
    alpha <= 2 at most two survive.  So the best removed set that keeps no
    terminal is T, the best that keeps t alone is T - t, and the best that
    keeps a non-adjacent pair t1 < t2 is U = T - {t1, t2} plus the cut
    between them in G - U, where every other vertex sees t1 or t2 (else the
    three are independent).  That cut is ``_pair_cut``'s: U and the common
    neighbours lie in every cut of the pair, so its canonical cover makes it
    the pair's canonical best.  The optimum is the first of these candidates
    in ``_before``'s order: by weight, then by ``_removed_first``.
    """
    require_alpha(g, 2)
    tm = check_vertices(g, t)
    terms = ids_of(tm)
    adj, weight = g._adj, _cover_weights(g._w)
    candidates = [tm & ~(1 << v) for v in terms]
    for t1, t2 in combinations(terms, 2):
        if not adj[t1] >> t2 & 1:
            gone = tm & ~(1 << t1) & ~(1 << t2)
            candidates.append(gone | _pair_cut(adj, weight, t1, t2, gone))
    best, best_weight = tm, g.weight_of_mask(tm)
    for cand in candidates:
        cw = g.weight_of_mask(cand)
        if _before(cw, cand, best_weight, best):
            best, best_weight = cand, cw
    removed = ids_of(best)
    if not check_multiway(g, terms, removed, deletable=True):
        raise InternalInvariantError("deletable-terminal cut failed the recheck")
    return Solution(removed, best_weight)
