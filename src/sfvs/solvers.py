"""Subset feedback vertex set solvers for graphs of small independent set number.

Two algorithms live here.

``solve_wsfvs_alpha3`` solves the weighted problem exactly when alpha(G) <= 3.
It searches over the structure of an optimal S-forest F: split F into the
near layer (the closed neighborhood of the S-vertices that survive) and the
far part (everything at distance >= 2 from surviving S-vertices).  The near
layer is small, at most ``4d - 2`` vertices, so all of its candidates can be
enumerated.  For each candidate X and each way (A_1, ..., A_d') of budgeting
which X-vertices the far components may touch, a "hat" test (adding one proxy
vertex per budget set, adjacent to exactly that set) certifies that any
completion respecting the budgets stays an S-forest.  Completions are then
computed exactly: one far component means picking the heaviest component of
the admissible vertices, two far components reduce to a minimum-weight vertex
cover on a bipartite conflict graph.

The hat tests and the growth of the candidates need no DFS: each candidate X
carries, for every vertex, its component in G[X \\ S] and in G[X], and the
contracted-forest rule in :mod:`sfvs.graph` (stated and proved in that
module's docstring) decides every S-forest test from those labels.

Exact bounds against the best kept set found so far (the incumbent) skip
work that cannot change the answer.  All comparisons are strict: a
completion of equal weight can still win the tie-break.

Bound 1 prunes whole subtrees of the candidate enumeration.  Fix the
surviving S-set sp; every candidate under it is sp plus vertices of the pool
N(sp) \\ S, added in pool order.  Every far vertex of a completion lies in
B(X, A) for some A inside X \\ S, so outside S and outside N(sp), because sp
lies inside X \\ A.  A completion therefore keeps sp, pool vertices of X, and
non-S vertices outside the pool; a pool vertex the enumeration skipped is
never added further down and is never far.  So no candidate in a subtree, nor
any completion of one, keeps more than w(sp) + w(V \\ S) minus the weight of
the pool vertices skipped so far.  The subtree is pruned when that cap is
below the incumbent, and so are its later siblings, which skip even more.

Bound 2 acts on one candidate and one pair.  Every completion of X keeps X
plus far vertices inside B(X, A) for a budget set A inside X \\ S, and
B(X, A) only grows with A, so all of them lie inside X | B(X, X \\ S): when
that set weighs less than the incumbent, X is skipped after its own kept set
is considered.  A pair's completion lies inside X | B(X, A1) | B(X, A2), so
a lighter union skips the pair's hat test and two-component completion.

``solve_sfvs_xp`` solves the unweighted problem for any alpha bound d.  An
S-forest keeps at most 2d S-vertices, so ``sfvs.graph._xp_search`` branches
over the surviving S-set K, removes S \\ K, and finds the fewest non-S
vertices whose removal leaves an S-forest.  Removing all of S is the first
incumbent, so each branch adds at most |K| <= 2d vertices.

Both return the canonical optimum, the first removed set in
``sfvs.graph._before``'s order: minimum objective, ties broken toward the
lexicographically smallest removed set.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .flow import _cover_weights, _solve_bipartite_cover
from .graph import (
    Graph,
    InternalInvariantError,
    PreconditionError,
    _add_vertex,
    _before,
    _bits,
    _relabel,
    _s_cycle_free,
    _touched,
    _xp_search,
    check_vertices,
    components_of_mask,
    ids_of,
    require_alpha,
)
from .oracle import Solution


# -- near-layer candidate enumeration ----------------------------------------


def _s1_candidates(
    g: Graph, s_mask: int, d: int, floor: list[int]
) -> Iterator[tuple[int, list[int], list[int]]]:
    """Every candidate near layer X outside the subtrees Bound 1 prunes, as
    ``(x_mask, ycomp, tree)``.

    A candidate satisfies: |X & S| <= 2d; X \\ S lies inside N(X & S); G[X] is
    an S-forest; and |X| <= 4d - 2 when |X & S| <= 2d - 2, |X| <= 2d
    otherwise.  The empty candidate comes first; the no-surviving-S case is
    handled by the caller's baseline.  The caller checks alpha(G) <= d.

    ``ycomp[v]`` is the mask of v's component in G[X \\ S] (0 for v outside
    X \\ S) and ``tree[v]`` the mask of v's component in G[X] (0 outside X):
    the labels ``_hat_ok`` reads.  Each candidate grows from its parent by one
    vertex v, and ``_add_vertex`` derives the child's labels from the
    parent's, so no candidate runs a DFS or a BFS.  By the contracted-forest
    rule (``sfvs.graph``) G[X + v] stays an S-forest iff the Y-nodes and
    S-vertices v sees lie in distinct trees of G[X] and, if v is in S, v sees
    no Y-node twice.  Adding a vertex to a set with an S-cycle keeps the
    S-cycle, so a rejected vertex prunes every superset.

    ``floor`` is a one-slot list holding the incumbent's kept weight; the
    caller may raise it between yields.  A subtree is pruned once its cap,
    w(sp) + w(V \\ S) minus the pool vertices it skips, falls strictly below
    ``floor[0]`` (Bound 1, proved in the module docstring); ``[0]`` yields
    every candidate.
    """
    adj, w = g._adj, g._w
    non_s = g.weight_of_mask(g.vertex_mask() & ~s_mask)
    none = [0] * (g.n + 1)
    yield 0, none, none
    s_ids = ids_of(s_mask)

    def extend(
        x_mask: int, ycomp: list[int], tree: list[int],
        budget: int, pool: tuple[int, ...], start: int, cap: int,
    ):
        yield x_mask, ycomp, tree
        if budget == 0:
            return
        for i in range(start, len(pool)):
            if cap < floor[0]:
                return  # later children skip even more of the pool
            v = pool[i]
            child = _add_vertex(adj, s_mask, x_mask, ycomp, tree, v)
            if child is not None:
                yield from extend(
                    x_mask | (1 << v), *child, budget - 1, pool, i + 1, cap
                )
            cap -= w[v]  # v is skipped by every later child

    def grow_s(sp_mask: int, tree: list[int], count: int, start: int):
        for i in range(start, len(s_ids)):
            child = _add_vertex(adj, s_mask, sp_mask, none, tree, s_ids[i])
            if child is None:
                continue
            tree2 = child[1]
            m2 = sp_mask | (1 << s_ids[i])
            cnt2 = count + 1
            size = 4 * d - 2 if cnt2 <= 2 * d - 2 else 2 * d
            nm = 0
            for v in _bits(m2):
                nm |= adj[v]
            pool = ids_of(nm & ~s_mask)
            cap = g.weight_of_mask(m2) + non_s
            yield from extend(m2, none, tree2, size - cnt2, pool, 0, cap)
            if cnt2 < 2 * d:
                yield from grow_s(m2, tree2, cnt2, i + 1)

    yield from grow_s(0, none, 0, 0)


# -- hat tests and valid single budget sets ---------------------------------


def _hat_ok(ycomp: list[int], tree: list[int], parts: Sequence[int]) -> bool:
    """S-forest test of the hat graph: G[X] plus one proxy per part.

    ``ycomp``/``tree`` are the candidate's labels from ``_s1_candidates``;
    every part lies inside X \\ S.  A proxy is a new non-S vertex, so by the
    contracted-forest rule it keeps the graph an S-forest iff the Y-nodes its
    part touches lie in distinct trees.  The proxies are added one after the
    other: once a part passes, its Y-nodes form one Y-node with its proxy,
    and its trees one tree, which the next part reads in place of the
    originals.  Any number of parts is handled; the solver forms one or two.
    """
    for a in parts[:-1]:
        joined = _touched(ycomp, tree, a, False)
        if joined is None:
            return False
        ycomp = _relabel(ycomp, joined[0])
        tree = _relabel(tree, joined[1])
    return not parts or _touched(ycomp, tree, parts[-1], False) is not None


def _valid_single_parts(ycomp: list[int], tree: list[int], free: int) -> list[int]:
    """All A inside ``free`` = X \\ S whose one-proxy hat graph stays an S-forest.

    ``ycomp``/``tree`` are the labels ``_hat_ok`` takes.  Validity is
    downward closed (removing proxy edges cannot create a cycle), so the
    subset search prunes whole subtrees on first failure.
    """
    pool = ids_of(free)
    valids = [0]

    def grow(a_mask: int, start: int):
        for i in range(start, len(pool)):
            a2 = a_mask | (1 << pool[i])
            if _hat_ok(ycomp, tree, (a2,)):
                valids.append(a2)
                grow(a2, i + 1)

    grow(0, 0)
    valids.sort()
    return valids


# -- admissible far vertices and the two completion cases --------------------


def _b_mask(g: Graph, x_mask: int, s_mask: int, a_mask: int) -> int:
    """Vertices outside x and S whose whole neighborhood into x sits in ``a``.

    That is every vertex outside x, S and N(x \\ a).  The exclusion uses
    x \\ a (not x \\ (S | a)): a far vertex adjacent to a surviving S-vertex
    would sit in the near layer, so it must be ruled out here as well.
    """
    adj = g._adj
    near = 0
    for u in _bits(x_mask & ~a_mask):
        near |= adj[u]
    return g.vertex_mask() & ~x_mask & ~s_mask & ~near


def _case_a1(g: Graph, x_mask: int, b: int) -> tuple[int, int]:
    """Best completion with a single far component inside ``b`` = B(X, A).

    Returns (kept mask, component mask).
    """
    best = best_weight = 0
    for comp in components_of_mask(g, b):
        weight = g.weight_of_mask(comp)
        if not best or _before(-weight, ~comp, -best_weight, ~best):
            best, best_weight = comp, weight
    return x_mask | best, best


def _case_a1a2(
    g: Graph, x_mask: int, s_mask: int, b1: int, b2: int, weight: Sequence[int]
) -> tuple[int, int, int] | None:
    """Best completion with two far components inside ``b1`` = B(X, A1) and
    ``b2`` = B(X, A2), or None if no pair exists.

    ``weight`` is ``flow._cover_weights(g._w)``, so each pair (w1, w2) gets
    its canonical completion: all it removes outside the cover is fixed.
    Returns (kept mask, component 1 mask, component 2 mask).
    """
    if not b1 or not b2:
        return None
    adj = g._adj
    best = None
    best_weight = 0
    for w1 in _bits(b1):
        w1_bit = 1 << w1
        for w2 in _bits(b2 & ~adj[w1] & ~w1_bit):
            w2_bit = 1 << w2
            b1p = b1 & ~adj[w2] & ~w2_bit & ~w1_bit
            b2p = b2 & ~adj[w1] & ~w1_bit & ~w2_bit
            if b1p & b2p:
                raise InternalInvariantError(
                    "refined candidate sets overlap; an upstream precondition failed"
                )
            for side in (b1p, b2p):
                for v in _bits(side):
                    if side & ~adj[v] & ~(1 << v):
                        raise InternalInvariantError(
                            "refined candidate set is not a clique; "
                            "an upstream precondition failed"
                        )
            _, u_mask = _solve_bipartite_cover(b1p, b2p, adj, weight)
            c1 = w1_bit | (b1p & ~u_mask)
            c2 = w2_bit | (b2p & ~u_mask)
            kept = x_mask | c1 | c2
            if not _s_cycle_free(g, kept, s_mask):
                raise InternalInvariantError(
                    "two-component completion produced an S-cycle"
                )
            far = c1 | c2
            far_weight = g.weight_of_mask(far)
            if best is None or _before(-far_weight, ~far, -best_weight, ~(best[1] | best[2])):
                best, best_weight = (kept, c1, c2), far_weight
    return best


# -- the two top-level solvers ------------------------------------------------


def solve_wsfvs_alpha3(g: Graph, s: Iterable[int]) -> Solution:
    """Minimum-weight subset feedback vertex set for graphs with alpha <= 3.

    Per candidate X the work is shared: every hat test reads the component
    labels the candidate enumeration derived for X, B(X, A) is computed once
    per valid single A, and only pairs of singles whose B sets are both nonempty are
    hat-tested and completed (a pair with an empty side has no two-component
    completion).  Completions compete on masks through ``sfvs.graph``'s
    canonical order as ``_before(-w(kept), ~kept, -w(best), ~best)``, which
    is that order on the removed sets: w(V \\ kept) = w(V) - w(kept) orders
    as -w(kept) does, and ``~kept`` is V \\ kept plus bits every complement
    shares, which ``_removed_first`` ignores.  So the heavier kept set wins,
    and at equal weight the one whose removed set is lexicographically
    smallest.  The completion cases leave out the shared X, which shifts
    both weights alike.

    The incumbent's weight only grows, and it bounds the remaining work
    exactly.  It sits in the one-slot list ``floor``, which ``consider``
    raises and ``_s1_candidates`` reads to prune whole subtrees of
    candidates whose cap falls below it (Bound 1, see the module docstring).
    X is skipped when w(X | B(X, X \\ S)) is below it: every completion of X
    lies inside that set, because B(X, A) grows with A and every budget set A
    lies inside X \\ S.  A pair is skipped when w(X | B1 | B2) is below it,
    since its completion lies inside that union.  Every test is strict
    ``<``: a completion that only ties the incumbent can still win
    ``_before``'s tie-break, so skipping it could change the removed set.
    """
    require_alpha(g, 3)
    s_mask = check_vertices(g, s)
    full = g.vertex_mask()
    cover_weight = _cover_weights(g._w)

    best_kept = full & ~s_mask  # dropping all of S is always feasible
    floor = [g.weight_of_mask(best_kept)]  # the incumbent's kept weight

    def consider(kept: int):
        nonlocal best_kept
        weight = g.weight_of_mask(kept)
        if _before(-weight, ~kept, -floor[0], ~best_kept):
            best_kept, floor[0] = kept, weight

    for x_mask, ycomp, tree in _s1_candidates(g, s_mask, 3, floor):
        if not x_mask:
            continue
        consider(x_mask)  # empty tuple: the forest is G[x] itself
        free = x_mask & ~s_mask
        if g.weight_of_mask(x_mask | _b_mask(g, x_mask, s_mask, free)) < floor[0]:
            continue  # every completion of X lies inside X | B(X, X \ S)
        live = []  # (A, B(X, A)) for the valid singles with a nonempty B
        for a in _valid_single_parts(ycomp, tree, free):
            b = _b_mask(g, x_mask, s_mask, a)
            if b:
                consider(_case_a1(g, x_mask, b)[0])
                live.append((a, b))
        for i, (a1, b1) in enumerate(live):
            for a2, b2 in live[i:]:
                if g.weight_of_mask(x_mask | b1 | b2) < floor[0]:
                    continue  # the pair's completion lies inside X | B1 | B2
                if not _hat_ok(ycomp, tree, (a1, a2)):
                    continue
                res = _case_a1a2(g, x_mask, s_mask, b1, b2, cover_weight)
                if res is not None:
                    consider(res[0])

    if not _s_cycle_free(g, best_kept, s_mask):
        raise InternalInvariantError("chosen forest fails the S-forest check")
    removed = ids_of(full & ~best_kept)
    return Solution(removed, g.weight_of(removed))


def solve_sfvs_xp(g: Graph, s: Iterable[int], d: int) -> Solution:
    """Minimum-size subset feedback vertex set when alpha(G) <= d, unit weights.

    An S-forest keeps at most 2d S-vertices, so ``graph._xp_search`` branches
    over the surviving S-vertices and the fewest non-S vertices that leave
    an S-forest.  A kept S-set that already holds an S-cycle is skipped, as
    every kept set of its branch contains it.
    """
    if d < 1:
        raise PreconditionError(f"d must be >= 1, got {d}")
    if any(w != 1 for w in g._w[1:]):
        raise PreconditionError(
            "solve_sfvs_xp handles unit weights only; "
            "the weighted problem is intractable beyond alpha <= 3"
        )
    require_alpha(g, d)
    s_mask = check_vertices(g, s)

    def s_forest(kept: int) -> bool:
        return _s_cycle_free(g, kept, s_mask)

    size, removed = _xp_search(g, s_mask, 2 * d, s_forest, s_forest)
    return Solution(ids_of(removed), size)
