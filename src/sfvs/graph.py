"""Core graph type and the predicates every solver in this package builds on.

Vertices are 1-based contiguous integers ``1..n``.  A :class:`Graph` is a
simple undirected graph with a positive integer weight per vertex (default 1).
Graphs are immutable after construction, so they can be shared freely between
solvers and threads.

Public functions take vertex sets as plain iterables of ids and return them as
sorted tuples.  Internally everything runs on integer bitmasks (bit ``v``
stands for vertex ``v``; bit 0 is unused), and sets cross between internal
functions only as masks, which keeps the exponential enumerations in the rest
of the package fast enough for exhaustive testing.

Every solver returns the canonical optimum: the removed set of least
weight, ties broken to the lexicographically smallest sorted id tuple.  The
solvers rank sets by one integer, the sum of the perturbed weights
:func:`_canonical_weights`, w'(v) = K w(v) - 2^(n-v) with K = 2^(n+1).  For a
set A, w'(A) = K w(A) - P(A) with P(A) the sum of 2^(n-v) over A, and
0 <= P(A) <= 2^n - 1 < K.  So a lighter set is lighter under w' too, and at
equal weight P decides: P is a set's bits read with vertex 1 highest, so it
is injective, and the larger P holds the lowest vertex where the sets
differ.  That vertex decides the lexicographic order too, as neither of two
equal-weight sets is a strict prefix of the other (weights are positive).
Hence w'(A) < w'(B) iff (w(A), ids(A)) < (w(B), ids(B)), distinct sets never
tie, and w' is positive.  Both unit-weight XP solvers (``sfvs-xp``,
``nmcdt-xp``) run one search in that order, :func:`_xp_search`: keep a few
special vertices, remove the rest of the special set, and extend by the
fewest other vertices that make the kept set feasible.

The central predicate is :func:`is_s_forest`: given a vertex subset ``x`` and
a distinguished set ``s``, decide whether no cycle of ``G[x]`` passes through
a vertex of ``s``.  Every S-forest test in the package, from scratch or while
a set grows, is decided here by one rule, the contracted-forest rule.

Let X be an S-forest and contract every component of G[X \\ S] to one
"Y-node".  In an S-forest a path avoiding S and a path through S cannot join
the same two non-S vertices: the symmetric difference of their edge sets is
an even subgraph holding an edge at the S-vertex, so that edge would lie on a
cycle.  Hence the contraction is a forest (a cycle or a double edge in it
would lift to a cycle through S) in which no two Y-nodes are adjacent, and
any path between two distinct Y-nodes passes through S.  So a new non-S
vertex closes a cycle through S exactly when the nodes it touches (its
Y-nodes and its S-neighbours) are not in distinct trees; two neighbours in
one Y-node close only cycles that avoid S.  A new S-vertex lies on every
cycle it closes, so it closes one exactly when two of its neighbours are
joined in G[X]: when two touched nodes share a tree, or when it sees one
Y-node twice.

It therefore suffices to know, for each vertex, its component in G[X \\ S]
(``ycomp``) and in G[X] (``tree``).  :func:`_add_vertex` derives the labels
of X + v from those of X; :func:`_s_cycle_free` tests a set from scratch by
labelling the components of G[X \\ S], an S-forest with no S-vertex, and
adding the S-vertices one at a time.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Iterator, Mapping, Sequence


class GraphError(ValueError):
    """Rejected graph construction: self-loop, parallel edge, bad id or weight."""


class PreconditionError(ValueError):
    """An operation was invoked outside its documented contract."""


class AlphaBoundError(PreconditionError):
    """A solver that needs alpha(G) <= bound was given a graph that violates it.

    Carries a witness independent set of size ``bound + 1``.
    """

    def __init__(self, bound: int, witness: Iterable[int]):
        self.bound = bound
        self.witness = tuple(witness)
        super().__init__(
            f"independence number exceeds {bound}: "
            f"witness independent set {list(self.witness)}"
        )


class InternalInvariantError(RuntimeError):
    """A fact that must hold by construction failed; indicates an upstream bug."""


def mask_of(ids: Iterable[int]) -> int:
    """Bitmask with bit ``v`` set for every vertex ``v`` in ``ids``."""
    m = 0
    for v in ids:
        m |= 1 << v
    return m


def ids_of(mask: int) -> tuple[int, ...]:
    """Sorted tuple of the vertex ids encoded in ``mask``."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _canonical_weights(w: Sequence[int]) -> list[int]:
    """K*w(v) - 2^(n-v), K = 2^(n+1), per vertex v of the weights ``w``
    (index 0 unused): the perturbed weights whose sums rank removed sets in
    canonical order, as the module docstring proves."""
    n = len(w) - 1
    return [(wv << (n + 1)) - (1 << (n - v)) for v, wv in enumerate(w)]


def _xp_search(
    g: Graph,
    special: int,
    keep_max: int,
    feasible: Callable[[int], bool],
    keep_ok: Callable[[int], bool] | None = None,
) -> tuple[int, int]:
    """The canonical optimum of a unit-weight problem in which at most
    ``keep_max`` vertices of the mask ``special`` survive, as (size, removed
    mask).

    ``feasible(kept)`` decides a kept mask; removing every special vertex
    must pass it, and is the first incumbent.  For each kept set K of 1 to
    ``keep_max`` special vertices, in ascending size and lexicographic order,
    with ``keep_ok(K)`` when given, the branch removes special \\ K plus
    extra sets from the non-special pool in (size, lexicographic) order.

    - The caps are implied: the incumbent removes at most |special|
      vertices, so a branch keeping K tries at most |best| - |special \\ K|
      <= |K| <= ``keep_max`` extra vertices, and none when special \\ K
      alone outgrows the incumbent.
    - The pool leaves out the kept special vertices: a set that removes a
      kept t as an extra vertex is the removed set of branch K - t with one
      fewer extra vertex.  That branch is searched too (K - t = {} being
      the first incumbent), provided ``keep_ok`` holds on subsets of sets it
      holds on, as independence does.
    - Each branch stops at its first feasible set, and at its first set
      whose ``_canonical_weights`` sum is not below the incumbent's: its
      removed sets of equal size share special \\ K, so they differ first at
      an extra vertex, and the extra sets come in lexicographic order.  The
      branch thus yields its sets in canonical order, and none after either
      stop can win.
    """
    full = g.vertex_mask()
    weight = _canonical_weights(g._w)
    ids = ids_of(special)
    pool = ids_of(full & ~special)
    pool_weight = [weight[v] for v in pool]
    best = special
    special_weight = best_weight = sum(weight[v] for v in ids)
    for keep in range(1, keep_max + 1):
        base = len(ids) - keep
        for kept in combinations(ids, keep):
            km = mask_of(kept)
            if keep_ok is not None and not keep_ok(km):
                continue
            fixed = special & ~km
            fixed_weight = special_weight - sum(weight[v] for v in kept)
            # pool_weight lines up with pool, so the second combinations
            # yields the weights of the extra set the first one yields
            for extra, extra_weight in (
                pair
                for k in range(best.bit_count() - base + 1)
                for pair in zip(combinations(pool, k), combinations(pool_weight, k))
            ):
                removed = fixed | mask_of(extra)
                removed_weight = fixed_weight + sum(extra_weight)
                if removed_weight >= best_weight:
                    break
                if feasible(full & ~removed):
                    best, best_weight = removed, removed_weight
                    break
    return best.bit_count(), best


class Graph:
    """Simple undirected vertex-weighted graph on vertices ``1..n``.

    The edges are stored once, as one adjacency mask per vertex; ``edges``
    derives the edge set from the masks on first use.
    """

    __slots__ = ("n", "_edges", "_w", "_adj")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        weights: Mapping[int, int] | None = None,
    ):
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        adj = [0] * (n + 1)
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise GraphError(f"edge {u}-{v} has an endpoint outside 1..{n}")
            if adj[u] >> v & 1:
                raise GraphError(f"parallel edge {min(u, v)}-{max(u, v)}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._init(n, adj, weights)

    @classmethod
    def _from_adjacency(
        cls, n: int, adj: list[int], weights: Mapping[int, int] | None
    ) -> Graph:
        """A graph on masks its caller already validated: ``adj`` has n + 1
        entries, is symmetric and holds no self-loop and no bit outside 1..n.
        Only the weights are checked."""
        g = cls.__new__(cls)
        g._init(n, adj, weights)
        return g

    def _init(self, n: int, adj: list[int], weights: Mapping[int, int] | None) -> None:
        w = [1] * (n + 1)
        w[0] = 0
        if weights:
            for v, wv in weights.items():
                if not (1 <= v <= n):
                    raise GraphError(f"weight given for unknown vertex {v}")
                if not isinstance(wv, int) or wv < 1:
                    raise GraphError(f"weight of vertex {v} must be a positive integer")
                w[v] = wv
        self.n = n
        self._adj = tuple(adj)
        self._w = tuple(w)
        self._edges = None  # derived on first use, see ``edges``

    # -- basic accessors ---------------------------------------------------

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Every edge as ``(u, v)`` with u < v, derived from the masks on
        first use."""
        if self._edges is None:
            self._edges = frozenset(self.edge_pairs())
        return self._edges

    def edge_pairs(self) -> Iterator[tuple[int, int]]:
        """Every edge as ``(u, v)`` with u < v, in ascending order."""
        adj = self._adj
        for u in range(1, self.n + 1):
            for v in _bits(adj[u] >> (u + 1) << (u + 1)):
                yield u, v

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self._adj) // 2

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def vertex_mask(self) -> int:
        """Mask of all vertices."""
        return (1 << (self.n + 1)) - 2

    def weight(self, v: int) -> int:
        return self._w[v]

    def weight_of(self, ids: Iterable[int]) -> int:
        return sum(self._w[v] for v in ids)

    def weight_of_mask(self, mask: int) -> int:
        w = self._w
        total = 0
        for v in _bits(mask):
            total += w[v]
        return total

    def adj_mask(self, v: int) -> int:
        return self._adj[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return ids_of(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1) if 1 <= u <= self.n and 1 <= v <= self.n else False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj and self._w == other._w

    def __hash__(self) -> int:
        return hash((self.n, self._adj, self._w))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def check_vertices(g: Graph, ids: Iterable[int]) -> int:
    """Validate ``ids`` against ``g`` and return them as a mask."""
    m = 0
    for v in ids:
        if not (1 <= v <= g.n):
            raise PreconditionError(f"vertex {v} is not in 1..{g.n}")
        m |= 1 << v
    return m


def components_of_mask(g: Graph, mask: int) -> list[int]:
    """Connected components of ``G[mask]`` as masks, ordered by smallest vertex."""
    adj = g._adj
    comps = []
    todo = mask
    while todo:
        b = todo & -todo
        comp = b
        frontier = b
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= adj[v]
            frontier = nxt & mask & ~comp
            comp |= frontier
        comps.append(comp)
        todo &= ~comp
    return comps


# -- S-forests: the contracted-forest rule ---------------------------------


def _s_cycle_free(g: Graph, kept: int, s_mask: int) -> bool:
    """True iff no cycle of ``G[kept]`` meets ``s_mask``.

    Starts from the components of G[kept \\ S], which hold no S-vertex and
    so form an S-forest whose trees are its Y-nodes, and adds the S-vertices
    of ``kept`` one at a time by the contracted-forest rule (module
    docstring), stopping at the first one that closes a cycle through S.
    """
    adj = g._adj
    x_mask = kept & ~s_mask
    ycomp = [0] * (g.n + 1)
    for comp in components_of_mask(g, x_mask):
        _label(ycomp, comp)
    # Only S-vertices are added, so ycomp stays as it is and tree alone is
    # relabelled, in place: no earlier labelling is needed again.
    tree = ycomp[:]
    for v in _bits(kept & s_mask):
        joined = _touched(ycomp, tree, adj[v] & x_mask, True)
        if joined is None:
            return False
        _label(tree, joined[1] | 1 << v)
        x_mask |= 1 << v
    return True


def is_s_forest(g: Graph, x: Iterable[int], s: Iterable[int]) -> bool:
    """Decide whether ``G[x]`` is an S-forest: no cycle of it meets ``s``.

    Only ``s & x`` matters; members of ``s`` outside ``x`` are ignored.
    """
    xm = check_vertices(g, x)
    sm = check_vertices(g, s)
    return _s_cycle_free(g, xm, sm)


def _add_vertex(
    adj: Sequence[int], s_mask: int, x_mask: int,
    ycomp: list[int], tree: list[int], v: int,
) -> tuple[list[int], list[int]] | None:
    """Labels of X + v, or None if G[X + v] is not an S-forest.

    X is an S-forest; ``ycomp[v]`` is the mask of v's component in G[X \\ S]
    (0 for v outside X \\ S) and ``tree[v]`` the mask of v's component in
    G[X] (0 outside X).  The new tree is v plus the trees v touches; for v
    outside S the new Y-node is v plus the Y-nodes v touches.  The parent's
    lists are copied, never changed.
    """
    v_bit = 1 << v
    in_s = bool(s_mask & v_bit)
    joined = _touched(ycomp, tree, adj[v] & x_mask, in_s)
    if joined is None:
        return None
    if not in_s:
        ycomp = _relabel(ycomp, joined[0] | v_bit)
    return ycomp, _relabel(tree, joined[1] | v_bit)


def _touched(
    ycomp: Sequence[int], tree: Sequence[int], nb: int, in_s: bool
) -> tuple[int, int] | None:
    """What a new vertex with neighbours ``nb`` in the S-forest X joins.

    Returns the union of the Y-nodes and the union of the trees it touches,
    or None if it closes a cycle through S.  It touches one node per Y-node
    it sees plus one per S-neighbour.  By the contracted-forest rule in the
    module docstring a cycle through S closes exactly when two touched nodes
    share a tree, or when the vertex is in S (``in_s``) and sees one Y-node
    twice; two neighbours in one Y-node close only cycles that avoid S.
    """
    y_all = t_all = 0
    rest = nb
    while rest:
        u = (rest & -rest).bit_length() - 1
        t = tree[u]
        if t & t_all:
            return None
        t_all |= t
        y = ycomp[u]
        if y:
            if in_s:
                seen = nb & y
                if seen & (seen - 1):
                    return None
            y_all |= y
            rest &= ~y
        else:
            rest &= rest - 1
    return y_all, t_all


def _relabel(labels: list[int], mask: int) -> list[int]:
    """A copy of ``labels`` with every vertex of ``mask`` labelled ``mask``."""
    labels = labels[:]
    _label(labels, mask)
    return labels


def _label(labels: list[int], mask: int) -> None:
    """Label every vertex of ``mask`` with ``mask``, in place."""
    rest = mask
    while rest:
        b = rest & -rest
        labels[b.bit_length() - 1] = mask
        rest ^= b


# -- independence number utilities ------------------------------------------


def find_independent_set(g: Graph, k: int) -> tuple[int, ...] | None:
    """Lexicographically smallest independent set of size ``k``, or None.

    First a certificate: cover V greedily by k - 1 cliques, each started at
    the lowest vertex left and grown by the lowest common neighbour.  An
    independent set meets each clique at most once, so if they cover V there
    is none of size k, and the answer is None after O(k n) mask operations.
    Otherwise an exact branch-and-prune search, meant for desk-scale graphs,
    decides: it returns the first witness in lexicographic order, or None
    where alpha < k although the greedy cover failed.
    """
    if k <= 0:
        return ()
    adj = g._adj
    rest = g.vertex_mask()
    for _ in range(k - 1):
        grow = rest
        while grow:
            b = grow & -grow
            rest ^= b
            grow &= adj[b.bit_length() - 1]
    if not rest:
        return None
    chosen: list[int] = []

    def extend(allowed: int, need: int) -> bool:
        if need == 0:
            return True
        m = allowed
        while m:
            if m.bit_count() < need:
                return False
            b = m & -m
            v = b.bit_length() - 1
            chosen.append(v)
            if extend(m & ~adj[v] & ~b & ~(b - 1), need - 1):
                return True
            chosen.pop()
            m ^= b
        return False

    if extend(g.vertex_mask(), k):
        return tuple(chosen)
    return None


def require_alpha(g: Graph, d: int) -> None:
    """Raise :class:`AlphaBoundError` with a witness unless alpha(G) <= d.

    The one independence-bound guard every bounded-alpha solver runs, at
    every n.  A greedy cover of V by d cliques proves the bound in O(d n)
    mask operations; generated instances plant such a cover.  When the
    greedy cover fails, the exact search costs at most n^(d+1), no more than
    the solvers' own enumeration.
    """
    witness = find_independent_set(g, d + 1)
    if witness is not None:
        raise AlphaBoundError(d, witness)


def independence_at_most(g: Graph, d: int) -> bool:
    """True iff alpha(G) <= d, by exhaustive search for a (d+1)K1."""
    if d < 1:
        raise PreconditionError(f"d must be >= 1, got {d}")
    return find_independent_set(g, d + 1) is None

