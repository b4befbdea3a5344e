"""Integer max-flow and the two vertex-cut solvers derived from it.

The network solver runs Dinic phases: a breadth-first search sets levels in
the residual network, then an iterative depth-first search (no recursion, so
networks of any length run) augments along shortest paths until none is
left, neighbours scanned in ascending node id.  Shortest-path augmentation
keeps the number of augmentations independent of the capacities, which
reach 150 bits in ``nmc-a2``'s covers.  The last phase's search reaches no
sink, so its levels mark the source side of the cut.  The cut does not
depend on which maximum flow the phases find: every maximum flow leaves the
same set reachable from the source in its residual network (the source side
of the minimal minimum cut), so the value, ``cut_arcs`` and every cover and
separator read off them are reproducible bit for bit.  Node ids of a
:class:`FlowNetwork` are ``0..node_count-1`` and independent of graph vertex
ids.  The two vertex-cut solvers map vertices to nodes themselves: the
bipartite cover takes vertex masks and per-vertex adjacency and weight
sequences, so its callers pass their own masks and ``Graph`` arrays and get
a mask back; the separator takes a graph and vertex ids.

Infinite capacities are written as ``None``.  Internally they are replaced by
a finite surrogate (one more than the sum of all finite capacities), which
strictly exceeds every finite cut, so arithmetic stays integral.  A
source-to-sink path made of infinite arcs only means the flow value is
unbounded, and :func:`max_flow` raises :class:`UnboundedFlowError` exactly
when its flow value reaches the surrogate.  If such a path exists, every cut
holds one of its arcs, so the maximum flow is at least the surrogate.
Otherwise the nodes the source reaches over infinite arcs exclude the sink
and bound a cut of finite arcs only, worth at most the finite total, which
is below the surrogate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .graph import (
    Graph,
    InternalInvariantError,
    PreconditionError,
    _bits,
    check_vertices,
    ids_of,
)

Capacity = int | None  # None means infinite


class UnboundedFlowError(RuntimeError):
    """The network admits a source-to-sink path of infinite capacity."""


@dataclass(frozen=True)
class FlowNetwork:
    node_count: int
    arcs: tuple[tuple[int, int, Capacity], ...]
    source: int
    sink: int

    def __post_init__(self):
        if self.source == self.sink:
            raise PreconditionError("source and sink must differ")
        for node in (self.source, self.sink):
            if not (0 <= node < self.node_count):
                raise PreconditionError(f"node {node} outside 0..{self.node_count - 1}")
        for u, v, c in self.arcs:
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise PreconditionError(f"arc {u}->{v} has a node outside the network")
            if c is not None and (not isinstance(c, int) or c < 0):
                raise PreconditionError(f"arc {u}->{v} has invalid capacity {c!r}")


class MaxFlowResult(NamedTuple):
    value: int
    cut_arcs: tuple[tuple[int, int], ...]


def max_flow(net: FlowNetwork) -> MaxFlowResult:
    """Integral maximum flow plus the source-side minimum cut.

    Parallel arcs are merged.  ``cut_arcs`` lists the merged arcs of positive
    capacity leading from the source-reachable side of the final residual
    network to the rest; their total capacity equals ``value``.
    """
    n = net.node_count
    cap: list[dict[int, Capacity]] = [dict() for _ in range(n)]
    finite_total = 0
    for u, v, c in net.arcs:
        if u == v:
            continue
        old = cap[u].get(v, 0)
        if c is None or old is None:
            cap[u][v] = None
        else:
            cap[u][v] = old + c
            finite_total += c

    surrogate = finite_total + 1
    res: list[dict[int, int]] = [dict() for _ in range(n)]
    for u in range(n):
        for v, c in cap[u].items():
            res[u][v] = res[u].get(v, 0) + (surrogate if c is None else c)
            res[v].setdefault(u, 0)
    adj = [sorted(res[u]) for u in range(n)]

    value = 0
    s, t = net.source, net.sink
    while True:
        # One Dinic phase: BFS levels in the residual network...
        level = [-1] * n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if u == t:
                break
            up = level[u] + 1
            ru = res[u]
            for v in adj[u]:
                if level[v] < 0 and ru[v] > 0:
                    level[v] = up
                    queue.append(v)
        if level[t] < 0:
            break
        # ...then a blocking flow along level + 1 arcs by iterative DFS.  A
        # node's pointer skips the arcs it has used up; a dead end leaves the
        # level graph.  After an augmentation the path is cut back to the
        # tail of its first saturated arc.
        ptr = [0] * n
        path = [s]
        while path:
            u = path[-1]
            nbrs = adj[u]
            ru = res[u]
            up = level[u] + 1
            for i in range(ptr[u], len(nbrs)):
                v = nbrs[i]
                if level[v] == up and ru[v] > 0:
                    break
            else:
                level[u] = -1
                path.pop()
                continue
            ptr[u] = i
            path.append(v)
            if v != t:
                continue
            bottleneck = min(res[a][b] for a, b in zip(path, path[1:]))
            for i in range(len(path) - 2, -1, -1):
                a, b = path[i], path[i + 1]
                res[a][b] -= bottleneck
                res[b][a] += bottleneck
                if not res[a][b]:
                    first_saturated = i
            del path[first_saturated + 1:]
            value += bottleneck

    if value >= surrogate:
        raise UnboundedFlowError("unbounded: infinite-capacity path from source to sink")

    # The last BFS missed t, so it ran to the end: level >= 0 is s's side.
    cut = tuple(
        sorted(
            (u, v)
            for u in range(n)
            if level[u] >= 0
            for v, c in cap[u].items()
            if level[v] < 0 and (c is None or c > 0)
        )
    )
    return MaxFlowResult(value, cut)


def _solve_bipartite_cover(
    left: int, right: int, adj: Sequence[int], weight: Sequence[int]
) -> tuple[int, int]:
    """Minimum-weight vertex cover of the edges between the disjoint vertex
    masks ``left`` and ``right``: (its weight, one minimum cover as a mask).

    ``adj`` and ``weight`` are indexed by vertex.  Only left-right edges
    count; other bits of ``adj`` are ignored.  The network runs source ->
    left -> right -> sink, nodes numbered left then right in ascending id,
    with each vertex's weight on its source or sink arc and infinite
    left-right arcs.  A minimum cut never holds an infinite arc, so the
    cover is read off the cut's source and sink arcs.  Under
    ``graph._canonical_weights`` no two covers tie, so the minimum cover is
    the canonical one.
    """
    left_ids, right_ids = ids_of(left), ids_of(right)
    order = left_ids + right_ids
    node = {v: i for i, v in enumerate(order, 1)}
    sink = len(order) + 1
    arcs: list[tuple[int, int, Capacity]] = [
        (node[u], node[v], None) for u in left_ids for v in _bits(adj[u] & right)
    ]
    if not arcs:
        return 0, 0
    arcs += [(0, node[u], weight[u]) for u in left_ids]
    arcs += [(node[v], sink, weight[v]) for v in right_ids]
    value, cut = max_flow(FlowNetwork(sink + 1, tuple(arcs), 0, sink))
    cover = 0
    for a, b in cut:
        cover |= 1 << order[(b if a == 0 else a) - 1]
    return value, cover


def min_vertex_separator(
    g: Graph,
    s_side: Iterable[int],
    t_side: Iterable[int],
    forbidden: Iterable[int] = (),
) -> tuple[int, ...] | None:
    """Minimum-weight vertex set outside the protected sets whose removal
    disconnects ``s_side`` from ``t_side``.

    Uses the standard node-splitting construction: the split arc of a
    removable vertex carries its weight, protected vertices and edge arcs are
    infinite.  Returns None when separation is impossible, i.e. the two sides
    touch through protected vertices only.
    """
    sm = check_vertices(g, s_side)
    tm = check_vertices(g, t_side)
    fm = check_vertices(g, forbidden)
    if sm & tm or sm & fm or tm & fm:
        raise PreconditionError("s_side, t_side and forbidden must be pairwise disjoint")
    if not sm or not tm:
        return ()
    protected = sm | tm | fm
    n = g.n

    def v_in(v: int) -> int:
        return 2 * v - 1

    def v_out(v: int) -> int:
        return 2 * v

    sink = 2 * n + 1
    arcs: list[tuple[int, int, Capacity]] = []
    for v in range(1, n + 1):
        capv: Capacity = None if protected >> v & 1 else g.weight(v)
        arcs.append((v_in(v), v_out(v), capv))
    for u, v in g.edge_pairs():
        arcs.append((v_out(u), v_in(v), None))
        arcs.append((v_out(v), v_in(u), None))
    for v in _bits(sm):
        arcs.append((0, v_in(v), None))
    for v in _bits(tm):
        arcs.append((v_out(v), sink, None))
    net = FlowNetwork(sink + 1, tuple(arcs), 0, sink)
    try:
        value, cut = max_flow(net)
    except UnboundedFlowError:
        return None
    removed = sorted((a + 1) // 2 for a, b in cut if b == a + 1 and a % 2 == 1)
    if g.weight_of(removed) != value:
        raise InternalInvariantError(
            f"separator weight {g.weight_of(removed)} does not match flow value {value}"
        )
    return tuple(removed)
