"""Shared builders and independent brute-force oracles for the test suite.

The brute-force helpers here deliberately use different algorithms than the
package (subset enumeration or networkx's biconnected blocks instead of the
contracted-forest rule, one-sided enumeration instead of flow) so that
agreement actually means something.
"""

from __future__ import annotations

import random
from collections import deque
from functools import lru_cache
from itertools import combinations

import networkx as nx
import pytest

from sfvs import Graph, PreconditionError, independence_at_most
from sfvs.flow import FlowNetwork, MaxFlowResult, UnboundedFlowError
from sfvs.graph import (
    InternalInvariantError,
    _bits,
    check_vertices,
    components_of_mask,
    ids_of,
    mask_of,
    require_alpha,
)
from sfvs.multiway import check_multiway
from sfvs.oracle import Solution
from sfvs.solvers import solve_wsfvs_alpha3


def complete_graph(n: int, weights=None) -> Graph:
    return Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)], weights)


def path_graph(n: int, weights=None) -> Graph:
    return Graph(n, [(v, v + 1) for v in range(1, n)], weights)


def cycle_graph(n: int, weights=None) -> Graph:
    return Graph(n, [(v, v + 1) for v in range(1, n)] + [(1, n)], weights)


def random_graph(rng: random.Random, n: int, p: float, wmax: int = 1) -> Graph:
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    weights = {v: rng.randint(1, wmax) for v in range(1, n + 1)} if wmax > 1 else None
    return Graph(n, edges, weights)


def random_bounded_alpha(
    rng: random.Random, n: int, alpha: int, p: float, wmax: int = 1
) -> Graph:
    """Random graph with alpha(G) <= alpha by construction (clique cover)."""
    chunk_of = {v: (v - 1) % alpha for v in range(1, n + 1)}
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if chunk_of[u] == chunk_of[v] or rng.random() < p:
                edges.append((u, v))
    weights = {v: rng.randint(1, wmax) for v in range(1, n + 1)} if wmax > 1 else None
    return Graph(n, edges, weights)


def random_subset(rng: random.Random, n: int, p: float) -> tuple[int, ...]:
    return tuple(v for v in range(1, n + 1) if rng.random() < p)


def heavy_s(g: Graph, s, factor: int) -> Graph:
    """``g`` with every S-vertex's weight multiplied by ``factor``.

    Generated graphs plant cliques, and a surviving S-vertex keeps at most one
    neighbour per clique, so at unit S weights removing all of S tends to win;
    S-vertices about as heavy as a clique make the optimum keep some of them.
    """
    s_set = set(s)
    weights = {v: g.weight(v) * (factor if v in s_set else 1) for v in g.vertices()}
    return Graph(g.n, g.edges, weights)


@lru_cache(maxsize=1)
def atlas_graphs(max_n: int = 6) -> tuple[Graph, ...]:
    """Every graph on 1..max_n vertices, one per isomorphism class."""
    out = []
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if n < 1 or n > max_n:
            continue
        mapping = {old: i + 1 for i, old in enumerate(sorted(G.nodes()))}
        out.append(Graph(n, [(mapping[u], mapping[v]) for u, v in G.edges()]))
    return tuple(out)


def atlas_alpha3(max_n: int = 6) -> list[Graph]:
    return [g for g in atlas_graphs(max_n) if independence_at_most(g, 3)]


def neighborhood(g: Graph, x, closed: bool = False) -> tuple[int, ...]:
    """Open neighborhood ``N(x)`` of a vertex set, or ``N[x]`` when closed."""
    xm = check_vertices(g, x)
    nm = 0
    for v in _bits(xm):
        nm |= g.adj_mask(v)
    return ids_of(nm | xm if closed else nm & ~xm)


# -- independent oracles -------------------------------------------------------


def naive_is_s_forest(g: Graph, x, s) -> bool:
    """S-forest test by enumerating induced cycles as vertex subsets.

    A vertex lies on a cycle iff it lies on a chordless one (a chord splits a
    shortest cycle through it into a shorter one), and a chordless cycle is
    exactly a subset inducing a connected 2-regular graph.
    """
    xs = sorted(set(x))
    s_in = set(s) & set(xs)
    for size in range(3, len(xs) + 1):
        for ys in combinations(xs, size):
            if not s_in.intersection(ys):
                continue
            yset = set(ys)
            degs = [len([u for u in g.neighbors(v) if u in yset]) for v in ys]
            if any(d != 2 for d in degs):
                continue
            # 2-regular: a disjoint union of cycles; connected iff one cycle
            seen = {ys[0]}
            frontier = [ys[0]]
            while frontier:
                v = frontier.pop()
                for u in g.neighbors(v):
                    if u in yset and u not in seen:
                        seen.add(u)
                        frontier.append(u)
            if len(seen) == size:
                return False
    return True


def nx_is_s_forest(g: Graph, x, s) -> bool:
    """S-forest test from ``networkx.biconnected_components``.

    A vertex lies on a cycle of G[x] iff it belongs to a block of G[x] with
    three or more vertices.
    """
    G = nx.Graph()
    G.add_nodes_from(x)
    G.add_edges_from((u, v) for u, v in g.edges if u in G and v in G)
    s_in = set(s) & set(x)
    return not any(
        len(block) > 2 and block & s_in for block in nx.biconnected_components(G)
    )


def max_independent_set(g: Graph) -> tuple[int, ...]:
    """A maximum independent set, lexicographically smallest among the ties."""
    adj = g._adj
    memo: dict[int, int] = {0: 0}

    def best(allowed: int) -> int:
        res = memo.get(allowed)
        if res is not None:
            return res
        b = allowed & -allowed
        v = b.bit_length() - 1
        res = max(best(allowed ^ b), 1 + best(allowed & ~adj[v] & ~b))
        memo[allowed] = res
        return res

    full = g.vertex_mask()
    need = best(full)
    chosen: list[int] = []
    allowed = full
    for v in range(1, g.n + 1):
        if need == 0:
            break
        if not allowed >> v & 1:
            continue
        rest = allowed & ~adj[v] & ~((1 << (v + 1)) - 1)
        if 1 + best(rest) == need:
            chosen.append(v)
            need -= 1
            allowed = rest
    return tuple(chosen)


def oracle_clique_cover_at_most(g: Graph, c: int) -> bool:
    """True iff the vertices partition into at most ``c`` cliques (exhaustive)."""
    if c < 1:
        raise PreconditionError(f"c must be >= 1, got {c}")
    adj = g._adj
    # most-constrained-first: high degree vertices early prune faster
    order = sorted(g.vertices(), key=lambda v: (-g.adj_mask(v).bit_count(), v))
    groups: list[int] = []

    def place(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        b = 1 << v
        av = adj[v]
        for j, gm in enumerate(groups):
            if gm & ~av == 0:
                groups[j] = gm | b
                if place(i + 1):
                    return True
                groups[j] = gm
        if len(groups) < c:
            groups.append(b)
            if place(i + 1):
                return True
            groups.pop()
        return False

    return place(0)


def build_hat_graph(g: Graph, x, parts) -> Graph:
    """G[x] plus one fresh proxy vertex per part, adjacent to exactly that part.

    The materialised twin of ``sfvs.solvers._hat_ok``.  Vertices
    ``1..len(x)`` are the members of ``x`` in ascending order; proxy vertex
    ``j`` gets id ``len(x) + j``.  Proxies carry weight 1 and are never
    S-vertices.
    """
    xs = sorted(set(x))
    index = {v: i + 1 for i, v in enumerate(xs)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    for j, part in enumerate(parts):
        if not set(part) <= set(xs):
            raise PreconditionError("tuple part is not a subset of x")
        edges += [(index[v], len(xs) + j + 1) for v in part]
    weights = {index[v]: g.weight(v) for v in xs}
    return Graph(len(xs) + len(parts), edges, weights)


def forest_labels(g: Graph, x, s) -> tuple[list[int], list[int]]:
    """The per-vertex labels ``sfvs.solvers._s1_candidates`` yields, by BFS.

    ``ycomp[v]`` is the mask of v's component in G[x - s], ``tree[v]`` that
    of v's component in G[x]; both are 0 for vertices they do not cover.
    """
    x_mask, s_mask = mask_of(x), mask_of(s)
    ycomp = [0] * (g.n + 1)
    tree = [0] * (g.n + 1)
    for labels, mask in ((ycomp, x_mask & ~s_mask), (tree, x_mask)):
        for comp in components_of_mask(g, mask):
            for v in _bits(comp):
                labels[v] = comp
    return ycomp, tree


def edmonds_karp_max_flow(net: FlowNetwork) -> MaxFlowResult:
    """Reference for ``sfvs.max_flow``: the same arc merging, unbounded
    check, surrogate capacity and residual cut, but one breadth-first
    augmenting path at a time (Edmonds-Karp) instead of Dinic phases."""
    n = net.node_count
    cap = [dict() for _ in range(n)]
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

    seen = {net.source}
    queue = deque([net.source])
    while queue:
        u = queue.popleft()
        for v, c in cap[u].items():
            if c is None and v not in seen:
                seen.add(v)
                queue.append(v)
    if net.sink in seen:
        raise UnboundedFlowError("unbounded: infinite-capacity path from source to sink")

    surrogate = finite_total + 1
    res = [dict() for _ in range(n)]
    for u in range(n):
        for v, c in cap[u].items():
            res[u][v] = res[u].get(v, 0) + (surrogate if c is None else c)
            res[v].setdefault(u, 0)
    adj = [sorted(res[u]) for u in range(n)]

    value = 0
    s, t = net.source, net.sink
    while True:
        prev = [-1] * n
        prev[s] = s
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if u == t:
                break
            for v in adj[u]:
                if prev[v] < 0 and res[u][v] > 0:
                    prev[v] = u
                    queue.append(v)
        if prev[t] < 0:
            break
        bottleneck = None
        v = t
        while v != s:
            u = prev[v]
            r = res[u][v]
            if bottleneck is None or r < bottleneck:
                bottleneck = r
            v = u
        v = t
        while v != s:
            u = prev[v]
            res[u][v] -= bottleneck
            res[v][u] += bottleneck
            v = u
        value += bottleneck

    reach = {s}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in reach and res[u][v] > 0:
                reach.add(v)
                queue.append(v)
    cut = tuple(
        sorted(
            (u, v)
            for u in reach
            for v, c in cap[u].items()
            if v not in reach and (c is None or c > 0)
        )
    )
    return MaxFlowResult(value, cut)


def apex_wnmcdt_alpha2(g: Graph, t) -> Solution:
    """Reference for ``sfvs.solve_wnmcdt_alpha2``: the paper's reduction.

    Adds an apex vertex adjacent to every terminal, with weight equal to the
    whole graph's weight so it can never be worth removing, and solves
    weighted subset feedback vertex set with S = {apex} on the result (which
    has alpha <= 3): cycles through the apex are exactly the
    terminal-to-terminal paths.
    """
    require_alpha(g, 2)
    tm = check_vertices(g, t)
    terms = ids_of(tm)
    if not terms:
        return Solution((), 0)
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
    return Solution(inner.removed, g.weight_of(inner.removed))


def brute_bipartite_cover_weight(left, right, edges, weights) -> int:
    """Minimum cover weight by enumerating which left vertices are chosen."""
    left = sorted(left)
    best = None
    for r in range(len(left) + 1):
        for chosen in combinations(left, r):
            chosen_set = set(chosen)
            forced_right = {b for a, b in edges if a not in chosen_set}
            w = sum(weights[v] for v in chosen) + sum(weights[v] for v in forced_right)
            if best is None or w < best:
                best = w
    return best


def brute_min_separator_weight(g: Graph, s_side, t_side, forbidden=()) -> int | None:
    """Minimum separator weight by enumerating all allowed subsets."""
    s_set, t_set = set(s_side), set(t_side)
    pool = [v for v in g.vertices() if v not in s_set | t_set | set(forbidden)]
    best = None
    for r in range(len(pool) + 1):
        for sub in combinations(pool, r):
            removed = set(sub)
            if _connects(g, s_set, t_set, removed):
                continue
            w = g.weight_of(sub)
            if best is None or w < best:
                best = w
    return best


def _connects(g: Graph, s_set, t_set, removed) -> bool:
    seen = set(s_set)
    frontier = list(s_set)
    while frontier:
        v = frontier.pop()
        if v in t_set:
            return True
        for u in g.neighbors(v):
            if u not in removed and u not in seen:
                seen.add(u)
                frontier.append(u)
    return bool(seen & t_set)


def count_calls(monkeypatch, module, name: str) -> list[int]:
    """Wrap ``module.name`` for the test: a one-slot list counts its calls."""
    calls = [0]
    real = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
