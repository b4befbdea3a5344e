"""The benchmark's correctness referee, independent of the ``sfvs`` package.

It reads the instance files the solvers read, checks feasibility with its own
graph searches and computes the canonical optimum (minimum objective, ties
broken toward the lexicographically smallest removed set) with its own exact
algorithms:

* ``branch_and_bound`` for every kind on desk-scale graphs: vertices are
  decided in ascending order, keeping before removing, and a branch is cut
  when its removed weight exceeds the best found or the kept vertices are
  already infeasible (both properties only get worse as more is kept);
* ``lexmin_separator`` for node multiway cut with two terminals at any size:
  one maximum flow over vertex-split unit capacities, then the
  lexicographically smallest minimum cut read off the closed sets of the
  residual graph (every closed set containing the source and not the sink is
  a minimum cut).

Nothing here imports ``sfvs``, so a bug in the solvers' shared graph, flow or
oracle code cannot hide itself by agreeing with its own reference.
"""

from __future__ import annotations

from typing import NamedTuple

WEIGHTED_KINDS = ("wsfvs", "wnmcdt")
FOREST_KINDS = ("wsfvs", "sfvs", "fvs")


class Instance(NamedTuple):
    kind: str
    n: int
    adj: list[int]  # neighbor bitmask per vertex, index 0 unused
    weight: list[int]  # index 0 unused
    special: int  # bitmask of S or T


class Answer(NamedTuple):
    removed: tuple[int, ...]
    objective: int


def parse(text: str) -> Instance:
    """Read the line format the generator emits (``p``/``w``/``e``/``set``)."""
    kind, n, adj, weight, special = "", 0, [0], [0], 0
    for line in text.splitlines():
        tok = line.split("#", 1)[0].split()
        if not tok:
            continue
        if tok[0] == "p":
            kind, n = tok[1], int(tok[2])
            adj, weight = [0] * (n + 1), [1] * (n + 1)
        elif tok[0] == "w":
            weight[int(tok[1])] = int(tok[2])
        elif tok[0] == "e":
            u, v = int(tok[1]), int(tok[2])
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        elif tok[0] == "set":
            for t in tok[1:]:
                special |= 1 << int(t)
        else:
            raise ValueError(f"unexpected line {line!r}")
    if kind == "fvs":
        special = ((1 << (n + 1)) - 1) & ~1
    return Instance(kind, n, adj, weight, special)


def _ids(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def _component(adj: list[int], start: int, allowed: int) -> int:
    """Vertices of ``allowed`` reachable from the ``start`` mask inside it."""
    comp = frontier = start
    while frontier:
        nxt = 0
        for v in _ids(frontier):
            nxt |= adj[v]
        frontier = nxt & allowed & ~comp
        comp |= frontier
    return comp


def _s_on_cycle(adj: list[int], kept: int, candidates: int) -> bool:
    """Does some vertex of ``candidates`` lie on a cycle of G[kept]?

    A vertex lies on a cycle exactly when two of its neighbors are connected
    without it.
    """
    for s in _ids(candidates & kept):
        rest = kept & ~(1 << s)
        nb = adj[s] & rest
        while nb:
            comp = _component(adj, nb & -nb, rest)
            if (comp & nb).bit_count() > 1:
                return True
            nb &= ~comp
    return False


def _terminals_apart(adj: list[int], kept: int, terms: int) -> bool:
    todo = kept
    while todo:
        comp = _component(adj, todo & -todo, kept)
        if (comp & terms).bit_count() > 1:
            return False
        todo &= ~comp
    return True


def objective(inst: Instance, removed: tuple[int, ...]) -> int:
    if inst.kind in WEIGHTED_KINDS:
        return sum(inst.weight[v] for v in removed)
    return len(removed)


def feasible(inst: Instance, removed: tuple[int, ...]) -> bool:
    """Is ``removed`` a solution of ``inst``?  Ids must lie in 1..n."""
    rm = 0
    for v in removed:
        if not 1 <= v <= inst.n:
            return False
        rm |= 1 << v
    kept = ((1 << (inst.n + 1)) - 2) & ~rm
    if inst.kind in FOREST_KINDS:
        return not _s_on_cycle(inst.adj, kept, inst.special)
    if inst.kind == "nmc" and rm & inst.special:
        return False
    return _terminals_apart(inst.adj, kept, inst.special & kept)


def branch_and_bound(inst: Instance) -> Answer:
    """Canonical optimum by exhaustive search with pruning (desk scale)."""
    n, adj, w, special = inst.n, inst.adj, inst.weight, inst.special
    weighted = inst.kind in WEIGHTED_KINDS
    protected = special if inst.kind == "nmc" else 0
    if inst.kind == "nmc":
        for t in _ids(special):
            if adj[t] & special:
                raise ValueError("adjacent terminals: the nmc instance is infeasible")

    def keep_ok(kept: int, v: int) -> bool:
        kept |= 1 << v
        comp = _component(adj, 1 << v, kept)
        if inst.kind in FOREST_KINDS:
            return not _s_on_cycle(adj, comp, special)
        return (comp & special).bit_count() <= 1

    def cost(v: int) -> int:
        return w[v] if weighted else 1

    # Removing every special vertex (every non-terminal for nmc) is feasible.
    start = special if not protected else ((1 << (n + 1)) - 2) & ~special
    best_cost = sum(cost(v) for v in _ids(start))
    best = _ids(start)

    def search(v: int, kept: int, removed: int, spent: int) -> None:
        nonlocal best_cost, best
        if spent > best_cost:
            return
        if v > n:
            key = _ids(removed)
            if spent < best_cost or key < best:
                best_cost, best = spent, key
            return
        if keep_ok(kept, v):
            search(v + 1, kept | 1 << v, removed, spent)
        if not protected >> v & 1:
            search(v + 1, kept, removed | 1 << v, spent + cost(v))

    search(1, 0, 0, 0)
    return Answer(best, best_cost)


def lexmin_separator(inst: Instance) -> Answer:
    """Smallest-then-lexicographically-first vertex cut between two terminals.

    Network: each non-terminal v is an arc v_in -> v_out of capacity 1, each
    edge u-v gives infinite arcs u_out -> v_in and v_out -> u_in, the source
    is terminal s and the sink terminal t.  Flow is kept as the set of
    saturated split arcs (``through``) and the map ``pred`` from a vertex to
    the vertex (or s) whose out-node feeds its in-node.
    """
    s, t = _ids(inst.special)
    adj = inst.adj
    if adj[s] >> t & 1:
        raise ValueError("adjacent terminals: the nmc instance is infeasible")
    inner = ((1 << (inst.n + 1)) - 2) & ~(1 << s) & ~(1 << t)
    to_sink = adj[t] & inner
    through = 0
    pred: dict[int, int] = {}

    def augment() -> bool:
        nonlocal through
        par_in: dict[int, int] = {}  # -1 from s, 0 from own out-node, u from u_out
        par_out: dict[int, int] = {}  # 0 from own in-node, w from w_in (cancel)
        seen_in = adj[s] & inner
        seen_out = 0
        queue = []
        for v in _ids(seen_in):
            par_in[v] = -1
            queue.append((0, v))
        last = None
        for side, v in queue:  # the list grows while it is scanned: BFS
            if side == 0:
                outs = []
                if not through >> v & 1:
                    outs.append((v, 0))
                u = pred.get(v, s)
                if u != s:
                    outs.append((u, v))
                for x, how in outs:
                    if not seen_out >> x & 1:
                        seen_out |= 1 << x
                        par_out[x] = how
                        queue.append((1, x))
            else:
                if to_sink >> v & 1:
                    last = v
                    break
                new = adj[v] & inner & ~seen_in
                seen_in |= new
                for x in _ids(new):
                    par_in[x] = v
                    queue.append((0, x))
                if through >> v & 1 and not seen_in >> v & 1:
                    seen_in |= 1 << v
                    par_in[v] = 0
                    queue.append((0, v))
        if last is None:
            return False
        # Walk back to s collecting arcs, then apply removals before additions.
        drop_pred, add_pred, flip_on, flip_off = [], [], 0, 0
        side, v = 1, last
        while True:
            if side == 1:
                how = par_out[v]
                if how == 0:
                    flip_on |= 1 << v
                    side = 0
                else:
                    drop_pred.append(how)  # cancel v_out -> how_in
                    side, v = 0, how
            else:
                how = par_in[v]
                if how == -1:
                    add_pred.append((v, s))
                    break
                if how == 0:
                    flip_off |= 1 << v
                    side = 1
                else:
                    add_pred.append((v, how))
                    side, v = 1, how
        for x in drop_pred:
            del pred[x]
        for x, u in add_pred:
            pred[x] = u
        through = (through | flip_on) & ~flip_off
        return True

    value = 0
    while augment():
        value += 1

    def close(c_in: int, c_out: int, new_in: int) -> tuple[int, int, bool]:
        """Smallest residual-closed superset of (c_in, c_out) plus ``new_in``."""
        new_out = 0
        while new_in or new_out:
            c_in |= new_in
            c_out |= new_out
            outs = new_in & ~through
            for v in _ids(new_in):
                u = pred.get(v, s)
                if u != s:
                    outs |= 1 << u
            if new_out & to_sink:
                return c_in, c_out, True
            ins = new_out & through
            for v in _ids(new_out):
                ins |= adj[v]
            new_in = ins & inner & ~c_in
            new_out = outs & ~c_out
        return c_in, c_out, False

    c_in, c_out, _ = close(0, 0, adj[s] & inner)
    chosen = 0
    for v in _ids(through):
        if c_out >> v & 1:
            continue
        n_in, n_out, hit = close(c_in, c_out, (1 << v) & ~c_in)
        if hit or n_out & (chosen | 1 << v):
            continue
        c_in, c_out, chosen = n_in, n_out, chosen | 1 << v
    removed = _ids(chosen)
    if len(removed) != value:
        raise AssertionError("the chosen cut does not match the flow value")
    return Answer(removed, value)


def reference(inst: Instance) -> Answer:
    """The canonical optimum by whichever exact method fits the instance."""
    if inst.kind == "nmc" and inst.special.bit_count() == 2:
        return lexmin_separator(inst)
    if inst.n > 26:
        raise ValueError(f"no exact reference for {inst.kind} at n = {inst.n}")
    return branch_and_bound(inst)
