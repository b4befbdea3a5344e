"""Brute-force exact solvers used as ground truth.

Every problem the package solves has a feasibility predicate that is easy to
state and cheap to evaluate on one candidate set; the oracle returns the
feasible removed set that comes first in canonical order (ascending
objective, then lexicographically smallest sorted vertex tuple).  The
unweighted kinds enumerate removed sets in that order and stop at the first
feasible one.  The weighted kinds make one streaming pass over all 2^n
removed sets and keep an incumbent, the best feasible set seen so far, which
starts at removing all of S (or T), a set feasible by definition; only a set
that would beat it is tested, and memory stays constant in n.  Nothing
here is clever on purpose: the point is a referee whose correctness is
obvious, not speed.

A size guard refuses graphs with more than ``max_vertices`` vertices (22 by
default) so that an accidental call on a large instance fails fast instead of
running for hours.  The guard is a safety valve, not a semantic limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph import (
    Graph,
    PreconditionError,
    _before,
    _bits,
    _s_cycle_free,
    check_vertices,
    components_of_mask,
    ids_of,
    mask_of,
)

KINDS = ("wsfvs", "sfvs", "fvs", "nmc", "nmcdt", "wnmcdt", "vc", "mis")
WEIGHTED_KINDS = frozenset({"wsfvs", "wnmcdt"})


class SizeGuardError(PreconditionError):
    """The instance exceeds the oracle's size guard."""


@dataclass(frozen=True)
class ProblemInstance:
    """A graph plus the distinguished vertex set of one problem kind.

    ``special`` holds S for the feedback-set kinds and T for the multiway
    kinds; it must be all vertices for ``fvs`` and empty for ``vc``/``mis``.
    ``budget`` is the optional decision bound k; solvers ignore it and report
    the optimum, the CLI uses it for a within-budget verdict.
    """

    graph: Graph
    kind: str
    special: tuple[int, ...] = ()
    budget: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise PreconditionError(f"unknown problem kind {self.kind!r}")
        mask = check_vertices(self.graph, self.special)
        object.__setattr__(self, "special", ids_of(mask))
        if self.kind == "fvs" and self.special != tuple(self.graph.vertices()):
            raise PreconditionError("fvs instances must have special = all vertices")
        if self.kind in ("vc", "mis") and self.special:
            raise PreconditionError(f"{self.kind} instances must have an empty special set")
        if self.budget is not None and self.budget < 0:
            raise PreconditionError("budget must be nonnegative")

    def special_mask(self) -> int:
        return mask_of(self.special)


@dataclass(frozen=True)
class Solution:
    """A removed vertex set with its objective value.

    ``objective`` is the total weight of ``removed`` for the weighted kinds
    and its cardinality otherwise; it is None when the instance is infeasible
    (which only NMC can be).
    """

    removed: tuple[int, ...]
    objective: int | None

    @property
    def feasible(self) -> bool:
        return self.objective is not None


def _terminals_separated(g: Graph, kept: int, terms: int) -> bool:
    """Every connected component of G[kept] contains at most one terminal."""
    return all((comp & terms).bit_count() <= 1 for comp in components_of_mask(g, kept))


def feasible_removed(inst: ProblemInstance, removed: tuple[int, ...] | int) -> bool:
    """Re-check feasibility of a removed set for the instance's kind."""
    g = inst.graph
    rm = removed if isinstance(removed, int) else check_vertices(g, removed)
    kept = g.vertex_mask() & ~rm
    sm = inst.special_mask()
    kind = inst.kind
    if kind in ("wsfvs", "sfvs"):
        return _s_cycle_free(g, kept, sm)
    if kind == "fvs":
        return _s_cycle_free(g, kept, kept)
    if kind == "nmc":
        if rm & sm:
            return False
        return _terminals_separated(g, kept, sm)
    if kind in ("nmcdt", "wnmcdt"):
        return _terminals_separated(g, kept, sm & kept)
    if kind in ("vc", "mis"):
        # removed must cover every edge, i.e. the kept set is independent
        for v in _bits(kept):
            if g._adj[v] & kept:
                return False
        return True
    raise PreconditionError(f"unknown problem kind {kind!r}")


def oracle_solve(inst: ProblemInstance, max_vertices: int = 22) -> Solution:
    """Exhaustive minimum solution in canonical (objective, lexicographic) order."""
    g = inst.graph
    n = g.n
    if n > max_vertices:
        raise SizeGuardError(
            f"oracle guard: {n} vertices exceeds the limit of {max_vertices}"
        )
    if inst.kind == "nmc":
        sm = inst.special_mask()
        for v in _bits(sm):
            if g._adj[v] & sm:
                return Solution((), None)

    if inst.kind in WEIGHTED_KINDS:
        return _solve_weighted(inst)
    return _solve_unweighted(inst)


def _solve_unweighted(inst: ProblemInstance) -> Solution:
    g = inst.graph
    vertices = list(g.vertices())
    for k in range(g.n + 1):
        for members in combinations(vertices, k):
            m = 0
            for v in members:
                m |= 1 << v
            if feasible_removed(inst, m):
                return Solution(members, k)
    raise PreconditionError("exhausted all subsets without a feasible solution")


def _solve_weighted(inst: ProblemInstance) -> Solution:
    """One pass over every removed set, keeping the best feasible one so far.

    The incumbent starts at removing all of S (or T), which is feasible for
    both weighted kinds: no S-vertex is left for a cycle to pass through, and
    no terminal is left to be connected.  A mask is tested for feasibility
    only if it comes before the incumbent in ``sfvs.graph``'s canonical
    order, ``_before``: a lower weight, or the same weight and the
    lexicographically smaller removed set.
    Memory stays constant in n.
    """
    g = inst.graph
    w = g._w
    best_weight, best = g.weight_of(inst.special), inst.special_mask()
    for m in range(0, g.vertex_mask() + 1, 2):  # bit 0 is no vertex
        total = 0
        mm = m
        while mm:
            b = mm & -mm
            total += w[b.bit_length() - 1]
            mm ^= b
        if not _before(total, m, best_weight, best):
            continue
        if feasible_removed(inst, m):
            best_weight, best = total, m
    return Solution(ids_of(best), best_weight)
