"""Seeded random instances with a guaranteed independence-number bound.

The construction partitions the vertices into ``alpha`` near-equal cliques and
sprinkles inter-clique edges independently with probability ``p``.  A clique
cover of size alpha forces alpha(G) <= alpha, so the bound holds for every
seed by construction, not by luck.  All randomness comes from one
``random.Random(seed)``, drawn in a fixed order (edges, then weights, then the
special set), so a seed determines the instance byte for byte.

Edges are drawn once per pair u < v in different cliques, u ascending, then
v ascending.  Each u starts at its clique's mask minus u and draws for v =
``chunk.stop``..n: the cliques are contiguous, so the skipped v < chunk.stop
are u's clique mates, which never drew, and the draws are those of a plain
loop over all pairs u < v.
"""

from __future__ import annotations

import random

from .fileformat import FILE_KINDS
from .graph import Graph, PreconditionError
from .oracle import ProblemInstance


def clique_chunks(n: int, alpha: int) -> list[range]:
    """Split 1..n into alpha contiguous near-equal chunks (some may be empty)."""
    base, extra = divmod(n, alpha)
    chunks = []
    start = 1
    for i in range(alpha):
        size = base + (1 if i < extra else 0)
        chunks.append(range(start, start + size))
        start += size
    return chunks


def generate_instance(
    n: int,
    alpha: int,
    p: float,
    seed: int,
    kind: str,
    special_frac: float = 0.3,
    wmax: int = 1,
) -> ProblemInstance:
    """A seeded instance with alpha(G) <= ``alpha``.  Its masks meet
    ``Graph._from_adjacency``'s contract by construction: symmetric, with no
    self-loop and no bit outside 1..n."""
    if kind not in FILE_KINDS:
        raise PreconditionError(f"unknown kind {kind!r}")
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    if alpha < 1:
        raise PreconditionError("alpha must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise PreconditionError("edge probability must lie in [0, 1]")
    if not 0.0 <= special_frac <= 1.0:
        raise PreconditionError("special fraction must lie in [0, 1]")
    if wmax < 1:
        raise PreconditionError("wmax must be >= 1")

    rng = random.Random(seed)
    adj = [0] * (n + 1)
    draw = rng.random
    for chunk in clique_chunks(n, alpha):
        clique = (1 << chunk.stop) - (1 << chunk.start)
        for u in chunk:
            bit = 1 << u
            mask = adj[u] | clique ^ bit
            for v in range(chunk.stop, n + 1):
                if draw() < p:
                    mask |= 1 << v
                    adj[v] |= bit
            adj[u] = mask
    weights = None
    if wmax > 1:
        weights = {v: rng.randint(1, wmax) for v in range(1, n + 1)}
    if kind == "fvs":
        special = tuple(range(1, n + 1))
    else:
        count = round(special_frac * n)
        special = tuple(sorted(rng.sample(range(1, n + 1), count)))
    return ProblemInstance(Graph._from_adjacency(n, adj, weights), kind, special)
