"""The benchmark's workloads: seeded instance ladders and the solver for each.

Every instance comes from ``sfvs.generate.generate_instance`` (planted clique
cover, so alpha(G) is bounded by construction).  The workload seed drives one
``random.Random`` that draws the generator seed of every instance, in a fixed
order, so the same seed gives byte-identical instance files.  Each ladder
holds the same sizes for every seed; only the graphs change.
"""

from __future__ import annotations

import os
import random
from typing import Callable, NamedTuple


class Workload(NamedTuple):
    algo: str
    kind: str
    alpha: int
    p: float
    special_frac: float
    wmax: int
    sizes: tuple[int, ...]
    per_size: int
    trace_jobs: int  # the traced passes cover this prefix of the jobs
    pick_terminals: bool = False  # nmc: one non-adjacent terminal per clique


class Job(NamedTuple):
    name: str
    argv: list[str]
    text: str
    path: str


# The ladders are long (300 and 150 instances) because the seed's particular
# graphs, not the sizes, moved the percentiles most: over sets of about 100
# instances the seed-to-seed spread (IQR/median) of the median solve time was
# about 0.06.  A 45 s run solves each instance one to three times.
WORKLOADS: dict[str, Workload] = {
    # The alpha <= 3 phases and the S-forest test carry the time.
    "a3-weighted": Workload("wsfvs-a3", "wsfvs", 3, 0.3, 0.5, 5, (12, 13, 14), 100, 30),
    # One large separator per solve over 4-9k edge lines; no solvers code.
    # Three instances per n keep the sizes, and so the solve times, spread
    # smoothly.
    "nmc-large": Workload("nmc-a2", "nmc", 2, 0.6, 0.0, 1, tuple(range(100, 150)), 3, 50, True),
}


def _pick_terminals(inst, rng: random.Random, alpha: int):
    """One terminal in each of the first two planted cliques, non-adjacent."""
    from sfvs.generate import clique_chunks
    from sfvs.oracle import ProblemInstance

    first, second = clique_chunks(inst.graph.n, alpha)[:2]
    g = inst.graph
    while True:
        t1 = rng.choice(first)
        far = [v for v in second if not g.has_edge(t1, v)]
        if far:
            return ProblemInstance(g, inst.kind, (t1, rng.choice(far)))


def build(workload: str, seed: int, workdir: str,
          each: Callable[[int], None] | None = None) -> list[Job]:
    """Generate the workload's instances for ``seed``, to be written to
    ``workdir`` by ``write``; ``each`` gets the count built after every one."""
    from sfvs.fileformat import emit_instance
    from sfvs.generate import generate_instance

    wl = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    jobs = []
    # Size-major rounds, so every prefix spans the ladder.
    for j in range(wl.per_size):
        for n in wl.sizes:
            inst = generate_instance(n, wl.alpha, wl.p, rng.randrange(2**31),
                                     wl.kind, wl.special_frac, wl.wmax)
            if wl.pick_terminals:
                inst = _pick_terminals(inst, rng, wl.alpha)
            text = emit_instance(inst)
            name = f"{wl.algo}-n{n}-{j}.txt"
            path = os.path.join(workdir, name)
            argv = ["solve", "--algo", wl.algo, "--input", path, "--json"]
            jobs.append(Job(name, argv, text, path))
            if each is not None:
                each(len(jobs))
    return jobs


def write(jobs: list[Job]) -> None:
    """Write the instance files."""
    for job in jobs:
        os.makedirs(os.path.dirname(job.path), exist_ok=True)
        with open(job.path, "w", encoding="utf-8") as fh:
            fh.write(job.text)
