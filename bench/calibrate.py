"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts: on a
2-vCPU box, a fixed set of solves took anywhere from 0.75x to 1.25x its
typical time from one 10 s window to the next, with wall and CPU time equal,
so the drift is the processor's speed and not descheduling.  A fixed kernel
timed right beside the work slows down with it: over the same windows the
ratio of solve time to kernel time stayed within 3%.

The kernel is the referee's own parsing, branch and bound and separator
search on two fixed instances built below.  Both the code and the inputs live
in this directory, so no change to ``sfvs`` can change the kernel.  Each
timing the benchmark reports is scaled by ``REF_S / kernel seconds``, the
kernel measured beside that timing: it reads as seconds on a host where one
kernel run takes ``REF_S``.
"""

from __future__ import annotations

import statistics
import time

import referee

REF_S = 0.003  # kernel seconds on the reference host; sets the scale only


def _forest_text(n: int = 12) -> str:
    """A weighted SFVS instance for branch and bound (a3-weighted's kind of work)."""
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if (u * v + 2) % 5 < 2 or v - u == 1]
    return (f"p wsfvs {n} {len(edges)}\n"
            + "".join(f"w {v} {1 + v * 3 % 5}\n" for v in range(1, n + 1))
            + "".join(f"e {u} {v}\n" for u, v in edges)
            + "set " + " ".join(str(v) for v in range(1, n + 1, 2)) + "\n")


def _cut_text(half: int = 20) -> str:
    """Two cliques joined by a sparse pattern, one terminal in each, for a
    separator (nmc-large's kind of work: parsing and augmenting paths)."""
    n = 2 * half
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if ((u <= half) == (v <= half) or (u * v) % 5 == 1) and (u, v) != (1, n)]
    return (f"p nmc {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
            + f"set 1 {n}\n")


FOREST_TEXT, CUT_TEXT = _forest_text(), _cut_text()
EXPECTED = (referee.Answer((2, 3, 4, 7, 9), 15),
            referee.Answer((2, 3, 4, 7, 8, 9, 12, 13, 14, 17, 18, 19, 21, 26, 31, 36), 16))


def kernel() -> float:
    """Seconds for one run of the fixed kernel."""
    start = time.perf_counter()
    got = (referee.branch_and_bound(referee.parse(FOREST_TEXT)),
           referee.lexmin_separator(referee.parse(CUT_TEXT)))
    elapsed = time.perf_counter() - start
    if got != EXPECTED:
        raise AssertionError(f"the calibration kernel returned {got}")
    return elapsed


def factor(samples: list[float]) -> float:
    """Scale from this host's speed, given kernel timings, to the reference host's."""
    return REF_S / statistics.median(samples)


def scaled(times: list[float], samples: list[float], block: int) -> list[float]:
    """Scale each run of ``block`` consecutive times by the kernel timings
    taken beside them (``samples[i]`` right after ``times[i]``)."""
    out = []
    for k in range(0, len(times), block):
        f = factor(samples[k:k + block])
        out.extend(t * f for t in times[k:k + block])
    return out
