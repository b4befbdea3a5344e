"""Per-layer tracing of ``sfvs`` from outside the package.

``Tracer`` replaces the layer-boundary functions listed in ``BOUNDARIES`` on
every ``sfvs`` module that holds them (a function imported by name lives on
as an attribute of each importing module), and puts the originals back when
it is closed.  Each wrapper records calls, inclusive time, self time (its
span minus the spans of wrapped calls made inside it) and one
boundary-specific count.  ``_s1_candidates`` is a generator, so its wrapper
times every resume and counts the yielded candidates.

A boundary whose function no longer exists is listed in ``Tracer.absent``;
the metrics built on it are reported as absent instead of failing the run.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable

CALLS, TOTAL, SELF, EXTRA = range(4)

# (span name, defining module, attribute, what EXTRA counts)
BOUNDARIES = (
    ("cli.main", "sfvs.cli", "main", None),
    ("fileformat.parse_instance", "sfvs.fileformat", "parse_instance", "bytes"),
    ("oracle.feasible_removed", "sfvs.oracle", "feasible_removed", None),
    ("graph.find_independent_set", "sfvs.graph", "find_independent_set", None),
    ("graph.s_cycle_free", "sfvs.graph", "_s_cycle_free", None),
    ("graph.components_of_mask", "sfvs.graph", "components_of_mask", None),
    ("solvers.wsfvs_a3", "sfvs.solvers", "solve_wsfvs_alpha3", None),
    ("solvers.near_layer", "sfvs.solvers", "_s1_candidates", "yields"),
    ("solvers.valid_singles", "sfvs.solvers", "_valid_single_parts", "items"),
    ("solvers.hat_test", "sfvs.solvers", "_hat_ok", "true"),
    ("solvers.b_mask", "sfvs.solvers", "_b_mask", None),
    ("solvers.case_a1", "sfvs.solvers", "_case_a1", None),
    ("solvers.case_a1a2", "sfvs.solvers", "_case_a1a2", "not_none"),
    ("multiway.nmc_a2", "sfvs.multiway", "solve_nmc_alpha2", None),
    ("multiway.terminals_separated", "sfvs.oracle", "_terminals_separated", None),
    ("flow.bipartite_cover", "sfvs.flow", "_solve_bipartite_cover", None),
    ("flow.min_vertex_separator", "sfvs.flow", "min_vertex_separator", None),
    ("flow.max_flow", "sfvs.flow", "max_flow", None),
)

_EXTRA: dict[str, Callable[[tuple, Any], int]] = {
    "bytes": lambda args, result: len(args[0]),  # instance files are ASCII
    "items": lambda args, result: len(result),
    "true": lambda args, result: 1 if result else 0,
    "not_none": lambda args, result: 0 if result is None else 1,
}

# Per-layer metrics: (name, unit, value).  A value is (span, field) or
# ("ratio", (span, field), (span, field), scale).
RATIO = "ratio"
PER_LAYER = (
    ("cli.main.self_s", "s", ("cli.main", SELF)),
    ("fileformat.parse_instance.s", "s", ("fileformat.parse_instance", TOTAL)),
    ("fileformat.parse_instance.calls", "count", ("fileformat.parse_instance", CALLS)),
    ("fileformat.parse_instance.mb_per_s", "MB/s",
     (RATIO, ("fileformat.parse_instance", EXTRA), ("fileformat.parse_instance", TOTAL), 1e-6)),
    ("oracle.feasible_removed.s", "s", ("oracle.feasible_removed", TOTAL)),
    ("graph.find_independent_set.s", "s", ("graph.find_independent_set", TOTAL)),
    ("graph.find_independent_set.calls", "count", ("graph.find_independent_set", CALLS)),
    ("graph.s_cycle_free.calls", "count", ("graph.s_cycle_free", CALLS)),
    ("graph.s_cycle_free.self_s", "s", ("graph.s_cycle_free", SELF)),
    ("graph.components_of_mask.calls", "count", ("graph.components_of_mask", CALLS)),
    ("solvers.wsfvs_a3.self_s", "s", ("solvers.wsfvs_a3", SELF)),
    ("solvers.near_layer.candidates", "count", ("solvers.near_layer", EXTRA)),
    ("solvers.near_layer.self_s", "s", ("solvers.near_layer", SELF)),
    ("solvers.valid_singles.count", "count", ("solvers.valid_singles", EXTRA)),
    ("solvers.valid_singles.self_s", "s", ("solvers.valid_singles", SELF)),
    ("solvers.hat_test.calls", "count", ("solvers.hat_test", CALLS)),
    ("solvers.hat_test.self_s", "s", ("solvers.hat_test", SELF)),
    ("solvers.hat_test.pass_ratio", "ratio",
     (RATIO, ("solvers.hat_test", EXTRA), ("solvers.hat_test", CALLS), 1)),
    ("solvers.b_mask.calls", "count", ("solvers.b_mask", CALLS)),
    ("solvers.b_mask.self_s", "s", ("solvers.b_mask", SELF)),
    ("solvers.b_mask.per_single", "ratio",
     (RATIO, ("solvers.b_mask", CALLS), ("solvers.valid_singles", EXTRA), 1)),
    ("solvers.case_a1.calls", "count", ("solvers.case_a1", CALLS)),
    ("solvers.case_a1.self_s", "s", ("solvers.case_a1", SELF)),
    ("solvers.case_a1a2.calls", "count", ("solvers.case_a1a2", CALLS)),
    ("solvers.case_a1a2.self_s", "s", ("solvers.case_a1a2", SELF)),
    ("solvers.case_a1a2.useful_ratio", "ratio",
     (RATIO, ("solvers.case_a1a2", EXTRA), ("solvers.case_a1a2", CALLS), 1)),
    ("multiway.nmc_a2.self_s", "s", ("multiway.nmc_a2", SELF)),
    ("multiway.terminals_separated.calls", "count", ("multiway.terminals_separated", CALLS)),
    ("flow.bipartite_cover.calls", "count", ("flow.bipartite_cover", CALLS)),
    ("flow.bipartite_cover.self_s", "s", ("flow.bipartite_cover", SELF)),
    ("flow.min_vertex_separator.self_s", "s", ("flow.min_vertex_separator", SELF)),
    ("flow.max_flow.calls", "count", ("flow.max_flow", CALLS)),
    ("flow.max_flow.self_s", "s", ("flow.max_flow", SELF)),
)


class Tracer:
    """Wraps the boundaries while open; one instance per traced pass."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # span name -> [calls, total, self, extra]
        self.absent: list[str] = []
        self._stack: list[list[float]] = []  # open spans: [time of wrapped children]
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "sfvs" or k.startswith("sfvs."))]
        for name, module, attr, extra in BOUNDARIES:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.absent.append(name)
                continue
            self.stats[name] = [0, 0.0, 0.0, 0]
            if extra == "yields":
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap_call(name, original, _EXTRA.get(extra))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def counts(self) -> dict[str, tuple[int, int]]:
        """The deterministic part of the statistics: calls and EXTRA."""
        return {name: (st[CALLS], st[EXTRA]) for name, st in self.stats.items()}

    def _wrap_call(self, name: str, fn: Callable, extra: Callable | None) -> Callable:
        stat, stack, clock = self.stats[name], self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dt = end - start
                stat[CALLS] += 1
                stat[TOTAL] += dt
                stat[SELF] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if extra is not None:
                stat[EXTRA] += extra(args, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        stat, stack, clock = self.stats[name], self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            stat[CALLS] += 1
            inner = fn(*args, **kwargs)

            def resumed():
                try:
                    while True:
                        frame = [0.0]
                        stack.append(frame)
                        start = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            dt = clock() - start
                            stack.pop()
                            stat[TOTAL] += dt
                            stat[SELF] += dt - frame[0]
                            if stack:
                                stack[-1][0] += dt
                        stat[EXTRA] += 1
                        yield item
                finally:
                    inner.close()

            return resumed()

        return wrapper


def layer_metrics(stats: dict[str, list]) -> tuple[dict[str, float], list[str], list[str]]:
    """Per-layer metric values from one pass's statistics.

    Returns (values, absent, undefined): ``absent`` names metrics whose
    boundary function no longer exists, ``undefined`` names ratios whose base
    was 0 on this workload (reported as 0).
    """
    values: dict[str, float] = {}
    absent: list[str] = []
    undefined: list[str] = []
    for metric, _unit, spec in PER_LAYER:
        if spec[0] == RATIO:
            _, (num_span, num_field), (den_span, den_field), scale = spec
            if num_span not in stats or den_span not in stats:
                absent.append(metric)
                continue
            den = stats[den_span][den_field]
            if den == 0:
                undefined.append(metric)
                values[metric] = 0.0
            else:
                values[metric] = stats[num_span][num_field] * scale / den
        else:
            span, field = spec
            if span not in stats:
                absent.append(metric)
                continue
            values[metric] = stats[span][field]
    return values, absent, undefined
