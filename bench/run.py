"""Seeded solve benchmark for ``sfvs``.

    python3 bench/run.py --workload a3-weighted --seed 1 --seconds 45 --trace 0

One client, one process, no threads, closed loop: set-up imports ``sfvs``
from ``src/`` and writes the workload's instance files, then every timed
operation is one in-process ``sfvs.cli.main(["solve", ...,  "--json"])``
with stdout captured, i.e. the whole user path (read, parse, alpha guard,
solver, feasibility re-check, JSON).  Outputs are checked after the timed
region against the referee's canonical optimum (``referee.py``).  Every
time is scaled to a reference host speed (``calibrate.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the instance set (see ``tracer.py``) and
prints the per-layer metrics, each the (low) median over traced passes of
the per-pass total.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the per-instance
ladder record goes to ``bench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

import calibrate
import referee
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# setup_s is the median of SETUP_REPS set-ups, or of fewer, but at least
# SETUP_MIN, once they add up to SETUP_SECONDS.
SETUP_REPS, SETUP_MIN, SETUP_SECONDS = 15, 5, 5.0
SETUP_EVERY = 10  # the calibration kernel runs after every this many instances
BLOCK = 16  # solve times are scaled by the kernel median of each block of this many
HASH_SEED = "0"
MIN_SOLVES = 100  # an end-to-end run with fewer solves is not a valid measurement


def import_sfvs():
    """Import ``sfvs.cli`` afresh, so every set-up pays the import."""
    for key in [k for k in sys.modules if k == "sfvs" or k.startswith("sfvs.")]:
        del sys.modules[key]
    return importlib.import_module("sfvs.cli")


def setup(workload: str, seed: int, workdir: str):
    """Import ``sfvs``, generate the instances and write their files:
    (sfvs.cli, jobs, seconds).

    The seconds cover the import and the generation, which are the program's
    work; the calibration kernel runs after every SETUP_EVERY instances, off
    the clock, and scales them to the reference host.  Writing the files is
    left out: it is the operating system's work, and it took from 59 to 136
    ms for the same 300 files from one process to the next.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    kernels: list[float] = []

    def each(built: int) -> None:
        if built % SETUP_EVERY == 1:
            kernels.append(calibrate.kernel())

    start = time.perf_counter()
    cli = import_sfvs()
    jobs = workloads.build(workload, seed, workdir, each)
    elapsed = (time.perf_counter() - start - sum(kernels)) * calibrate.factor(kernels)
    workloads.write(jobs)
    origin = os.path.realpath(cli.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"sfvs was imported from {origin}, not from {SRC}")
    return cli, jobs, elapsed


class Resetup:
    """Repeats the set-up between timed passes, so its median is taken over
    moments spread through the run rather than over one burst of load."""

    def __init__(self, workload: str, seed: int, workdir: str, first: float):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.times = [first]

    def done(self) -> bool:
        return len(self.times) >= SETUP_REPS or (
            len(self.times) >= SETUP_MIN and sum(self.times) >= SETUP_SECONDS)

    def __call__(self) -> None:
        if self.done():
            return
        try:
            self.times.append(setup(self.workload, self.seed, self.workdir)[2])
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)


def solve(cli, job) -> tuple[float, object, str, float]:
    """One timed solve, then one run of the calibration kernel beside it:
    (seconds, exit code, captured stdout or traceback, kernel seconds)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(job.argv)
        out = buf.getvalue()
    except SystemExit as exc:
        code, out = exc.code, buf.getvalue()
    except Exception:  # a crashing solve is a failed solve, not a crashed benchmark
        code, out = "raised", traceback.format_exc()
    elapsed = time.perf_counter() - start
    return elapsed, code, out, calibrate.kernel()


def without_millis(out: str):
    """The output with its one non-deterministic field dropped."""
    try:
        doc = json.loads(out)
    except ValueError:
        return out
    doc.pop("millis", None)
    return doc


def check(answer: referee.Answer, inst: referee.Instance, code, out: str) -> str | None:
    """Why this solve failed, or None when it returned the canonical optimum."""
    if code != 0:
        return f"exit code {code}: {out.strip()[-200:]}"
    try:
        doc = json.loads(out)
        removed = tuple(doc["removed"])
        claimed = doc["objective"]
        verified = doc["verified"]
    except (ValueError, KeyError, TypeError):
        return f"unreadable output {out[:200]!r}"
    if verified is not True:
        return "the solver did not verify its answer"
    if not referee.feasible(inst, removed):
        return f"removed {removed} is not a solution"
    if claimed != referee.objective(inst, removed):
        return f"objective {claimed} does not match removed {removed}"
    if removed != answer.removed:
        return f"removed {removed} differs from the canonical optimum {answer.removed}"
    return None


def closed_loop(cli, jobs, seconds: float, rng: random.Random, between):
    """Seeded shuffled passes over the jobs until ``seconds`` of solving.

    ``between`` runs after every full pass, off the clock.
    """
    records = []  # (job index, seconds, code, out, kernel seconds)
    spent = 0.0
    while spent < seconds:
        order = list(range(len(jobs)))
        rng.shuffle(order)
        for i in order:
            if spent >= seconds:
                break
            records.append((i, *solve(cli, jobs[i])))
            spent += records[-1][1]
        else:
            between()
    return records


def one_pass(cli, jobs, tracer=None):
    """Every job once, in order; with a tracer also each job's layer counts."""
    records, counts = [], []
    for i, job in enumerate(jobs):
        if tracer is None:
            records.append((i, *solve(cli, job)))
            continue
        before = tracer.counts()
        records.append((i, *solve(cli, job)))
        after = tracer.counts()
        counts.append({k: [after[k][0] - before[k][0], after[k][1] - before[k][1]]
                       for k in after})
    return records, counts


def end_to_end(cli, jobs, seconds, seed, resetup):
    records = closed_loop(cli, jobs, seconds, random.Random(seed), resetup)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while not resetup.done():
        resetup()
    raw = [r[1] for r in records]
    kernels = [r[4] for r in records]
    times = sorted(calibrate.scaled(raw, kernels, BLOCK))
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
    metrics = {
        "solve_s.p50": (statistics.median(times), "s"),
        "solve_s.p90": (p90, "s"),
        "instances_per_s": (len(times) / sum(times), "1/s"),
        "setup_s": (statistics.median(resetup.times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    problems = []
    if len(times) < MIN_SOLVES:
        problems.append(f"only {len(times)} solves, fewer than the {MIN_SOLVES} that "
                        "solve_s.p90 needs for ten samples beyond it")
    notes = [f"{len(times)} solves of {len({r[0] for r in records})} instances, "
             f"{sum(t > p90 for t in times)} beyond p90; {len(resetup.times)} set-ups",
             f"host: kernel median {statistics.median(kernels) * 1e3:.3f} ms against "
             f"{calibrate.REF_S * 1e3:g} ms; unscaled solve_s.p50 {statistics.median(raw):.4g} s"]
    return records, metrics, notes, problems, {}


def per_layer(cli, jobs, seconds):
    """Alternate untraced and traced passes: at least two of each, ending traced."""
    records, walls, layer_runs, counts_runs = [], {False: [], True: []}, [], []
    outputs: dict[int, object] = {}
    problems, absent, undefined = [], [], []
    start = time.perf_counter()
    k = 0
    while k < 4 or k % 2 == 1 or time.perf_counter() - start < seconds:
        traced = k % 2 == 1
        if traced:
            with tracing.Tracer() as tracer:
                recs, counts = one_pass(cli, jobs, tracer)
        else:
            recs, _ = one_pass(cli, jobs)
        f = calibrate.factor([r[4] for r in recs])
        walls[traced].append(f * sum(r[1] for r in recs))
        if traced:
            stats = {name: [calls, total * f, own * f, extra]
                     for name, (calls, total, own, extra) in tracer.stats.items()}
            values, absent, undefined = tracing.layer_metrics(stats)
            layer_runs.append(values)
            counts_runs.append(counts)
        for i, _, _, out, _ in recs:
            seen = outputs.setdefault(i, without_millis(out))
            if seen != without_millis(out):
                problems.append(f"{jobs[i].name}: traced and untraced outputs differ")
        records.extend(recs)
        k += 1
    if any(c != counts_runs[0] for c in counts_runs[1:]):
        problems.append("layer counts differ between traced passes")
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {name: (statistics.median_low(run[name] for run in layer_runs), units[name])
               for name in layer_runs[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1, "ratio")
    notes = [f"passes {len(walls[False])} untraced + {len(walls[True])} traced over "
             f"{len(jobs)} instances"]
    if absent:
        notes.append("absent (boundary function gone): " + ", ".join(absent))
    if undefined:
        notes.append("undefined ratios (base 0 here, reported as 0): " + ", ".join(undefined))
    ladder_extra = {"counts": counts_runs[0], "absent": absent}
    return records, metrics, notes, problems, ladder_extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        try:
            cli, jobs, setup_s = setup(args.workload, args.seed, workdir)
            resetup = Resetup(args.workload, args.seed, workdir + "-again", setup_s)
        except ImportError as exc:
            print(f"error: cannot import sfvs from {SRC}: {exc}", file=sys.stderr)
            return 2
        insts = [referee.parse(job.text) for job in jobs]
        answers = [referee.reference(inst) for inst in insts]
        solve(cli, jobs[0])  # warm the code path once, untimed
        if args.trace:
            records, metrics, notes, problems, extra = per_layer(
                cli, jobs[:workloads.WORKLOADS[args.workload].trace_jobs], args.seconds)
        else:
            records, metrics, notes, problems, extra = end_to_end(
                cli, jobs, args.seconds, args.seed, resetup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = []
    for i, _, code, out, _ in records:
        why = check(answers[i], insts[i], code, out)
        if why is not None:
            failures.append(f"{jobs[i].name}: {why}")
    ladder = {}  # per solved instance: output without millis, solve times, layer counts
    for i, elapsed, _, out, _ in records:
        if i not in ladder:
            ladder[i] = {"file": jobs[i].name, "output": without_millis(out), "seconds": []}
            if i < len(extra.get("counts", ())):
                ladder[i]["counts"] = extra["counts"][i]
        ladder[i]["seconds"].append(elapsed)
    os.makedirs(OUT, exist_ok=True)
    record_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "failures": failures, "problems": problems,
                   "instances": [ladder[i] for i in sorted(ladder)],
                   "absent": extra.get("absent", [])},
                  fh, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for line in notes + problems + failures[:20]:
        print(f"{args.workload} {line}")
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # String hashing is salted per process unless PYTHONHASHSEED is set, and
    # the salt alone moved the calibration kernel's speed by up to 30% from
    # one process to the next, against about 10% for the solves.  Run with a
    # fixed salt, so that runs differ only in their seed and the host.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())
