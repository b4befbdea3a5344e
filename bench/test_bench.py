"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

import calibrate
import referee
import run
import tracer as tracing
import workloads

sys.path.insert(0, run.SRC)

from sfvs import cli  # noqa: E402
from sfvs.fileformat import emit_instance  # noqa: E402
from sfvs.generate import generate_instance  # noqa: E402
from sfvs.oracle import oracle_solve  # noqa: E402


def _job(tmp_path, algo, inst, d=None):
    text = emit_instance(inst)
    path = tmp_path / f"{algo}-{len(list(tmp_path.iterdir()))}.txt"
    path.write_text(text)
    argv = ["solve", "--algo", algo, "--input", str(path), "--json"]
    if d is not None:
        argv += ["--d", str(d)]
    return workloads.Job(path.name, argv, text, str(path))


def _nmc(n, seed):
    inst = generate_instance(n, 2, 0.5, seed, "nmc", 0.0)
    return workloads._pick_terminals(inst, random.Random(seed), 2)


@pytest.fixture
def jobs(tmp_path):
    return [
        _job(tmp_path, "wsfvs-a3", generate_instance(10, 3, 0.3, 1, "wsfvs", 0.5, 5)),
        _job(tmp_path, "wnmcdt-a2", generate_instance(12, 2, 0.3, 2, "wnmcdt", 0.3, 5)),
        _job(tmp_path, "sfvs-xp", generate_instance(10, 2, 0.3, 3, "sfvs", 0.3), d=2),
        _job(tmp_path, "nmcdt-xp", generate_instance(14, 3, 0.1, 4, "nmcdt", 0.3), d=3),
        _job(tmp_path, "nmc-a2", _nmc(40, 5)),
    ]


def _solved(job):
    inst = referee.parse(job.text)
    _, code, out, _ = run.solve(cli, job)
    return inst, referee.reference(inst), code, out


@pytest.mark.parametrize("kind,alpha,p,frac,wmax", [
    ("wsfvs", 3, 0.3, 0.5, 5), ("sfvs", 2, 0.4, 0.4, 1), ("fvs", 3, 0.5, 0.0, 1),
    ("wnmcdt", 2, 0.3, 0.3, 5), ("nmcdt", 3, 0.1, 0.3, 1),
])
def test_reference_is_the_oracle_optimum(kind, alpha, p, frac, wmax):
    for n in range(1, 12):
        for seed in range(4):
            inst = generate_instance(n, alpha, p, 50 * n + seed, kind, frac, wmax)
            got = referee.reference(referee.parse(emit_instance(inst)))
            want = oracle_solve(inst)
            assert (got.removed, got.objective) == (want.removed, want.objective)


def test_lexmin_separator_matches_exhaustive_search():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(3, 11)
        p = rng.choice((0.2, 0.4, 0.7))
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges = [e for e in pairs if rng.random() < p]
        apart = [e for e in pairs if e not in edges]
        if not apart:
            continue
        t = rng.choice(apart)
        text = f"p nmc {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
        inst = referee.parse(text + f"set {t[0]} {t[1]}\n")
        assert referee.lexmin_separator(inst) == referee.branch_and_bound(inst)


def test_canonical_outputs_pass(jobs):
    for job in jobs:
        inst, answer, code, out = _solved(job)
        assert run.check(answer, inst, code, out) is None, job.name


def test_mutated_removed_sets_are_caught(jobs):
    for job in jobs:
        inst, answer, code, out = _solved(job)
        doc = json.loads(out)
        removed = doc["removed"]
        mutants = [
            removed[1:],  # one vertex short: infeasible or a wrong objective
            removed + [v for v in range(1, inst.n + 1) if v not in removed][:1],
            sorted(removed, reverse=True),
        ]
        for mutant in mutants:
            if mutant == removed:
                continue
            bad = dict(doc, removed=mutant)
            assert run.check(answer, inst, 0, json.dumps(bad)) is not None, job.name
        # Feasible and self-consistent, but not the canonical optimum.
        keep = inst.special if inst.kind == "nmc" else 0
        everything = [v for v in range(1, inst.n + 1) if not keep >> v & 1]
        wrong = dict(doc, removed=everything, objective=referee.objective(inst, tuple(everything)))
        assert referee.feasible(inst, tuple(everything))
        assert "canonical" in run.check(answer, inst, 0, json.dumps(wrong)), job.name
    assert run.check(answer, inst, 1, out) is not None
    assert run.check(answer, inst, 0, out.replace("true", "false")) is not None


def test_tracing_keeps_outputs_restores_functions_and_repeats_counts(jobs):
    originals = {(m, a): getattr(sys.modules[m], a) for _, m, a, _ in tracing.BOUNDARIES}
    plain, _ = run.one_pass(cli, jobs)
    runs = []
    for _ in range(2):
        with tracing.Tracer() as tr:
            traced, counts = run.one_pass(cli, jobs, tr)
        assert not tr.absent
        runs.append(counts)
        assert [run.without_millis(r[3]) for r in traced] == \
            [run.without_millis(r[3]) for r in plain]
    assert runs[0] == runs[1]
    assert runs[0][0]["solvers.hat_test"][0] > 0
    assert runs[0][4]["flow.max_flow"][0] == 1
    for (m, a), fn in originals.items():
        assert getattr(sys.modules[m], a) is fn
    values, absent, _ = tracing.layer_metrics(tr.stats)
    assert not absent
    assert values["fileformat.parse_instance.calls"] == len(jobs)


def test_a_vanished_boundary_is_reported_absent(monkeypatch):
    monkeypatch.delattr(sys.modules["sfvs.solvers"], "_b_mask")
    with tracing.Tracer() as tr:
        pass
    assert tr.absent == ["solvers.b_mask"]
    values, absent, _ = tracing.layer_metrics(tr.stats)
    assert absent == ["solvers.b_mask.calls", "solvers.b_mask.self_s", "solvers.b_mask.per_single"]
    assert "solvers.hat_test.calls" in values


def test_calibration_scales_each_block_by_its_own_kernel_median():
    times = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0]
    kernels = [calibrate.REF_S] * 3 + [2 * calibrate.REF_S] * 3 + [3 * calibrate.REF_S]
    assert calibrate.scaled(times, kernels, 3) == pytest.approx([1.0] * 7)
    assert calibrate.kernel() > 0  # and it returned the expected answers


def test_a_run_too_short_for_p90_is_not_correct(capsys):
    assert run.main(["--workload", "a3-weighted", "--seed", "2", "--seconds", "0.2"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 0
    assert set(result["metrics"]) == {
        "solve_s.p50", "solve_s.p90", "instances_per_s", "setup_s", "peak_rss_mb"}


def test_seed_determines_the_inputs(tmp_path):
    a = workloads.build("a3-weighted", 3, str(tmp_path / "a"))
    b = workloads.build("a3-weighted", 3, str(tmp_path / "b"))
    c = workloads.build("a3-weighted", 4, str(tmp_path / "c"))
    assert [j.text for j in a] == [j.text for j in b]
    assert [j.text for j in a] != [j.text for j in c]


def test_benchmark_json_names_every_metric_and_workload():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == dict({name: unit for name, unit, _ in tracing.PER_LAYER},
                         **{"trace.overhead_frac": "ratio"})
    assert {m["name"] for m in spec["end_to_end"]} == {
        "solve_s.p50", "solve_s.p90", "instances_per_s", "setup_s", "peak_rss_mb"}
