"""Command line front end.

Subcommands: ``solve`` (run one solver on an instance file), ``check``
(re-verify a solution file, optionally against the oracle), ``gen`` (seeded
random bounded-alpha instances) and ``reduce`` (the hardness-reduction
generators plus their verifiers).

Exit codes: 0 solved / feasible, 1 infeasible (or a failed check), 2 parse or
usage error, 3 precondition violation (independence bound, size guard, bad
source partition, or a weight other than 1 on an unweighted kind, which
``solve`` refuses for every ``--algo``, the oracle included).  The
``SFVS_ORACLE_MAX_N`` environment variable overrides the oracle's size guard.

``--json`` emits one stable object per run; everything in it except the
``millis`` timing field is deterministic for a given input.  ``verified``
means the removed set was re-checked for feasibility by the oracle's
checker, not for optimality (``check --oracle`` tests that).  ``--threads``
is reserved: accepted (it must be >= 1) and ignored, so it never changes
any output (the solvers are sequential; their contracts pin the exact
result regardless).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Sequence

from .fileformat import (
    ParseError,
    emit_instance,
    emit_mapping,
    parse_instance,
    parse_multicolored,
    parse_solution_ids,
    parse_tripartite,
)
from .generate import generate_instance
from .graph import GraphError, PreconditionError
from .multiway import solve_nmc_alpha2, solve_nmcdt_xp, solve_wnmcdt_alpha2
from .oracle import (
    ProblemInstance,
    Solution,
    WEIGHTED_KINDS,
    feasible_removed,
    oracle_solve,
)
from .reductions import (
    multicolored_source_optimum,
    reduce_mcis_to_fvs,
    reduce_vc3_to_nmc,
    reduce_vc3_to_wsfvs,
    verify_reduction,
)
from .solvers import solve_sfvs_xp, solve_wsfvs_alpha3

# algo -> (the kinds it solves, None for any; its call on an instance and d)
_SOLVERS = {
    "wsfvs-a3": (("wsfvs", "sfvs", "fvs"), lambda i, d: solve_wsfvs_alpha3(i.graph, i.special)),
    "sfvs-xp": (("sfvs", "fvs"), lambda i, d: solve_sfvs_xp(i.graph, i.special, d)),
    "nmc-a2": (("nmc",), lambda i, d: solve_nmc_alpha2(i.graph, i.special)),
    "nmcdt-xp": (("nmcdt",), lambda i, d: solve_nmcdt_xp(i.graph, i.special, d)),
    "wnmcdt-a2": (("wnmcdt", "nmcdt"), lambda i, d: solve_wnmcdt_alpha2(i.graph, i.special)),
    "oracle": (None, lambda i, d: oracle_solve(i, _oracle_guard())),
}
ALGOS = tuple(_SOLVERS)


def _oracle_guard() -> int:
    raw = os.environ.get("SFVS_ORACLE_MAX_N")
    if raw is None:
        return 22
    try:
        return int(raw)
    except ValueError:
        raise PreconditionError(f"SFVS_ORACLE_MAX_N must be an integer, got {raw!r}")


def _dispatch(algo: str, inst: ProblemInstance, d: int) -> Solution:
    kinds, solve = _SOLVERS[algo]
    if kinds is not None and inst.kind not in kinds:
        raise PreconditionError(f"algorithm {algo} does not solve kind {inst.kind!r}")
    g = inst.graph
    if inst.kind not in WEIGHTED_KINDS and any(g.weight(v) != 1 for v in g.vertices()):
        raise PreconditionError(
            f"{algo} solves the unweighted kind {inst.kind!r}; "
            "the instance carries non-unit weights"
        )
    return solve(inst, d)


def _objective_of(inst: ProblemInstance, removed: Sequence[int]) -> int:
    if inst.kind in WEIGHTED_KINDS:
        return inst.graph.weight_of(removed)
    return len(removed)


def _cmd_solve(args: argparse.Namespace) -> int:
    text = _read(args.input)
    inst = parse_instance(text)
    start = time.perf_counter()
    sol = _dispatch(args.algo, inst, args.d)
    millis = int((time.perf_counter() - start) * 1000)
    verified = sol.feasible and feasible_removed(inst, sol.removed)
    doc = {
        "algo": args.algo,
        "n": inst.graph.n,
        "m": inst.graph.edge_count(),
        "objective": sol.objective,
        "removed": list(sol.removed),
        "feasible": sol.feasible,
        "verified": verified,
        "millis": millis,
    }
    if inst.budget is not None:
        doc["within_budget"] = sol.feasible and sol.objective <= inst.budget
    if args.json:
        print(json.dumps(doc))
    else:
        print(f"objective {'infeasible' if sol.objective is None else sol.objective}")
        print("removed " + " ".join(str(v) for v in sol.removed))
        print(f"feasible {str(sol.feasible).lower()}")
        print(f"verified {str(verified).lower()}")
        if "within_budget" in doc:
            print(f"within_budget {str(doc['within_budget']).lower()}")
        print(f"millis {millis}")
    return 0 if sol.feasible else 1


def _cmd_check(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.input))
    removed = parse_solution_ids(_read(args.solution), inst.graph.n)
    ok = feasible_removed(inst, removed)
    objective = _objective_of(inst, removed)
    print(f"feasible {str(ok).lower()}")
    print(f"objective {objective}")
    if ok and args.oracle:
        best = oracle_solve(inst, _oracle_guard())
        optimal = best.feasible and best.objective == objective
        print(f"optimal {str(optimal).lower()}")
        ok = optimal
    return 0 if ok else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    inst = generate_instance(
        args.n, args.alpha, args.p, args.seed, args.kind, args.special_frac, args.wmax
    )
    text = emit_instance(inst)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


_REDUCTIONS = frozenset({("vc3", "wsfvs4"), ("vc3", "nmc3"), ("mcis", "fvs")})


def _cmd_reduce(args: argparse.Namespace) -> int:
    if (args.source, args.target) not in _REDUCTIONS:
        print(
            f"error: cannot reduce {args.source} to {args.target}", file=sys.stderr
        )
        return 2
    text = _read(args.input)
    if args.source == "vc3":
        tg, budget = parse_tripartite(text)
        if args.target == "wsfvs4":
            k = budget if budget is not None else tg.graph.n - 1
            out = reduce_vc3_to_wsfvs(tg, k)
        else:
            k = budget if budget is not None else max(tg.graph.n - 1, 0)
            out = reduce_vc3_to_nmc(tg, k)
        source_inst = ProblemInstance(tg.graph, "vc")
    else:
        mi = parse_multicolored(text)
        out = reduce_mcis_to_fvs(mi)
        source_inst = None

    dest = args.output or (args.input + ".reduced")
    with open(dest, "w", encoding="utf-8") as fh:
        fh.write(emit_instance(out.instance))
    with open(dest + ".map", "w", encoding="utf-8") as fh:
        fh.write(emit_mapping(out))
    print(f"wrote {dest} and {dest}.map")

    if args.verify:
        guard = _oracle_guard()
        if source_inst is not None:
            source_opt = oracle_solve(source_inst, guard).objective
        else:
            source_opt = multicolored_source_optimum(mi, guard)
        ok = verify_reduction(out, source_opt, guard)
        print(f"verify {str(ok).lower()}")
        return 0 if ok else 1
    return 0


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(0, f"cannot read {path}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfvs",
        description="Exact subset feedback vertex set and node multiway cut "
        "solvers for graphs of bounded independent set number.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("--algo", required=True, choices=ALGOS)
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument("--d", type=int, default=3, help="independence bound for the xp solvers")
    p_solve.add_argument("--json", action="store_true", help="machine-readable output")
    p_solve.add_argument("--threads", type=int, default=1, help="reserved; accepted (>= 1) and ignored")
    p_solve.set_defaults(func=_cmd_solve)

    p_check = sub.add_parser("check", help="re-verify a solution file")
    p_check.add_argument("--input", required=True)
    p_check.add_argument("--solution", required=True)
    p_check.add_argument("--oracle", action="store_true", help="also check optimality")
    p_check.set_defaults(func=_cmd_check)

    p_gen = sub.add_parser("gen", help="generate a random bounded-alpha instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--alpha", type=int, required=True)
    p_gen.add_argument("--p", type=float, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--kind", required=True)
    p_gen.add_argument("--special-frac", type=float, default=0.3)
    p_gen.add_argument("--wmax", type=int, default=1)
    p_gen.add_argument("--output")
    p_gen.set_defaults(func=_cmd_gen)

    p_red = sub.add_parser("reduce", help="run a hardness-reduction generator")
    p_red.add_argument("--from", dest="source", required=True, choices=("vc3", "mcis"))
    p_red.add_argument("--to", dest="target", required=True, choices=("wsfvs4", "nmc3", "fvs"))
    p_red.add_argument("--input", required=True)
    p_red.add_argument("--output", help="default: <input>.reduced (+ .map sidecar)")
    p_red.add_argument("--verify", action="store_true", help="oracle equivalence check")
    p_red.set_defaults(func=_cmd_reduce)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ParseError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
