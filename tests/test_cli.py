import json
import subprocess
import sys

import pytest

from sfvs.cli import ALGOS, main


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


K4_FULL_S = "p wsfvs 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\nset 1 2 3 4\n"


class TestSolve:
    def test_k4_json(self, tmp_path, capsys):
        path = write(tmp_path, "k4.txt", K4_FULL_S)
        code, out = run(capsys, "solve", "--algo", "wsfvs-a3", "--input", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["objective"] == 2
        assert doc["removed"] == [1, 2]
        assert doc["verified"] is True
        assert list(doc) == [
            "algo", "n", "m", "objective", "removed", "feasible", "verified", "millis",
        ]

    def test_budget_verdict(self, tmp_path, capsys):
        path = write(tmp_path, "k4.txt", K4_FULL_S + "k 1\n")
        code, out = run(capsys, "solve", "--algo", "oracle", "--input", path, "--json")
        assert code == 0 and json.loads(out)["within_budget"] is False

    def test_infeasible_nmc_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, "nmc.txt", "p nmc 2 1\ne 1 2\nset 1 2\n")
        code, out = run(capsys, "solve", "--algo", "nmc-a2", "--input", path, "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["feasible"] is False and doc["objective"] is None

    def test_nmc_ties_go_to_the_lowest_vertex(self, tmp_path, capsys):
        # path 1-4-3-2 with T = {1, 2}: [3] and [4] both cut it, [3] is canonical
        path = write(tmp_path, "p4.txt", "p nmc 4 3\ne 1 4\ne 4 3\ne 3 2\nset 1 2\n")
        code, out = run(capsys, "solve", "--algo", "nmc-a2", "--input", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["removed"] == [3] and doc["objective"] == 1

    def test_alpha_violation_exits_three_and_names_a_witness(self, tmp_path, capsys):
        path = write(tmp_path, "a4.txt", "p wsfvs 4 0\nset 1\n")
        code = main(["solve", "--algo", "wsfvs-a3", "--input", path])
        assert code == 3
        err = capsys.readouterr().err
        assert "[1, 2, 3, 4]" in err  # the violating 4K1

    def test_xp_solvers_refuse_alpha_violations_past_the_oracle_guard(
        self, tmp_path, capsys
    ):
        # 23 isolated vertices: alpha = 23, one more than the oracle's size guard
        for algo, kind in (("sfvs-xp", "sfvs"), ("nmcdt-xp", "nmcdt")):
            ids = " ".join(str(v) for v in range(1, 24))
            path = write(tmp_path, f"{kind}23.txt", f"p {kind} 23 0\nset {ids}\n")
            code = main(["solve", "--algo", algo, "--input", path, "--d", "1", "--json"])
            captured = capsys.readouterr()
            assert code == 3, algo
            assert captured.out == ""
            assert "[1, 2]" in captured.err  # the violating 2K1

    def test_empty_instance_through_every_algo(self, tmp_path, capsys):
        kinds = {"wsfvs-a3": "wsfvs", "sfvs-xp": "sfvs", "nmc-a2": "nmc",
                 "nmcdt-xp": "nmcdt", "wnmcdt-a2": "wnmcdt", "oracle": "fvs"}
        assert set(kinds) == set(ALGOS)
        for algo, kind in kinds.items():
            path = write(tmp_path, f"{kind}0.txt", f"p {kind} 0 0\n")
            code, out = run(capsys, "solve", "--algo", algo, "--input", path, "--json")
            doc = json.loads(out)
            assert code == 0, algo
            assert (doc["objective"], doc["removed"], doc["verified"]) == (0, [], True), algo

    def test_parse_error_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "bad.txt", "p sfvs 1 1\ne 1 1\n")
        assert main(["solve", "--algo", "oracle", "--input", path]) == 2

    def test_unreadable_file_names_no_line(self, tmp_path, capsys):
        path = str(tmp_path / "missing.txt")
        assert main(["solve", "--algo", "oracle", "--input", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
    def test_empty_file_names_no_line(self, tmp_path, capsys, text):
        path = write(tmp_path, "empty.txt", text)
        assert main(["solve", "--algo", "oracle", "--input", path]) == 2
        assert capsys.readouterr().err == "error: empty file\n"

    def test_weights_on_unweighted_kinds_exit_three_for_every_algo(
        self, tmp_path, capsys
    ):
        # every --algo with each unweighted kind it accepts, on the path 1-2-3
        unweighted = {"wsfvs-a3": ("sfvs", "fvs"), "sfvs-xp": ("sfvs", "fvs"),
                      "nmc-a2": ("nmc",), "nmcdt-xp": ("nmcdt",),
                      "wnmcdt-a2": ("nmcdt",), "oracle": ("sfvs", "fvs", "nmc", "nmcdt")}
        weighted = {"wsfvs-a3": ("wsfvs",), "wnmcdt-a2": ("wnmcdt",),
                    "oracle": ("wsfvs", "wnmcdt")}
        assert set(unweighted) == set(ALGOS)
        cases = [(algo, kind, "5", 3) for algo, kinds in unweighted.items() for kind in kinds]
        cases += [(algo, kind, "1", 0) for algo, kinds in unweighted.items() for kind in kinds]
        cases += [(algo, kind, "5", 0) for algo, kinds in weighted.items() for kind in kinds]
        for algo, kind, weight, want in cases:
            special = "" if kind == "fvs" else "set 1 3\n"
            text = f"p {kind} 3 2\nw 2 {weight}\ne 1 2\ne 2 3\n{special}"
            path = write(tmp_path, "path3.txt", text)
            code, out = run(capsys, "solve", "--algo", algo, "--input", path, "--json")
            assert code == want, (algo, kind, weight)
            assert (out == "") == (want == 3), (algo, kind, weight)

    def test_kind_mismatch_exits_three(self, tmp_path, capsys):
        path = write(tmp_path, "nmc.txt", "p nmc 1 0\n")
        assert main(["solve", "--algo", "wsfvs-a3", "--input", path]) == 3

    def test_solvers_are_deterministic_across_threads(self, tmp_path, capsys):
        path = write(tmp_path, "k4.txt", K4_FULL_S)
        docs = []
        for threads in ("1", "4"):
            code, out = run(
                capsys,
                "solve", "--algo", "wsfvs-a3", "--input", path, "--json",
                "--threads", threads,
            )
            assert code == 0
            doc = json.loads(out)
            doc["millis"] = 0  # timing is the only nondeterministic field
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]


class TestCheck:
    def test_removing_everything_is_feasible(self, tmp_path, capsys):
        inst = write(tmp_path, "k4.txt", K4_FULL_S)
        sol = write(tmp_path, "sol.txt", "1 2 3 4\n")
        assert main(["check", "--input", inst, "--solution", sol]) == 0

    def test_empty_solution_on_k4_fails(self, tmp_path, capsys):
        inst = write(tmp_path, "k4.txt", K4_FULL_S)
        sol = write(tmp_path, "sol.txt", "\n")
        assert main(["check", "--input", inst, "--solution", sol]) == 1

    def test_oracle_mode_flags_suboptimal(self, tmp_path, capsys):
        inst = write(tmp_path, "k4.txt", K4_FULL_S)
        good = write(tmp_path, "good.txt", "3 4\n")
        bad = write(tmp_path, "bad.txt", "2 3 4\n")
        assert main(["check", "--input", inst, "--solution", good, "--oracle"]) == 0
        assert main(["check", "--input", inst, "--solution", bad, "--oracle"]) == 1

    def test_out_of_range_solution_id_is_a_parse_error(self, tmp_path, capsys):
        inst = write(tmp_path, "k4.txt", K4_FULL_S)
        sol = write(tmp_path, "sol.txt", "9\n")
        assert main(["check", "--input", inst, "--solution", sol]) == 2

    def test_out_of_range_error_names_its_line(self, tmp_path, capsys):
        inst = write(tmp_path, "p3.txt", "p sfvs 3 0\n")
        sol = write(tmp_path, "sol.txt", "1\n# c\n9\n")
        assert main(["check", "--input", inst, "--solution", sol]) == 2
        err = capsys.readouterr().err
        assert err == "error: line 3: solution vertex 9 out of range 1..3\n"


class TestGen:
    def test_fixed_seed_is_byte_identical(self, tmp_path, capsys):
        args = [
            "gen", "--n", "9", "--alpha", "3", "--p", "0.4", "--seed", "7",
            "--kind", "wsfvs", "--special-frac", "0.4", "--wmax", "5",
        ]
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_d_one_is_complete(self, tmp_path, capsys):
        _, out = run(
            capsys, "gen", "--n", "5", "--alpha", "1", "--p", "0.0", "--seed", "1",
            "--kind", "sfvs",
        )
        assert out.startswith("p sfvs 5 10\n")

    def test_p_one_is_complete(self, tmp_path, capsys):
        _, out = run(
            capsys, "gen", "--n", "5", "--alpha", "3", "--p", "1.0", "--seed", "1",
            "--kind", "sfvs",
        )
        assert out.startswith("p sfvs 5 10\n")


class TestReduce:
    TRI = "p vc3 2 1\ne 1 2\npart A 1\npart B 2\npart C\nk 1\n"

    def test_writes_instance_and_sidecar(self, tmp_path, capsys):
        src = write(tmp_path, "tri.txt", self.TRI)
        dest = str(tmp_path / "out.txt")
        code, _ = run(
            capsys, "reduce", "--from", "vc3", "--to", "wsfvs4",
            "--input", src, "--output", dest, "--verify",
        )
        assert code == 0
        text = (tmp_path / "out.txt").read_text()
        assert text.startswith("p wsfvs 6 ")
        sidecar = (tmp_path / "out.txt.map").read_text()
        assert sidecar == "r_A 3\nr_B 4\nr_C 5\ns 6\n"

    def test_bad_partition_exits_three(self, tmp_path, capsys):
        src = write(tmp_path, "tri.txt", "p vc3 2 1\ne 1 2\npart A 1 2\npart B\npart C\n")
        assert main(["reduce", "--from", "vc3", "--to", "nmc3", "--input", src]) == 3

    def test_unsupported_combination_exits_two(self, tmp_path, capsys):
        src = write(tmp_path, "tri.txt", self.TRI)
        assert main(["reduce", "--from", "vc3", "--to", "fvs", "--input", src]) == 2

    def test_mcis_roundtrip(self, tmp_path, capsys):
        src = write(tmp_path, "mc.txt", "p mcis 2 1\ne 1 2\nclass 1 1\nclass 2 2\n")
        code, _ = run(
            capsys, "reduce", "--from", "mcis", "--to", "fvs", "--input", src, "--verify",
        )
        assert code == 0
        assert (tmp_path / "mc.txt.reduced").exists()
        assert (tmp_path / "mc.txt.reduced.map").read_text().endswith("z 7\n")


def test_module_entry_point(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(K4_FULL_S)
    proc = subprocess.run(
        [sys.executable, "-m", "sfvs", "solve", "--algo", "oracle",
         "--input", str(path), "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["objective"] == 2
