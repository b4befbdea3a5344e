import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from sfvs import Graph, PreconditionError, ProblemInstance
from sfvs.fileformat import (
    ParseError,
    emit_instance,
    emit_mapping,
    parse_instance,
    parse_multicolored,
    parse_solution_ids,
    parse_tripartite,
)
from sfvs.reductions import reduce_vc3_to_wsfvs


def _parse_by_header(text: str):
    """Parse ``text`` with the parser of its header's kind."""
    kind = text.split()[1] if text.strip() else None
    parse = {"vc3": parse_tripartite, "mcis": parse_multicolored}.get(kind, parse_instance)
    return parse(text)


class TestParsing:
    def test_minimal_file(self):
        inst = parse_instance("p sfvs 1 0\n")
        assert inst.graph.n == 1 and inst.special == () and inst.budget is None

    def test_triangle_with_set(self):
        inst = parse_instance("p sfvs 3 3\ne 1 2\ne 2 3\ne 1 3\nset 1\n")
        assert inst.special == (1,)
        assert inst.graph.edges == frozenset({(1, 2), (2, 3), (1, 3)})

    def test_comments_and_blanks(self):
        text = "# header\n\np wsfvs 2 1  # trailing\ne 1 2\nw 1 5\nk 3\n"
        inst = parse_instance(text)
        assert inst.graph.weight(1) == 5 and inst.budget == 3

    def test_fvs_specials_default_to_everyone(self):
        inst = parse_instance("p fvs 3 0\n")
        assert inst.special == (1, 2, 3)
        with pytest.raises(ParseError):
            parse_instance("p fvs 3 0\nset 1\n")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("p sfvs 1 0\ne 1 1\n", "self-loop"),
            ("p sfvs 2 2\ne 1 2\ne 2 1\n", "duplicate edge"),
            ("p sfvs 2 1\ne 1 3\n", "out of range"),
            # a spelling the fast tables do not hold still finds the edge
            ("p sfvs 3 2\ne 1 3\ne 01 3\n", "duplicate edge 1-3"),
            ("p sfvs 2 1\ne 2 02\n", "self-loop"),
            ("p sfvs 2 1\ne 1\n", "edge line needs 'e <u> <v>'"),
            ("p sfvs 2 1\ne 1 x\n", "vertex id must be an integer, got 'x'"),
            ("p sfvs 2 1\ne 0 1\n", "vertex id 0 out of range 1..2"),
            ("p sfvs 2 1\ne x 3\n", "got 'x'"),
            ("p sfvs 2 1\ne 3 x\n", "vertex id 3 out of range"),
            ("p sfvs 3 2\ne 1 2\n# note\ne 2 1\n", "duplicate edge 1-2"),
            ("p vc3 3 2\npart A 1\ne 1 2\ne 2 1\n", "duplicate edge 1-2"),
            ("p mcis 3 2\nclass 1 1\ne 2 1\ne 1 2\n", "duplicate edge 1-2"),
            ("p sfvs 2 0\nw 1 0\n", "must be >= 1"),
            ("p sfvs 2 0\nset 1 1\n", "repeats"),
            ("p sfvs 2 1\n", "promises 1 edges"),
            ("p tsp 2 0\n", "unknown kind"),
            ("p sfvs 2 0\nfoo 1\n", "unknown directive"),
            ("p sfvs 2 0\nk -1\n", "nonnegative"),
            ("", "empty file"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ParseError) as err:
            _parse_by_header(text)
        assert fragment in str(err.value)
        # every case puts the offending line last; line 0, a fault of no
        # line, goes unnamed
        assert err.value.line_no == len(text.splitlines())
        named = f"line {err.value.line_no}: "
        assert str(err.value).startswith(named) == (err.value.line_no > 0)

    def test_other_spellings_parse_like_canonical_ids(self):
        # every token the fast tables do not hold takes the checked path,
        # which reads it with int()
        inst = ProblemInstance(
            Graph(12, [(1, 7), (7, 10), (2, 7), (10, 12), (3, 10), (1, 12)], {7: 4}),
            "wsfvs", (7, 10), budget=6,
        )
        spelled = {"7": ["007", "+7", "7"], "10": ["1_0", "10", "0010"]}
        out = []
        for line in emit_instance(inst).splitlines():
            tokens = line.split()
            if tokens[0] == "e":
                tokens[1:] = [spelled[t].pop(0) if spelled.get(t) else t for t in tokens[1:]]
            out.append("\t".join(tokens) + " \t# trailing comment")
        text = "\r\n".join(out) + "\r\n"
        assert "007" in text and "+7" in text and "1_0" in text
        assert parse_instance(text) == inst

    def test_sparse_huge_file_parses_in_little_memory(self):
        # the fast path's bit table is lazy: an eager 1 << v for every
        # v <= n is Θ(n²) bits and peaked at 27.8 MB on this file
        tracemalloc.start()
        try:
            inst = parse_instance("p sfvs 20000 1\ne 1 20000\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.graph.edge_count() == 1
        assert peak < 8 * 2**20, peak

    def test_error_line_number_is_right(self):
        with pytest.raises(ParseError) as err:
            parse_instance("p sfvs 2 1\n# fine\ne 1 1\n")
        assert err.value.line_no == 3

    @pytest.mark.parametrize(
        "text,line_no",
        [("p sfvs 2 1\n\n# tail\n", 1), ("p sfvs 3 3\ne 1 2\ne 2 3\n \n# tail\n\n", 3)],
    )
    def test_edge_count_error_names_the_last_line_with_tokens(self, text, line_no):
        with pytest.raises(ParseError, match="header promises") as err:
            parse_instance(text)
        assert err.value.line_no == line_no


class TestEmission:
    def test_roundtrip_identity(self):
        inst = ProblemInstance(
            Graph(4, [(2, 4), (1, 2)], {3: 7}), "wsfvs", (2, 1), budget=5
        )
        assert parse_instance(emit_instance(inst)) == inst

    def test_canonical_output(self):
        inst = ProblemInstance(Graph(3, [(2, 3), (1, 3)]), "nmc", (3,))
        assert emit_instance(inst) == "p nmc 3 2\ne 1 3\ne 2 3\nset 3\n"

    def test_fvs_roundtrip_without_a_set_line(self):
        inst = ProblemInstance(Graph(3, [(1, 2)]), "fvs", (1, 2, 3))
        text = emit_instance(inst)
        assert "set" not in text
        assert parse_instance(text) == inst

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_roundtrip_random(self, data):
        n = data.draw(st.integers(0, 8))
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        weights = {
            v: data.draw(st.integers(1, 9), label=f"w{v}") for v in range(1, n + 1)
        }
        kind = data.draw(st.sampled_from(["wsfvs", "sfvs", "nmc", "nmcdt", "wnmcdt"]))
        special = tuple(
            v for v in range(1, n + 1) if data.draw(st.booleans(), label=f"s{v}")
        )
        budget = data.draw(st.one_of(st.none(), st.integers(0, 12)))
        inst = ProblemInstance(Graph(n, edges, weights), kind, special, budget)
        assert parse_instance(emit_instance(inst)) == inst


class TestSolutionFiles:
    def test_simple_line(self):
        assert parse_solution_ids("3 1 2\n", 3) == (1, 2, 3)

    def test_empty_is_empty(self):
        assert parse_solution_ids("\n# nothing\n", 0) == ()

    def test_duplicates_rejected(self):
        with pytest.raises(ParseError):
            parse_solution_ids("1 1\n", 3)

    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            ("1\n2\n# x\n1\n", 4, "solution repeats a vertex"),
            ("1\n# c\n9\n", 3, "solution vertex 9 out of range 1..3"),
        ],
        ids=["repeat", "out-of-range"],
    )
    def test_errors_name_their_own_line(self, text, line_no, message):
        with pytest.raises(ParseError) as info:
            parse_solution_ids(text, 3)
        assert info.value.line_no == line_no
        assert str(info.value) == f"line {line_no}: {message}"


class TestReductionSources:
    def test_tripartite_file(self):
        text = "p vc3 3 2\ne 1 2\ne 2 3\npart A 1 3\npart B 2\npart C\nk 1\n"
        tg, budget = parse_tripartite(text)
        assert tg.parts == ((1, 3), (2,), ())
        assert budget == 1

    def test_tripartite_partition_must_be_independent(self):
        text = "p vc3 2 1\ne 1 2\npart A 1 2\npart B\npart C\n"
        with pytest.raises(PreconditionError):
            parse_tripartite(text)

    def test_multicolored_file(self):
        text = "p mcis 4 1\ne 1 3\nclass 1 1 2\nclass 2 3 4\n"
        mi = parse_multicolored(text)
        assert mi.classes == ((1, 2), (3, 4))

    def test_multicolored_indices_must_be_contiguous(self):
        with pytest.raises(ParseError):
            parse_multicolored("p mcis 2 0\nclass 1 1\nclass 3 2\n")

    def test_mapping_sidecar_format(self):
        tg, _ = parse_tripartite("p vc3 2 1\ne 1 2\npart A 1\npart B 2\npart C\n")
        out = reduce_vc3_to_wsfvs(tg, 1)
        assert emit_mapping(out) == "r_A 3\nr_B 4\nr_C 5\ns 6\n"
