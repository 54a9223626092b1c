"""Parsers and serializers: round trips and line-precise errors."""

from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_solvers as ref
from strsel import Alphabet, CksInstance, CmsInstance, FfmsInstance, MsfbcInstance, StringSet
from strsel.formats import (
    ParseError,
    parse_cnf,
    parse_graph,
    parse_strings_instance,
    serialize_certificate,
    serialize_cnf,
    serialize_graph,
    serialize_strings_instance,
)
from strsel.gen import random_graph, random_max2sat, random_string_set
from strsel.reductions import Graph, reduce_dks_to_msfbc, reduce_max2sat_to_cms
from strsel.words import SYMBOL_CHARS


@st.composite
def string_instances(draw):
    """Any string-set instance, over every alphabet size the format allows."""
    sigma = draw(st.integers(2, len(SYMBOL_CHARS)))
    length, n = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    row = st.text(SYMBOL_CHARS[:sigma], min_size=length, max_size=length)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    kind = draw(st.sampled_from([CmsInstance, FfmsInstance, CksInstance, MsfbcInstance]))
    value = draw(st.integers(1, n) if kind is CksInstance else st.integers(0, length))
    return kind(StringSet.from_texts(rows, Alphabet(sigma)), value), rows


# comment and blank lines, each with the index among the item lines it is inserted at (modulo their count + 1)
INSERTS = st.lists(
    st.tuples(st.integers(0, 64), st.sampled_from(["", "   ", "c", "c a comment", "c 1 2 0", "\tc e 1 2"])), max_size=8
)


def padded(text, inserts):
    """``text`` with the lines of ``inserts`` placed among its item lines, after its header line."""
    header, *items = text.splitlines()
    for at, line in inserts:
        items.insert(at % (len(items) + 1), line)
    return "\n".join([header, *items]) + "\n"


@st.composite
def graphs(draw):
    vertices = draw(st.integers(0, 8))
    edges = draw(st.integers(0, comb(vertices, 2)))
    return random_graph(vertices, edges, seed=draw(st.integers(0, 2**64 - 1)))


class TestStringsFormat:
    def test_basic_cms(self):
        inst = parse_strings_instance("strings 2 2 3\nparam d 1\n00\n01\n11\n")
        assert isinstance(inst, CmsInstance)
        assert inst.set.alphabet.size == 2
        assert inst.set.length == 2
        assert inst.set.size == 3
        assert inst.d == 1

    def test_missing_param_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_strings_instance("strings 2 2 1\n00\n")

    def test_param_token_is_required(self):
        with pytest.raises(ParseError, match="expected 'param <d|k> <value>', got 'paramX d 1'") as err:
            parse_strings_instance("strings 2 2 1\nparamX d 1\n00\n")
        assert err.value.line == 2

    def test_wrong_length_named(self):
        with pytest.raises(ParseError, match="length 3, expected 2"):
            parse_strings_instance("strings 2 2 2\nparam d 1\n00\n010\n")

    def test_problem_selection(self):
        text = "strings 2 3 2\nparam k 2\n000\n011\n"
        assert isinstance(parse_strings_instance(text, CksInstance), CksInstance)
        assert isinstance(parse_strings_instance(text, MsfbcInstance), MsfbcInstance)
        with pytest.raises(ParseError):
            parse_strings_instance(text, CmsInstance)

    def test_round_trip_all_problems(self):
        for seed in range(5):
            s = random_string_set(2 + seed % 3, 4, 5, seed=seed)
            for inst in (
                CmsInstance(s, 2),
                FfmsInstance(s, 2),
                CksInstance(s, 3),
                MsfbcInstance(s, 1),
            ):
                text = serialize_strings_instance(inst)
                assert parse_strings_instance(text, type(inst)) == inst

    @given(string_instances())
    def test_round_trip_property(self, case):
        inst, rows = case
        back = parse_strings_instance(serialize_strings_instance(inst), type(inst))
        assert back == inst and hash(back) == hash(inst)
        assert [str(w) for w in back.set] == back.set.texts() == rows

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("strings 2 2 2\nparam d 1\n\n00\n0x\n", 5, "symbol 'x' at column 2 outside alphabet of size 2"),
            ("strings 3 2 2\nparam d 1\n03\n\n12\n", 3, "symbol '3' at column 2 outside alphabet of size 3"),
            ("strings 2 2 2\nparam d 1\n02\nx1\n", 3, "symbol '2' at column 2 outside alphabet of size 2"),
            ("strings 2 2 2\nparam d 1\n\n00\n\n010\n", 6, "string 2 has length 3, expected 2"),
            ("strings 2 2 1\nparam d 1\n0\n", 3, "string 1 has length 1, expected 2"),
        ],
    )
    def test_row_error_names_its_line_character_and_column(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_strings_instance(text)
        assert err.value.line == line and str(err.value) == f"line {line}: {message}"

    @pytest.mark.parametrize(
        "head, message",
        [
            ("strings 1 2 1", "alphabet size must be in [2, 36], got 1"),
            ("strings 40 2 1", "alphabet size must be in [2, 36], got 40"),
            ("strings 2 0 1", "l must be at least 1, got 0"),
            ("strings 2 2 0", "n must be at least 1, got 0"),
            ("strings 2 2 -3", "n must be at least 1, got -3"),
        ],
    )
    def test_header_out_of_range_names_line_1(self, head, message):
        with pytest.raises(ParseError) as err:
            parse_strings_instance(f"{head}\nparam d 1\n00\n")
        assert str(err.value) == f"line 1: {message}"

    def test_nonbinary_symbols(self):
        inst = parse_strings_instance("strings 3 2 2\nparam d 1\n02\n21\n")
        assert inst.set.words[0].symbols == (0, 2)


class TestCnfFormat:
    def test_basic(self):
        phi = parse_cnf("p cnf 2 1\n1 -2 0\n")
        assert phi.variable_count == 2 and phi.clause_count == 1
        (a, b) = phi.clauses[0]
        assert (a.variable, a.positive) == (1, True)
        assert (b.variable, b.positive) == (2, False)

    def test_tautology_rejected(self):
        with pytest.raises(ParseError, match="tautology"):
            parse_cnf("p cnf 2 1\n1 -1 0\n")

    def test_two_clauses(self):
        phi = parse_cnf("p cnf 3 2\n1 2 0\n-1 3 0\n")
        assert phi.variable_count == 3 and phi.clause_count == 2

    def test_comments_skipped(self):
        phi = parse_cnf("c a comment\np cnf 2 1\n1 2 0\n")
        assert phi.clause_count == 1

    @pytest.mark.parametrize(
        "text, line, words",
        [("p cnf 2 2\n1 2 0\n\n1 -1 0\n", 4, "tautology"), ("p cnf 2 2\nc\n1 2 0\n2 -3 0\n", 4, "range"),
         ("p cnf 2 1\n0 1 0\n", 2, "range"), ("p cnf 2 2\n1 3 0\n", 2, "range")],
    )
    def test_clause_rule_names_its_line(self, text, line, words):
        with pytest.raises(ParseError, match=words) as err:
            parse_cnf(text)
        assert err.value.line == line

    def test_second_header_names_its_line(self):
        with pytest.raises(ParseError, match="second 'p cnf' header") as err:
            parse_cnf("p cnf 2 1\n1 2 0\np cnf 5 1\n")
        assert err.value.line == 3

    def test_clause_count_mismatch(self):
        with pytest.raises(ParseError, match="promises 2"):
            parse_cnf("p cnf 2 2\n1 2 0\n")

    @pytest.mark.parametrize(
        "text, line", [("p cnf 2 1\n1 x 0\n", 2), ("c\np cnf two 1\n1 2 0\n", 2), ("p cnf 2 1.5\n", 1)]
    )
    def test_non_integer_token_names_its_line(self, text, line):
        with pytest.raises(ParseError, match="must be an integer") as err:
            parse_cnf(text)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "text, line", [("p cnf 0 0\n", 1), ("c\np cnf -2 1\n1 2 0\n", 2), ("p cnf 2 0\n", 1)]
    )
    def test_header_count_below_one_names_its_line(self, text, line):
        with pytest.raises(ParseError, match="must be at least 1") as err:
            parse_cnf(text)
        assert err.value.line == line

    def test_round_trip(self):
        for seed in range(5):
            phi = random_max2sat(4, 7, seed=seed)
            assert parse_cnf(serialize_cnf(phi)) == phi

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("x y z\np cnf 2 1\n", 1, "clause line before 'p cnf' header"),
            ("1 2 0\np cnf 2 1\n", 1, "clause line before 'p cnf' header"),
            ("p cnf 2 1\n1 2\n", 2, "expected '<lit> <lit> 0', got '1 2'"),
            ("p cnf 2 1\n\n1 2 3\n", 3, "expected '<lit> <lit> 0', got '1 2 3'"),
            ("p cnf 2\n", 1, "expected 'p cnf <n> <m>', got 'p cnf 2'"),
            ("c\np edge 2 1\n", 2, "expected 'p cnf <n> <m>', got 'p edge 2 1'"),
            ("", 1, "missing 'p cnf' header"),
            ("c only\n\n", 2, "missing 'p cnf' header"),
            ("p cnf 2 1\n", 1, "header promises 1 clauses, found 0"),
            ("p cnf 2 1\n1 2 0\n-1 2 0\n", 3, "header promises 1 clauses, found 2"),
            ("p cnf 2 2\n1 -1 0\n", 2, "clause 1 is a tautology (x and ~x on variable 1)"),
            ("p cnf 2 3x\n", 1, "clause count must be an integer, got '3x'"),
        ],
    )
    def test_error_table(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_cnf(text)
        assert err.value.line == line and str(err.value) == f"line {line}: {message}"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 24), st.integers(0, 2**64 - 1), INSERTS)
    def test_round_trip_with_comments_and_blank_lines(self, n, m, seed, inserts):
        phi = random_max2sat(n, m, seed=seed)
        assert parse_cnf(padded(serialize_cnf(phi), inserts)) == phi


class TestGraphFormat:
    def test_k3(self):
        g = parse_graph("p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")
        assert g.vertex_count == 3 and g.edge_count == 3

    def test_loop_rejected(self):
        with pytest.raises(ParseError, match="loop"):
            parse_graph("p edge 2 1\ne 1 1\n")

    def test_range_rejected(self):
        with pytest.raises(ParseError, match="range"):
            parse_graph("p edge 2 1\ne 1 3\n")

    def test_duplicate_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_graph("p edge 3 2\ne 1 2\ne 2 1\n")

    @pytest.mark.parametrize(
        "text, line, words",
        [("p edge 3 2\ne 1 2\n\ne 3 3\n", 4, "loop"), ("p edge 3 2\nc\ne 1 2\ne 2 4\n", 4, "range"),
         ("p edge 3 3\ne 1 2\ne 2 3\ne 2 1\n", 4, "duplicate"), ("p edge 3 2\ne 1 1\n", 2, "loop")],
    )
    def test_edge_rule_names_its_line(self, text, line, words):
        with pytest.raises(ParseError, match=words) as err:
            parse_graph(text)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "text, line", [("p edge 3 1\ne 1 y\n", 2), ("p edge three 1\n", 1), ("p edge 3 1\n\ne 0x1 2\n", 3)]
    )
    def test_non_integer_token_names_its_line(self, text, line):
        with pytest.raises(ParseError, match="must be an integer") as err:
            parse_graph(text)
        assert err.value.line == line

    @pytest.mark.parametrize("text, line", [("p edge -1 0\n", 1), ("c\np edge 3 -1\n", 2)])
    def test_negative_header_count_names_its_line(self, text, line):
        with pytest.raises(ParseError, match="must be at least 0") as err:
            parse_graph(text)
        assert err.value.line == line

    def test_second_header_names_its_line(self):
        with pytest.raises(ParseError, match="second 'p edge' header") as err:
            parse_graph("p edge 3 1\ne 1 2\nc\np edge 5 1\n")
        assert err.value.line == 4

    def test_empty_graph(self):
        assert parse_graph("p edge 0 0\n") == Graph(0, ())

    def test_tokens_split_on_any_whitespace(self):
        # both formats share one line reader, so an edge line splits on tabs as a clause line does
        assert parse_graph("p edge 2 1\ne\t1\t2\n") == parse_graph("p\tedge 2 1\ne 1 2\n")
        assert parse_cnf("p cnf 2 1\n1\t-2\t0\n") == parse_cnf("p cnf 2 1\n1 -2 0\n")

    def test_round_trip(self):
        for seed in range(5):
            g = random_graph(6, 8, seed=seed)
            assert parse_graph(serialize_graph(g)) == g

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("e 1 2\np edge 3 1\n", 1, "edge line before 'p edge' header"),
            ("p edge 3 1\ne 1 2 3\n", 2, "expected 'e <u> <v>', got 'e 1 2 3'"),
            ("p edge 3 1\nc\ne 1\n", 3, "expected 'e <u> <v>', got 'e 1'"),
            ("p edge 3 1\nx 1 2\n", 2, "expected 'e <u> <v>', got 'x 1 2'"),
            ("p edge 3\n", 1, "expected 'p edge <V> <E>', got 'p edge 3'"),
            ("p cnf 3 1\n", 1, "expected 'p edge <V> <E>', got 'p cnf 3 1'"),
            ("c only\n", 1, "missing 'p edge' header"),
            ("", 1, "missing 'p edge' header"),
            ("p edge 3 2\ne 1 2\n", 2, "header promises 2 edges, found 1"),
            ("p edge 3 1\n", 1, "header promises 1 edges, found 0"),
            ("p edge 3 2\ne 1 1\n", 2, "loop edge (1,1) not allowed in a simple graph"),
            ("p edge 3 1\ne 1 2\ne 1 3\n", 3, "header promises 1 edges, found 2"),
            # the one message the shared reader changed: a line before the header is refused for its place first
            ("x 1 2\np edge 3 1\n", 1, "edge line before 'p edge' header"),
        ],
    )
    def test_error_table(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert err.value.line == line and str(err.value) == f"line {line}: {message}"

    @settings(max_examples=60, deadline=None)
    @given(graphs(), INSERTS)
    @example(random_graph(0, 0, seed=1), [(0, "c"), (0, "")])
    def test_round_trip_with_comments_and_blank_lines(self, g, inserts):
        assert parse_graph(padded(serialize_graph(g), inserts)) == g


class TestCertificate:
    def test_sat_certificate_lines(self):
        phi = random_max2sat(3, 3, seed=1)
        _, cert = reduce_max2sat_to_cms(phi, c=2, seed=5)
        text = serialize_certificate(cert, source_path="phi.cnf")
        lines = text.splitlines()
        assert "seed=5" in lines
        assert "c=2" in lines
        assert "source=phi.cnf" in lines
        assert sum(1 for ln in lines if ln.startswith("map=")) == 9

    def test_graph_certificate_no_seed(self):
        g = random_graph(4, 3, seed=2)
        _, cert = reduce_dks_to_msfbc(g, 2)
        text = serialize_certificate(cert, source_path="g.txt")
        assert not any(ln.startswith("seed=") for ln in text.splitlines())
        assert sum(1 for ln in text.splitlines() if ln.startswith("map=")) == 4

    def test_index_map_total(self):
        phi = random_max2sat(3, 4, seed=3)
        inst, cert = reduce_max2sat_to_cms(phi, c=3, seed=0)
        assert [(kind, len(refs)) for kind, refs in cert.layout] == [("fixing", 3 * 4), ("clause", 4)]
        maps = [ln[len("map="):].split() for ln in serialize_certificate(cert).splitlines() if ln.startswith("map=")]
        assert [int(index) for index, _, _ in maps] == list(range(inst.set.size))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 6), st.integers(1, 4), st.integers(0, 2**64 - 1))
    def test_sat_certificate_matches_per_string_reference(self, n, extra, c, seed):
        phi = random_max2sat(n, n + extra, seed=seed)
        _, cert = reduce_max2sat_to_cms(phi, c=c, seed=seed)
        expected = ref.serialize_certificate(cert, ref.sat2cms_index_map(phi, c), "phi.cnf")
        assert serialize_certificate(cert, source_path="phi.cnf") == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7), st.data())
    def test_graph_certificate_matches_per_string_reference(self, vertices, data):
        edges, seed = data.draw(st.integers(0, comb(vertices, 2))), data.draw(st.integers(0, 2**64 - 1))
        g = random_graph(vertices, edges, seed=seed)
        _, cert = reduce_dks_to_msfbc(g, data.draw(st.integers(1, vertices)))
        expected = ref.serialize_certificate(cert, ref.dks2msfbc_index_map(g), "g.col")
        assert serialize_certificate(cert, source_path="g.col") == expected
