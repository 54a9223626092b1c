"""Parsers and serializers: round trips and line-precise errors."""

import pytest

from strsel import CksInstance, CmsInstance, FfmsInstance, MsfbcInstance
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

    def test_wrong_length_named(self):
        with pytest.raises(ParseError, match="length 3, expected 2"):
            parse_strings_instance("strings 2 2 2\nparam d 1\n00\n010\n")

    def test_problem_selection(self):
        text = "strings 2 3 2\nparam k 2\n000\n011\n"
        assert isinstance(parse_strings_instance(text, "cks"), CksInstance)
        assert isinstance(parse_strings_instance(text, "msfbc"), MsfbcInstance)
        with pytest.raises(ParseError):
            parse_strings_instance(text, "cms")

    def test_round_trip_all_problems(self):
        for seed in range(5):
            s = random_string_set(2 + seed % 3, 4, 5, seed=seed)
            for inst in (
                CmsInstance(s, 2),
                FfmsInstance(s, 2),
                CksInstance(s, 3),
                MsfbcInstance(s, 1),
            ):
                name = type(inst).__name__[:-8].lower()
                text = serialize_strings_instance(inst)
                assert parse_strings_instance(text, name) == inst

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

    def test_empty_graph(self):
        assert parse_graph("p edge 0 0\n") == Graph(0, ())

    def test_round_trip(self):
        for seed in range(5):
            g = random_graph(6, 8, seed=seed)
            assert parse_graph(serialize_graph(g)) == g


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
        indices = [i for (i, _, _) in cert.index_map]
        assert indices == list(range(inst.set.size))
