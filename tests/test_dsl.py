import random
import string

import pytest

from dtcausal.dsl import canonical_graph_text, load_doc, parse, print_doc
from dtcausal.graph import Dag, Edge, Node, REGIME
from dtcausal.statements import StatementError

from conftest import CORPUS, parse_error

CADT_FILES = sorted(CORPUS.glob("*.cadt"))


def test_corpus_present():
    assert len(CADT_FILES) >= 10


@pytest.mark.parametrize("path", CADT_FILES, ids=lambda p: p.stem)
def test_round_trip_is_identity_on_corpus(path):
    source = path.read_text()
    doc = parse(source)
    assert print_doc(doc) == source
    assert parse(print_doc(doc)) == doc


class TestParse:
    def test_statement_and_plan(self):
        doc = parse(
            "graph g {\n"
            "  node T;\n  node Y;\n"
            "  regime F_T targets T;\n"
            "  edge T -> Y;\n"
            "}\n"
            "statement s: Y _||_ F_T | T;\n"
            "plan: T;\n"
        )
        assert doc.name == "g"
        assert doc.plan == ("T",)
        assert doc.statements[0][0] == "s"
        assert doc.statements[0][1].left == frozenset({"Y"})

    def test_pinned_regime_value(self):
        doc = parse(
            "graph g { node T; node Y; regime F targets T; edge T -> Y; }\n"
            "statement s: Y _||_ T | F=1;\n"
        )
        assert doc.statements[0][1].pinned == (("F", "1"),)

    def test_idle_pin(self):
        doc = parse(
            "graph g { node T; node Y; regime F targets T; edge T -> Y; }\n"
            "statement s: Y _||_ T | F=~;\n"
        )
        assert doc.statements[0][1].pinned == (("F", "~"),)

    def test_dashed_edge_and_flags(self):
        doc = parse(
            "graph g {\n"
            "  node T deterministic;\n  node T* latent;\n  node Y;\n"
            "  regime F targets T;\n"
            "  edge T* -> T dashed;\n  edge T -> Y;\n"
            "}\n"
        )
        assert doc.dag.node("T*").latent
        assert Edge("T*", "T", dashed=True) in doc.dag.edges

    def test_comments_ignored(self):
        doc = parse("# header\ngraph g { node A; } # trailing\n# done\n")
        assert doc.dag.node_names == frozenset({"A"})


class TestDiagnostics:
    def expect(self, source, fragment, line=None):
        with pytest.raises(StatementError) as exc:
            parse(source)
        err_line, _, message, _ = parse_error(exc.value)
        assert fragment in message, exc.value
        if line is not None:
            assert err_line == line, exc.value

    def test_missing_graph_keyword(self):
        self.expect("node A;", "unexpected", line=1)

    def test_unknown_edge_endpoint(self):
        self.expect("graph g {\n  node A;\n  edge A -> B;\n}\n", "unknown node 'B'", line=3)

    def test_self_loop_reported_before_unknown_node(self):
        self.expect("graph g { edge A -> A; }", "self-loop")

    def test_cycle(self):
        self.expect("graph g { node A; node B; edge A -> B; edge B -> A; }", "cycle")

    def test_cycle_diagnostic_points_at_graph_keyword(self):
        source = "# header\n\n  graph cyc {\n  node A; node B; node C;\n  edge A -> B; edge B -> C; edge C -> A;\n}\n"
        with pytest.raises(StatementError) as exc:
            parse(source)
        assert parse_error(exc.value) == (3, 3, "graph contains a directed cycle", ())

    def test_graph_errors_joined_in_one_diagnostic(self):
        source = "graph g {\n  node A;\n  regime F targets A;\n  edge A -> F;\n}\n"
        with pytest.raises(StatementError) as exc:
            parse(source)
        line, column, message, _ = parse_error(exc.value)
        assert (line, column) == (1, 1)
        assert message == "regime node 'F' has parent 'A'; graph contains a directed cycle"

    def test_duplicate_node(self):
        self.expect("graph g {\n  node A;\n  node A;\n}\n", "duplicate node 'A'", line=3)

    def test_duplicate_statement_name(self):
        self.expect(
            "graph g { node A; node B; edge A -> B; }\n"
            "statement s: A _||_ B;\nstatement s: B _||_ A;\n",
            "duplicate statement name",
            line=3,
        )

    def test_statement_mentions_unknown_variable(self):
        self.expect("graph g { node A; }\nstatement s: A _||_ Q;\n", "unknown", line=2)

    def test_duplicate_plan_target(self):
        self.expect("graph g { node A; node B; }\nplan: A, A;\n", "duplicate plan target")

    def test_unexpected_character(self):
        self.expect("graph g { node A; } $", "unexpected character")

    def test_unexpected_eof(self):
        self.expect("graph g { node A;", "end of input")

    def test_expected_tokens_listed(self):
        with pytest.raises(StatementError) as exc:
            parse("graph g { frob A; }")
        assert str(exc.value) == "line 1, column 11: unexpected 'frob' (expected 'node', 'regime', 'edge', '}')"
        expected = parse_error(exc.value)[3]
        assert expected
        assert "'node'" in expected

    def test_column_positions(self):
        with pytest.raises(StatementError) as exc:
            parse("graph g { node A; edge A -> B; }")
        line, column, _, _ = parse_error(exc.value)
        assert line == 1 and column == 24


class TestCanonicalPrinter:
    def test_sections_sorted(self):
        dag = Dag.of(
            {Node("B"), Node("A"), Node("F", REGIME), Node("C", deterministic=True)},
            {Edge("B", "A"), Edge("A", "C"), Edge("F", "C")},
        )
        text = canonical_graph_text("g", dag)
        assert text == (
            "graph g {\n"
            "  node A;\n"
            "  node B;\n"
            "  node C deterministic;\n"
            "  regime F targets C;\n"
            "  edge A -> C;\n"
            "  edge B -> A;\n"
            "}\n"
        )

    def test_regime_with_two_children_prints_two_lines(self):
        dag = Dag.of(
            {Node("F", REGIME), Node("T"), Node("Y")},
            {Edge("F", "T"), Edge("F", "Y"), Edge("T", "Y")},
        )
        text = canonical_graph_text("g", dag)
        assert text.count("regime F targets") == 2
        assert "regime F targets T;" in text and "regime F targets Y;" in text

    def test_canonical_text_equality_matches_graph_equality(self):
        a = Dag.of({Node("X"), Node("Y")}, {Edge("X", "Y")})
        b = Dag.of({Node("Y"), Node("X")}, {Edge("X", "Y")})
        assert canonical_graph_text("g", a) == canonical_graph_text("g", b)


def test_fuzz_never_crashes():
    rng = random.Random(2024)
    alphabet = string.ascii_letters + string.digits + " \n\t{};:,|=~*->_#."
    pieces = ["graph", "node", "edge", "regime", "targets", "statement", "plan", "_||_", "->", "{", "}", ";"]
    for trial in range(2000):
        if trial % 2 == 0:
            source = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
        else:
            source = " ".join(rng.choice(pieces) for _ in range(rng.randrange(0, 40)))
        try:
            parse(source)
        except StatementError as err:
            line, column, _, _ = parse_error(err)
            assert line >= 1 and column >= 1


def test_load_doc(tmp_path):
    target = tmp_path / "t.cadt"
    target.write_text("graph g { node A; }\n")
    assert load_doc(target).name == "g"
