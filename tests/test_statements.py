"""The one statement grammar: round trips through the canonical printers,
and inputs the grammar rejects everywhere it is read."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtcausal import cli
from dtcausal.dsl import parse, print_doc
from dtcausal.statements import EciStatement, StatementError, format_statement, parse_statement

from conftest import CORPUS, parse_error

HEAD = "ABCFTXYZabfxy_"  # no DSL keyword starts with one of these
TAIL = HEAD + "0123456789"
identifiers = st.builds(lambda head, tail: head + tail, st.sampled_from(HEAD), st.text(TAIL, max_size=4))
names = st.builds(lambda base, star: base + star, identifiers, st.sampled_from(["", "*"]))
numbers = st.builds(
    lambda sign, whole, frac: sign + whole + frac,
    st.sampled_from(["", "-"]), st.text("0123456789", min_size=1, max_size=3), st.sampled_from(["", ".5", ".25"]),
)
pin_values = st.one_of(identifiers, numbers, st.just("~"))


@st.composite
def statements(draw):
    pool = draw(st.lists(names, min_size=2, max_size=8, unique=True))
    cut = draw(st.integers(1, len(pool) - 1))
    left, rest = pool[:cut], pool[cut:]
    right = draw(st.sets(st.sampled_from(rest), min_size=1, max_size=3))
    given = draw(st.sets(st.sampled_from(rest), max_size=3))
    pins = tuple((n, draw(pin_values)) for n in rest if n not in given and draw(st.booleans()))
    return EciStatement(frozenset(left), frozenset(right), frozenset(given), pins)


@given(statements())
@settings(max_examples=100, deadline=None)
def test_format_then_parse_is_identity(stmt):
    assert parse_statement(format_statement(stmt)) == stmt


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.cadt")), ids=lambda p: p.stem)
def test_canonical_print_is_a_fixed_point(path):
    printed = print_doc(parse(path.read_text()))
    assert print_doc(parse(printed)) == printed


# Accepted by the split-on-separators parser that premise files and the CLI
# once used, rejected by the `.cadt` grammar.
REJECTED = ["X _||_ Y |", "X _||_ Y | F=a b", "X _||_ Y | F=x.y", "X _||_ Y | F=1e3", "plan _||_ Y"]


@pytest.mark.parametrize("text", REJECTED)
def test_rejected_everywhere(text, capsys):
    with pytest.raises(StatementError) as exc:
        parse_statement(text)
    line, column, _, _ = parse_error(exc.value)
    assert line == 1 and 1 <= column <= len(text) + 1
    assert cli.main(["dsep", str(CORPUS / "itt_ignorable.cadt"), "--query", text]) == 2
    assert "Traceback" not in capsys.readouterr().err


X, Y, F = frozenset({"X"}), frozenset({"Y"}), frozenset({"F"})


@pytest.mark.parametrize(
    "fields, message",
    [
        ((frozenset(), Y), "left side must be nonempty"),
        ((X, Y, frozenset(), (("F", "1"), ("F", "2"))), "regime pinned twice"),
        ((X, X | Y), "left side overlaps other sets: ['X']"),
        ((X, Y, X), "left side overlaps other sets: ['X']"),
        ((F, Y, frozenset(), (("F", "1"),)), "left side overlaps other sets: ['F']"),
        ((X, Y, F, (("F", "1"),)), "variable both pinned and plainly conditioned"),
    ],
    ids=["empty-left", "pinned-twice", "left-in-right", "left-in-given", "left-pinned", "pinned-and-given"],
)
def test_statement_construction_rejects(fields, message):
    with pytest.raises(StatementError) as exc:
        EciStatement(*fields)
    assert str(exc.value) == message


def test_pins_come_back_sorted():
    stmt = EciStatement(X, Y, frozenset(), (("G", "~"), ("F", "1")))
    assert stmt.pinned == (("F", "1"), ("G", "~"))


def test_replace_runs_the_checks():
    stmt = EciStatement(X, Y)
    with pytest.raises(StatementError, match=r"^left side overlaps other sets: \['X'\]$"):
        stmt._replace(given=X)
    assert stmt._replace(pinned=(("G", "~"), ("F", "1"))).pinned == (("F", "1"), ("G", "~"))


def test_statements_are_immutable_values():
    """Equal fields give equal, equally hashed statements, whatever order the pins come in."""
    a = EciStatement(X, Y, frozenset({"Z"}), (("G", "~"), ("F", "1")))
    b = EciStatement(X, Y, frozenset({"Z"}), (("F", "1"), ("G", "~")))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != EciStatement(X, Y, frozenset({"Z"}), (("F", "1"),))
    with pytest.raises(AttributeError):
        a.left = Y
