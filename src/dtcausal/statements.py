"""Extended conditional independence statements and their one text grammar.

Text form, read by `.cadt` statement lines, premise files (one statement
per line) and the CLI's ``--query``, ``--statement`` and ``--target``:

    A, B _||_ C, F | D, F2=1

``_||_`` separates the left and right variable lists, ``|`` introduces
the conditioning terms, ``=`` pins a regime indicator to a value, and
``~`` is the idle value (so ``F=~`` pins the observational regime).
A name is an identifier (letters, digits and ``_``, not starting with a
digit, optionally ending in ``*``) that is not a DSL keyword; a pin value
is an identifier, a number or ``~``; only conditioning terms may be
pinned.  ``#`` starts a comment that runs to the end of the line.

This module owns the lexer shared with `dtcausal.dsl`: `_tokenize` turns
text into ``(kind, text, offset)`` tuples in one regex pass, and `Parser`
walks them.  A fault found in text raises `StatementError` whose message
is ``line L, column C: message (expected ...)``, with the 1-based line and
column computed from the offset only when the error is raised.
"""

from __future__ import annotations

import re
from collections import namedtuple

from dtcausal import checked_make, keyed
from dtcausal.graph import REGIME, Dag

KEYWORDS = frozenset({"graph", "node", "regime", "targets", "edge", "latent", "deterministic", "dashed", "statement", "plan"})


class StatementError(ValueError):
    """Raised for malformed independence statements; one found while parsing
    text starts its message with the line and column."""


class EciStatement(namedtuple("EciStatement", "left right given pinned")):
    """A triple (left independent of right, given the conditioning terms).

    `left`, `right` and `given` are frozensets of names: `given` holds plain
    conditioning variables, and `pinned` holds, sorted, the regime indicators
    pinned to a specific value (idle included) as (name, value) pairs.
    """

    __slots__ = ()
    _make = checked_make

    def __new__(
        cls,
        left: frozenset[str],
        right: frozenset[str],
        given: frozenset[str] = frozenset(),
        pinned: tuple[tuple[str, str], ...] = (),
    ) -> "EciStatement":
        if not left:
            raise StatementError("left side must be nonempty")
        pinned_names = frozenset(keyed(pinned, lambda _: StatementError("regime pinned twice")))
        # The left side must not overlap the other sets; right/given overlap
        # is permitted (it yields redundancy instances such as X _||_ Y | Y).
        overlap = left & (right | given | pinned_names)
        if overlap:
            raise StatementError(f"left side overlaps other sets: {sorted(overlap)}")
        if pinned_names & given:
            raise StatementError("variable both pinned and plainly conditioned")
        return tuple.__new__(cls, (left, right, given, tuple(sorted(pinned))))

    def variables(self) -> frozenset[str]:
        return self.left | self.right | self.given | frozenset(n for n, _ in self.pinned)

    def validate_against(self, dag: Dag) -> None:
        """Check node existence and the left-side stochasticity restriction,
        naming the first offending name in sorted order."""
        for name in sorted(self.variables()):
            if not dag.has_node(name):
                raise StatementError(f"unknown node {name!r}")
        for name in sorted(self.left):
            if dag.kind_of(name) == REGIME:
                raise StatementError(f"regime node {name!r} on left side")
        for name, _ in self.pinned:
            if dag.kind_of(name) != REGIME:
                raise StatementError(f"pinned node {name!r} is not a regime")


# One alternative per token kind; `bad` catches the first unexpected character.
_TOKEN_RE = re.compile(
    r"""
    (?P<skip>[ \t\r\n]+|\#[^\n]*)
  | (?P<indep>_\|\|_)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*\*?)
  | (?P<number>-?[0-9]+(?:\.[0-9]+)?)
  | (?P<arrow>->)
  | (?P<punct>[{};:,|=~])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

Token = tuple[str, str, int]  # kind ("ident", "number", "indep", "arrow", a punctuation literal, "eof"), text, offset

_LABELS = {"ident": "identifier", "indep": "'_||_'", "arrow": "'->'", "eof": "end of input"}


def _label(kind: str) -> str:
    return _LABELS.get(kind) or f"'{kind}'"


def _error_at(source: str, offset: int, message: str, expected: tuple[str, ...] = ()) -> StatementError:
    line, column = source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)
    detail = f" (expected {', '.join(expected)})" if expected else ""
    return StatementError(f"line {line}, column {column}: {message}{detail}")


def _tokenize(source: str, start: int = 0, end: int | None = None) -> list[Token]:
    """The tokens of ``source[start:end]``, offsets counted from the start of
    `source`, ending with an ``eof`` token."""
    end = len(source) if end is None else end
    tokens = []
    for m in _TOKEN_RE.finditer(source, start, end):
        kind = m.lastgroup
        if kind == "skip":
            continue
        text = m.group()
        if kind == "bad":
            raise _error_at(source, m.start(), f"unexpected character {text!r}")
        tokens.append((text if kind == "punct" else kind, text, m.start()))
    tokens.append(("eof", "", end))
    return tokens


class Parser:
    """Cursor over the tokens of ``source[start:end]``, with the statement
    grammar; `dtcausal.dsl` parses graphs and plans with the same cursor."""

    def __init__(self, source: str, start: int = 0, end: int | None = None):
        self.source = source
        self.tokens = _tokenize(source, start, end)
        self.pos = 0

    @property
    def here(self) -> Token:
        return self.tokens[self.pos]

    def error(self, message: str, expected: tuple[str, ...] = (), at: Token | None = None) -> StatementError:
        return _error_at(self.source, (at or self.here)[2], message, expected)

    def unexpected(self, *expected: str) -> StatementError:
        kind, text, _ = self.here
        return self.error("unexpected end of input" if kind == "eof" else f"unexpected {text!r}", expected)

    def take(self, kind: str) -> Token:
        t = self.here
        if t[0] != kind:
            raise self.unexpected(_label(kind))
        self.pos += 1
        return t

    def at_keyword(self, word: str) -> bool:
        kind, text, _ = self.here
        return kind == "ident" and text == word

    def take_keyword(self, word: str) -> Token:
        t = self.here
        if t[0] != "ident" or t[1] != word:
            raise self.unexpected(f"'{word}'")
        self.pos += 1
        return t

    def take_name(self) -> Token:
        t = self.here
        if t[0] != "ident" or t[1] in KEYWORDS:
            raise self.unexpected("identifier")
        self.pos += 1
        return t

    def statement(self, end: str) -> EciStatement:
        """Parse one statement body, which must be followed by a token of kind
        `end` (left in place)."""
        start = self.here
        left = self._terms(("indep",), None)
        self.pos += 1  # the '_||_' that ended the list
        right = self._terms(("|", end), None)
        given: list[str] = []
        pins: list[tuple[str, str]] = []
        if self.here[0] == "|":
            self.pos += 1
            given = self._terms((end,), pins)
        try:
            return EciStatement(frozenset(left), frozenset(right), frozenset(given), tuple(pins))
        except StatementError as exc:
            raise self.error(str(exc), at=start) from None

    def _terms(self, stop: tuple[str, ...], pins: list[tuple[str, str]] | None) -> list[str]:
        """A comma-separated list ending before a token of a `stop` kind; pinned
        terms go to `pins`, and are allowed only when it is given."""
        plain = []
        while True:
            name = self.take_name()[1]
            if pins is not None and self.here[0] == "=":
                self.pos += 1
                kind, value, _ = self.here
                if kind not in ("ident", "number", "~"):
                    raise self.unexpected("regime value", "'~'")
                self.pos += 1
                pins.append((name, value))
            else:
                plain.append(name)
            kind = self.here[0]
            if kind == ",":
                self.pos += 1
            elif kind in stop:
                return plain
            else:
                raise self.unexpected(*map(_label, (",",) + stop))


def parse_statement(text: str) -> EciStatement:
    """Parse text that holds exactly one statement."""
    return Parser(text).statement("eof")


def format_statement(stmt: EciStatement) -> str:
    parts = [", ".join(sorted(stmt.left)), " _||_ ", ", ".join(sorted(stmt.right))]
    cond = sorted(stmt.given) + [f"{n}={v}" for n, v in stmt.pinned]
    if cond:
        parts += [" | ", ", ".join(cond)]
    return "".join(parts)


def parse_premise_file(text: str) -> list[EciStatement]:
    """One statement per line; lines holding only blanks or a comment are
    skipped.  Errors give the line and column in the whole file."""
    out = []
    start = 0
    for line in text.split("\n"):
        p = Parser(text, start, start + len(line))
        if p.here[0] != "eof":
            out.append(p.statement("eof"))
        start += len(line) + 1
    return out

