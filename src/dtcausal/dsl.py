"""Text format for graphs, named independence statements and plans.

Grammar of a `.cadt` document (``#`` starts a line comment)::

    graph <name> {
      node <id> [latent] [deterministic];
      regime <id> targets <id>;
      edge <id> -> <id> [dashed];
    }
    statement <name>: A, B _||_ C, F | D, F2=1;
    plan: X0, X1;

``regime F targets T`` declares the regime node F and the edge F -> T in
one line.  Parsing never raises anything but `DslError`, whose
diagnostic carries a line, a column and the expected-token set.  The
canonical printer sorts every section; canonical text equality is the
graph-equality convention used by golden tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from dtcausal.graph import REGIME, STOCHASTIC, Dag, Edge, GraphError, Node
from dtcausal.statements import EciStatement, StatementError, format_statement

KEYWORDS = frozenset({"graph", "node", "regime", "targets", "edge", "latent", "deterministic", "dashed", "statement", "plan"})


@dataclass(frozen=True)
class Diagnostic:
    line: int
    column: int
    message: str
    expected: tuple[str, ...] = ()

    def __str__(self) -> str:
        text = f"{self.line}:{self.column}: {self.message}"
        if self.expected:
            text += " (expected " + ", ".join(self.expected) + ")"
        return text


class DslError(ValueError):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


@dataclass(frozen=True)
class GraphDoc:
    name: str
    dag: Dag
    statements: tuple[tuple[str, EciStatement], ...]  # (name, statement) in order
    plan: tuple[str, ...] | None = None


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<indep>_\|\|_)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*\*?)
  | (?P<number>-?[0-9]+(?:\.[0-9]+)?)
  | (?P<arrow>->)
  | (?P<punct>[{};:,|=~])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "number", "indep", punctuation literal, "eof"
    text: str
    line: int
    column: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise DslError(Diagnostic(line, col, f"unexpected character {source[pos]!r}"))
        text = m.group(0)
        kind = m.lastgroup
        if kind == "punct":
            kind = text
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


@dataclass
class _Parser:
    tokens: list[_Token]
    pos: int = 0

    @property
    def here(self) -> _Token:
        return self.tokens[self.pos]

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> "DslError":
        t = self.here
        return DslError(Diagnostic(t.line, t.column, message, expected))

    def take(self, kind: str, expected_label: str | None = None) -> _Token:
        t = self.here
        if t.kind != kind:
            label = expected_label or f"'{kind}'"
            raise self.fail(f"unexpected {t.text!r}" if t.text else "unexpected end of input", (label,))
        self.pos += 1
        return t

    def take_keyword(self, word: str) -> _Token:
        t = self.here
        if t.kind != "ident" or t.text != word:
            raise self.fail(f"unexpected {t.text!r}" if t.text else "unexpected end of input", (f"'{word}'",))
        self.pos += 1
        return t

    def take_name(self) -> _Token:
        t = self.here
        if t.kind != "ident" or t.text in KEYWORDS:
            raise self.fail(f"unexpected {t.text!r}" if t.text else "unexpected end of input", ("identifier",))
        self.pos += 1
        return t

    def at_keyword(self, word: str) -> bool:
        return self.here.kind == "ident" and self.here.text == word


def _parse_statement_body(p: _Parser) -> EciStatement:
    def term_list(stop_kinds: tuple[str, ...], allow_pins: bool):
        plain: list[str] = []
        pins: list[tuple[str, str]] = []
        while True:
            name = p.take_name()
            if allow_pins and p.here.kind == "=":
                p.take("=")
                v = p.here
                if v.kind in ("ident", "number"):
                    p.pos += 1
                    pins.append((name.text, v.text))
                elif v.kind == "~":
                    p.pos += 1
                    pins.append((name.text, "~"))
                else:
                    raise p.fail(f"unexpected {v.text!r}", ("regime value", "'~'"))
            else:
                plain.append(name.text)
            if p.here.kind == ",":
                p.take(",")
                continue
            if p.here.kind in stop_kinds:
                return plain, pins
            raise p.fail(f"unexpected {p.here.text!r}", tuple(f"'{k}'" for k in ("," ,) + stop_kinds))

    start = p.here
    left, _ = term_list(("indep",), allow_pins=False)
    p.take("indep", "'_||_'")
    right, _ = term_list(("|", ";"), allow_pins=False)
    given: list[str] = []
    pins: list[tuple[str, str]] = []
    if p.here.kind == "|":
        p.take("|")
        given, pins = term_list((";",), allow_pins=True)
    try:
        return EciStatement(frozenset(left), frozenset(right), frozenset(given), tuple(pins))
    except StatementError as exc:
        raise DslError(Diagnostic(start.line, start.column, str(exc))) from exc


def parse(source: str) -> GraphDoc:
    """Parse one document; raises DslError with a position on any failure."""
    p = _Parser(_tokenize(source))
    graph_tok = p.take_keyword("graph")
    name = p.take_name().text
    p.take("{")

    nodes: dict[str, Node] = {}
    node_pos: dict[str, _Token] = {}
    edges: list[tuple[Edge, _Token]] = []

    def declare(node: Node, tok: _Token) -> None:
        if node.name in nodes:
            raise DslError(Diagnostic(tok.line, tok.column, f"duplicate node {node.name!r}"))
        nodes[node.name] = node
        node_pos[node.name] = tok

    while p.here.kind != "}":
        if p.at_keyword("node"):
            p.take_keyword("node")
            tok = p.take_name()
            latent = deterministic = False
            while p.here.kind == "ident" and p.here.text in ("latent", "deterministic"):
                if p.here.text == "latent":
                    latent = True
                else:
                    deterministic = True
                p.pos += 1
            p.take(";")
            declare(Node(tok.text, STOCHASTIC, latent=latent, deterministic=deterministic), tok)
        elif p.at_keyword("regime"):
            p.take_keyword("regime")
            tok = p.take_name()
            p.take_keyword("targets")
            target = p.take_name()
            p.take(";")
            if tok.text not in nodes:
                declare(Node(tok.text, REGIME), tok)
            elif nodes[tok.text].kind != REGIME:
                raise DslError(Diagnostic(tok.line, tok.column, f"{tok.text!r} already declared as a node"))
            edges.append((Edge(tok.text, target.text), target))
        elif p.at_keyword("edge"):
            p.take_keyword("edge")
            src = p.take_name()
            p.take("arrow", "'->'")
            dst = p.take_name()
            dashed = False
            if p.here.kind == "ident" and p.here.text == "dashed":
                dashed = True
                p.pos += 1
            p.take(";")
            edges.append((Edge(src.text, dst.text, dashed=dashed), src))
        else:
            raise p.fail(
                f"unexpected {p.here.text!r}" if p.here.text else "unexpected end of input",
                ("'node'", "'regime'", "'edge'", "'}'"),
            )
    p.take("}")

    for edge, tok in edges:
        if edge.src == edge.dst:
            raise DslError(Diagnostic(tok.line, tok.column, "self-loop"))
        for end in (edge.src, edge.dst):
            if end not in nodes:
                raise DslError(Diagnostic(tok.line, tok.column, f"unknown node {end!r}"))
    try:
        dag = Dag.of(set(nodes.values()), {e for e, _ in edges})
    except GraphError as exc:
        raise DslError(Diagnostic(graph_tok.line, graph_tok.column, str(exc))) from exc

    statements: list[tuple[str, EciStatement]] = []
    plan: tuple[str, ...] | None = None
    seen_stmt_names: set[str] = set()
    while p.here.kind != "eof":
        if p.at_keyword("statement"):
            p.take_keyword("statement")
            tok = p.take_name()
            if tok.text in seen_stmt_names:
                raise DslError(Diagnostic(tok.line, tok.column, f"duplicate statement name {tok.text!r}"))
            seen_stmt_names.add(tok.text)
            p.take(":")
            stmt = _parse_statement_body(p)
            p.take(";")
            try:
                stmt.validate_against(dag)
            except StatementError as exc:
                raise DslError(Diagnostic(tok.line, tok.column, str(exc))) from exc
            statements.append((tok.text, stmt))
        elif p.at_keyword("plan"):
            if plan is not None:
                raise p.fail("duplicate plan")
            tok = p.take_keyword("plan")
            p.take(":")
            targets = [p.take_name()]
            while p.here.kind == ",":
                p.take(",")
                targets.append(p.take_name())
            p.take(";")
            for t in targets:
                if t.text not in nodes:
                    raise DslError(Diagnostic(t.line, t.column, f"unknown node {t.text!r}"))
            if len({t.text for t in targets}) != len(targets):
                raise DslError(Diagnostic(tok.line, tok.column, "duplicate plan target"))
            plan = tuple(t.text for t in targets)
        else:
            raise p.fail(f"unexpected {p.here.text!r}", ("'statement'", "'plan'", "end of input"))
    return GraphDoc(name, dag, tuple(statements), plan)


def canonical_graph_text(name: str, dag: Dag) -> str:
    """Sorted one-line-per-declaration print; defines graph equality for
    golden-file comparisons."""
    lines = [f"graph {name} {{"]
    regimes = sorted(n.name for n in dag.nodes if n.kind == REGIME)
    for n in sorted((n for n in dag.nodes if n.kind == STOCHASTIC), key=lambda n: n.name):
        flags = ("latent" if n.latent else "") + (" " if n.latent and n.deterministic else "") + (
            "deterministic" if n.deterministic else ""
        )
        lines.append(f"  node {n.name}{' ' + flags if flags else ''};")
    regime_edges = set()
    for reg in regimes:
        targets = sorted(dag.children(reg))
        if not targets:
            raise GraphError(f"regime {reg!r} has no target; not printable")
        for t in targets:
            lines.append(f"  regime {reg} targets {t};")
            regime_edges.add((reg, t))
    for e in sorted(dag.edges, key=lambda e: (e.src, e.dst)):
        if (e.src, e.dst) in regime_edges:
            continue
        lines.append(f"  edge {e.src} -> {e.dst}{' dashed' if e.dashed else ''};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def print_doc(doc: GraphDoc) -> str:
    parts = [canonical_graph_text(doc.name, doc.dag)]
    for name, stmt in doc.statements:
        parts.append(f"statement {name}: {format_statement(stmt)};\n")
    if doc.plan is not None:
        parts.append("plan: " + ", ".join(doc.plan) + ";\n")
    return "".join(parts)


def load_doc(path) -> GraphDoc:
    with open(path) as fh:
        return parse(fh.read())
