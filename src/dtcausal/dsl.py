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
one line.  The lexer and the statement grammar live in
`dtcausal.statements`; this module adds the graph and plan grammar.
Parsing never raises anything but `StatementError`, whose message gives
a line, a column and any expected tokens, as it does for a statement.
The canonical printer sorts every section; canonical text equality is
the graph-equality convention used by golden tests.
"""

from __future__ import annotations

from typing import NamedTuple

from dtcausal.graph import REGIME, STOCHASTIC, Dag, Edge, GraphError, Node
from dtcausal.statements import EciStatement, Parser, StatementError, Token, format_statement


class GraphDoc(NamedTuple):
    name: str
    dag: Dag
    statements: tuple[tuple[str, EciStatement], ...]  # (name, statement) in order
    plan: tuple[str, ...] | None = None


def parse(source: str) -> GraphDoc:
    """Parse one document; raises StatementError with a position on any failure."""
    return _parse_doc(Parser(source))


def _parse_doc(p: Parser) -> GraphDoc:
    graph_tok = p.take_keyword("graph")
    name = p.take_name()[1]
    p.take("{")

    nodes: dict[str, Node] = {}
    edges: list[tuple[Edge, Token]] = []

    def declare(node: Node, tok: Token) -> None:
        if node.name in nodes:
            raise p.error(f"duplicate node {node.name!r}", at=tok)
        nodes[node.name] = node

    while p.here[0] != "}":
        if p.at_keyword("node"):
            p.pos += 1
            tok = p.take_name()
            latent = deterministic = False
            while p.here[1] in ("latent", "deterministic"):
                if p.here[1] == "latent":
                    latent = True
                else:
                    deterministic = True
                p.pos += 1
            p.take(";")
            declare(Node(tok[1], STOCHASTIC, latent=latent, deterministic=deterministic), tok)
        elif p.at_keyword("regime"):
            p.pos += 1
            tok = p.take_name()
            p.take_keyword("targets")
            target = p.take_name()
            p.take(";")
            if tok[1] not in nodes:
                declare(Node(tok[1], REGIME), tok)
            elif nodes[tok[1]].kind != REGIME:
                raise p.error(f"{tok[1]!r} already declared as a node", at=tok)
            edges.append((Edge(tok[1], target[1]), target))
        elif p.at_keyword("edge"):
            p.pos += 1
            src = p.take_name()
            p.take("arrow")
            dst = p.take_name()
            dashed = p.at_keyword("dashed")
            if dashed:
                p.pos += 1
            p.take(";")
            edges.append((Edge(src[1], dst[1], dashed=dashed), src))
        else:
            raise p.unexpected("'node'", "'regime'", "'edge'", "'}'")
    p.take("}")

    for edge, tok in edges:
        if edge.src == edge.dst:
            raise p.error("self-loop", at=tok)
        for end in (edge.src, edge.dst):
            if end not in nodes:
                raise p.error(f"unknown node {end!r}", at=tok)
    try:
        dag = Dag.of(set(nodes.values()), {e for e, _ in edges})
    except GraphError as exc:
        raise p.error(str(exc), at=graph_tok) from None

    statements: list[tuple[str, EciStatement]] = []
    plan: tuple[str, ...] | None = None
    seen_stmt_names: set[str] = set()
    while p.here[0] != "eof":
        if p.at_keyword("statement"):
            p.pos += 1
            tok = p.take_name()
            if tok[1] in seen_stmt_names:
                raise p.error(f"duplicate statement name {tok[1]!r}", at=tok)
            seen_stmt_names.add(tok[1])
            p.take(":")
            stmt = p.statement(";")
            p.take(";")
            try:
                stmt.validate_against(dag)
            except StatementError as exc:
                raise p.error(str(exc), at=tok) from None
            statements.append((tok[1], stmt))
        elif p.at_keyword("plan"):
            if plan is not None:
                raise p.error("duplicate plan")
            tok = p.take_keyword("plan")
            p.take(":")
            targets = [p.take_name()]
            while p.here[0] == ",":
                p.pos += 1
                targets.append(p.take_name())
            p.take(";")
            for t in targets:
                if t[1] not in nodes:
                    raise p.error(f"unknown node {t[1]!r}", at=t)
            if len({t[1] for t in targets}) != len(targets):
                raise p.error("duplicate plan target", at=tok)
            plan = tuple(t[1] for t in targets)
        else:
            raise p.unexpected("'statement'", "'plan'", "end of input")
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
