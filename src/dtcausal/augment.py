"""Mechanical graph constructions around intervention targets.

* intention-to-treat (ITT) node splitting: each target X becomes the
  trio (regime founder F_X, latent ITT node X*, deterministic applied
  node X);
* latent-node elimination: a retained-node DAG whose d-separations over
  the retained nodes coincide exactly with the input's;
* augmented-DAG production (observational DAG plus regime founders);
* do-calculus Rule 2/3 applicability checks and the two-stage
  g-computation identification certificate.
"""

from __future__ import annotations

from typing import NamedTuple

from dtcausal import keyed
from dtcausal.dsep import d_separated, separations_agree
from dtcausal.graph import (
    REGIME, STOCHASTIC, Dag, Edge, GraphError, Node, moral_adjacency, moral_reach, surgery, topological_order,
)
from dtcausal.statements import EciStatement, format_statement


class ProjectionError(GraphError):
    """Raised when latent elimination cannot stay within the DAG class."""


class InterventionPlan(NamedTuple):
    """Ordered intervention targets; order must respect the DAG's topology."""

    targets: tuple[str, ...]

    def validate_against(self, dag: Dag) -> None:
        pos = {name: i for i, name in enumerate(topological_order(dag))}
        for t in self.targets:
            node = dag.node(t)
            if node.kind != STOCHASTIC:
                raise GraphError(f"target {t!r} is not stochastic")
            if node.latent:
                raise GraphError(f"target {t!r} is latent")
        keyed(zip(self.targets, self.targets), lambda t: GraphError(f"duplicate target {t!r}"))
        ranks = [pos[t] for t in self.targets]
        if ranks != sorted(ranks):
            raise GraphError("plan order violates topology")


def itt_name(target: str) -> str:
    return target + "*"


def regime_name(target: str) -> str:
    return "F_" + target


def build_itt_dag(obs: Dag, plan: InterventionPlan) -> Dag:
    """Split each target X into (F_X founder, latent X* inheriting X's
    incoming arrows, deterministic X with parents {F_X, X*} keeping X's
    outgoing arrows; the X* -> X edge is dashed)."""
    nodes, edges = _with_regime_founders(obs, plan)
    for target in plan.targets:
        star = itt_name(target)
        if obs.has_node(star):
            raise GraphError(f"name {star!r} already in use")
        old = obs.node(target)
        nodes.discard(old)
        nodes |= {old._replace(deterministic=True), Node(star, STOCHASTIC, latent=True)}
        for e in obs.edges:
            if e.dst == target:
                edges.discard(e)
                edges.add(Edge(e.src, star))
        edges.add(Edge(star, target, dashed=True))
    return Dag.of(nodes, edges)


def eliminate_nodes(dag: Dag, drop: frozenset[str] | set[str]) -> Dag:
    """Project out `drop`, keeping the retained nodes' separation structure.

    Builds the minimal I-map of the input's d-separations over the
    retained nodes (in the inherited topological order) and verifies
    that its d-separations agree exactly with the input's, restricted to
    retained nodes.  Any mismatch means no DAG can represent the
    projection, and an error is raised.
    """
    drop = frozenset(drop)
    for name in sorted(drop):
        dag.node(name)
    if not drop:
        return dag
    retained = [v for v in topological_order(dag) if v not in drop]
    edges: set[tuple[str, str]] = set()
    adj: dict[str, set[str]] = {}
    for i, v in enumerate(retained):
        # v's parents are its Markov boundary among its predecessors: each u
        # that v depends on given the rest.  d-separation satisfies
        # intersection, so that boundary is unique, and greedy backward
        # elimination from all predecessors reaches the same set.  Every
        # query v _||_ u | pre - {u} reads the moral graph of the ancestral
        # set of pre + {v}, where a path from v to u avoids pre - {u} iff its
        # inner nodes lie outside pre: so u is a parent iff it neighbours a
        # node that v reaches through nodes outside pre.  That moral graph
        # grows from the previous node's by v's new ancestors.
        pre = frozenset(retained[:i])
        moral_adjacency(dag, (v,), adj)
        edges.update((u, v) for w in moral_reach(adj, (v,), pre) for u in adj[w] & pre)
    # Dropped ITT parents leave the deterministic/dashed annotations moot.
    kept_dashed = {(e.src, e.dst) for e in dag.edges if e.dashed and e.src not in drop and e.dst not in drop}
    heads = {dst for _, dst in kept_dashed}
    nodes = {n._replace(deterministic=n.deterministic and n.name in heads) for n in dag.nodes if n.name not in drop}
    out = Dag.of(nodes, {Edge(u, v, dashed=(u, v) in kept_dashed) for u, v in edges})
    if not separations_agree(dag, out, retained):
        raise ProjectionError("not DAG-projectable")
    return out


def build_augmented_dag(obs: Dag, plan: InterventionPlan) -> Dag:
    """Observational DAG plus one regime founder per target."""
    return Dag.of(*_with_regime_founders(obs, plan))


def _with_regime_founders(obs: Dag, plan: InterventionPlan) -> tuple[set[Node], set[Edge]]:
    """The nodes and edges of the observational DAG `obs` plus a founder F_X
    and its edge F_X -> X for each target X of `plan`, checked against `obs`."""
    if any(n.kind == REGIME for n in obs.nodes):
        raise GraphError("input must be a purely observational DAG")
    plan.validate_against(obs)
    nodes = set(obs.nodes)
    edges = set(obs.edges)
    for target in plan.targets:
        reg = regime_name(target)
        if obs.has_node(reg):
            raise GraphError(f"name {reg!r} already in use")
        nodes.add(Node(reg, REGIME))
        edges.add(Edge(reg, target))
    return nodes, edges


def rule_applicability(
    obs: Dag,
    rule: str,
    y: frozenset[str] | set[str],
    x: frozenset[str] | set[str],
    z: frozenset[str] | set[str] = frozenset(),
    w: frozenset[str] | set[str] = frozenset(),
) -> bool:
    """Final d-separation check of a do-calculus Rule 2 or Rule 3 step.

    The caller composes the surgery exactly as the derivation requires
    and passes the already-modified graph: Rule 2 (exchange intervention
    and observation on x) expects arrows out of x deleted; Rule 3
    (delete intervention on x) expects arrows into x deleted.  Here we
    only check y _||_ x | (z, w) in the supplied graph.
    """
    if rule not in ("Rule2", "Rule3"):
        raise GraphError(f"unknown rule {rule!r}")
    y, x, z, w = map(frozenset, (y, x, z, w))
    for a, b in ((y, x), (y, z | w), (x, z | w)):
        if a & b:
            raise GraphError("overlapping variable sets")
    return d_separated(obs, EciStatement(y, x, z | w))


class RuleCheck(NamedTuple):
    name: str
    rule: str
    remove_incoming: tuple[str, ...]
    remove_outgoing: tuple[str, ...]
    statement: EciStatement
    holds: bool


class Certificate(NamedTuple):
    """Identification certificate for p(y | do(x0, x1)) = sum_z p(y|x1,z) p(z|x0)."""

    identified: bool
    y: str
    x0: str
    x1: str
    z: str
    checks: tuple[RuleCheck, ...]

    @property
    def estimand(self) -> str:
        return (
            f"p({self.y} | do({self.x0}), do({self.x1})) = "
            f"sum_{self.z} p({self.y} | {self.x1}, {self.z}) * p({self.z} | {self.x0})"
        )

    def report(self) -> str:
        lines = []
        if self.identified:
            lines.append("IDENTIFIED: " + self.estimand)
        else:
            failed = next(c for c in self.checks if not c.holds)
            lines.append(f"NOT IDENTIFIED: check {failed.name} fails")
        for c in self.checks:
            surgeries = []
            if c.remove_outgoing:
                surgeries.append("remove outgoing of " + ",".join(c.remove_outgoing))
            if c.remove_incoming:
                surgeries.append("remove incoming of " + ",".join(c.remove_incoming))
            mod = "; ".join(surgeries) or "no surgery"
            verdict = "holds" if c.holds else "FAILS"
            lines.append(f"  {c.name} ({c.rule}; {mod}): {format_statement(c.statement)} -> {verdict}")
        lines.append(
            "Valid only under the intention-to-treat splitting assumptions "
            "(covariate-like ITT variables and strong ignorability of each "
            "intervention given its predecessors); these are model-level "
            "premises the graph alone cannot certify."
        )
        return "\n".join(lines)


def identify_two_stage(obs: Dag, x0: str, x1: str, z: str, y: str) -> Certificate:
    """Run the two-stage g-computation identification checks."""
    names = (x0, x1, z, y)
    for name in names:
        node = obs.node(name)
        if node.kind != STOCHASTIC or node.latent:
            raise GraphError(f"node {name!r} is {'latent' if node.latent else 'a regime'}, not an observed variable")
    keyed(zip(names, names), lambda name: GraphError(f"node {name!r} is given twice"))
    checks = []

    def run(name, rule, yv, xv, cond, rin, rout):
        graph = surgery(obs, remove_incoming=rin, remove_outgoing=rout)
        stmt = EciStatement(frozenset(yv), frozenset(xv), frozenset(cond))
        checks.append(
            RuleCheck(name, rule, tuple(sorted(rin)), tuple(sorted(rout)), stmt, d_separated(graph, stmt))
        )

    # p(y | do(x0), do(x1), z) = p(y | x0, x1, z)
    run("response-exchange", "Rule2", {y}, {x0, x1}, {z}, (), (x0, x1))
    # p(z | do(x0), do(x1)) = p(z | x0, do(x1))
    run("first-stage-exchange", "Rule2", {z}, {x0}, {x1}, (x1,), (x0,))
    # p(z | x0, do(x1)) = p(z | x0); Rule 3 cuts the arrows into x1 only when x1 is no ancestor of x0
    run("second-stage-deletion", "Rule3", {z}, {x1}, {x0}, () if x1 in obs.ancestors({x0}) else (x1,), ())
    return Certificate(all(c.holds for c in checks), y, x0, x1, z, tuple(checks))
