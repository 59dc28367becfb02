"""Core DAG data model and basic graph algorithms.

Graphs mix stochastic domain nodes with non-stochastic regime
indicators.  Regime nodes are always founders.  A deterministic node is
a stochastic node whose value is a function of its parents (the applied
treatment of an intention-to-treat construction); the dashed edge into
it is the one that disappears once its regime is pinned to a non-idle
value.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from dtcausal import checked_make

STOCHASTIC = "stochastic"
REGIME = "regime"

#: Spelling of the idle (observational, hands-off) regime value.
IDLE = "~"


class GraphError(ValueError):
    """Raised for malformed graphs or unknown node references."""


class Node(namedtuple("Node", "name kind latent deterministic")):
    """A named node; records compare, hash and sort as their field tuples."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, name: str, kind: str = STOCHASTIC, latent: bool = False, deterministic: bool = False) -> "Node":
        if not name:
            raise GraphError("node name must be nonempty")
        if kind not in (STOCHASTIC, REGIME):
            raise GraphError(f"unknown node kind {kind!r}")
        return tuple.__new__(cls, (name, kind, latent, deterministic))


class Edge(NamedTuple):
    src: str
    dst: str
    dashed: bool = False


class Dag(namedtuple("Dag", "nodes edges")):
    """Immutable labelled DAG (nodes, edges), both frozensets. All operations
    return new graphs.  No `__slots__`: the cached adjacency maps and
    topological order live in the instance `__dict__`."""

    @staticmethod
    def of(nodes: Iterable[Node], edges: Iterable[Edge]) -> "Dag":
        dag = Dag(frozenset(nodes), frozenset(edges))
        errors = validate(dag)
        if errors:
            raise GraphError("; ".join(errors))
        return dag

    # -- lookups (adjacency maps are cached; the tuple is immutable) --

    @cached_property
    def _by_name(self) -> dict[str, Node]:
        return {n.name: n for n in self.nodes}

    @cached_property
    def _parent_map(self) -> dict[str, frozenset[str]]:
        acc: dict[str, set[str]] = {n.name: set() for n in self.nodes}
        for e in self.edges:
            if e.dst in acc:
                acc[e.dst].add(e.src)
        return {k: frozenset(v) for k, v in acc.items()}

    @cached_property
    def _child_map(self) -> dict[str, frozenset[str]]:
        acc: dict[str, set[str]] = {n.name: set() for n in self.nodes}
        for e in self.edges:
            if e.src in acc:
                acc[e.src].add(e.dst)
        return {k: frozenset(v) for k, v in acc.items()}

    def node(self, name: str) -> Node:
        try:
            return self._by_name[name]
        except KeyError:
            raise GraphError(f"unknown node {name!r}") from None

    def has_node(self, name: str) -> bool:
        return name in self._by_name

    @property
    def node_names(self) -> frozenset[str]:
        return frozenset(self._by_name)

    def kind_of(self, name: str) -> str:
        return self.node(name).kind

    def parents(self, name: str) -> frozenset[str]:
        return self._parent_map[self.node(name).name]

    def children(self, name: str) -> frozenset[str]:
        return self._child_map[self.node(name).name]

    def ancestors(self, names: Iterable[str]) -> frozenset[str]:
        """Ancestral closure of `names` (includes the given nodes)."""
        seen = set()
        stack = [self.node(n).name for n in names]
        # Every parent is a node: each `Dag` the program builds comes from `Dag.of`,
        # which rejects a dangling edge, or keeps some of the edges of one (`surgery`, `restrict_to_regime`).
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(self._parent_map[v])
        return frozenset(seen)

    @cached_property
    def _order(self) -> tuple[str, ...]:
        """Kahn's algorithm, smallest name first among the ready nodes; run
        once per graph."""
        indeg = {n.name: 0 for n in self.nodes}
        for e in self.edges:
            if e.dst not in indeg or e.src not in indeg:
                raise GraphError(f"dangling edge {e.src} -> {e.dst}")
            indeg[e.dst] += 1
        children = self._child_map  # read directly: every name popped below is a node
        heap = [n for n, d in indeg.items() if d == 0]
        heapq.heapify(heap)
        order: list[str] = []
        while heap:
            v = heapq.heappop(heap)
            order.append(v)
            for c in sorted(children[v]):
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(heap, c)
        if len(order) != len(self.nodes):
            raise GraphError("graph contains a directed cycle")
        return tuple(order)


def validate(dag: Dag) -> list[str]:
    """Return all invariant violations; an empty list means the graph is well formed."""
    by_name = dag._by_name  # one node per name: a node it does not hold repeats a name
    duplicates = {n.name for n in dag.nodes if by_name[n.name] is not n}
    errors = [f"duplicate node name {name!r}" for name in duplicates]
    # topological_order counts by name: a repeated name, a dangling edge or a self-loop would read as a cycle.
    unordered = bool(duplicates)
    for n in dag.nodes:
        if n.kind == REGIME and n.latent:
            errors.append(f"regime node {n.name!r} marked latent")
        if n.kind == REGIME and n.deterministic:
            errors.append(f"regime node {n.name!r} marked deterministic")
    for e in dag.edges:
        if e.src not in by_name or e.dst not in by_name:
            errors.append(f"dangling edge {e.src} -> {e.dst}")
            unordered = True
            continue
        if e.src == e.dst:
            errors.append(f"self-loop on {e.src}")
            unordered = True
        if by_name[e.dst].kind == REGIME:
            errors.append(f"regime node {e.dst!r} has parent {e.src!r}")
        if e.dashed and not by_name[e.dst].deterministic:
            errors.append(f"dashed edge into non-deterministic node {e.dst!r}")
    errors.sort()  # one order whatever the string hashing; messages, not names, as a model's names may mix types
    if not unordered:
        try:
            topological_order(dag)
        except GraphError as exc:
            errors.append(str(exc))
    return errors


def topological_order(dag: Dag) -> list[str]:
    """Topological order with lexicographic tie-break on node name, as a new
    list (the graph computes it once, in `Dag.of`'s validation or here)."""
    return list(dag._order)


def moral_graph(dag: Dag, restrict_to: Iterable[str]) -> tuple[frozenset[str], frozenset[frozenset[str]]]:
    """`moral_adjacency` as (nodes, undirected edges as 2-element frozensets)."""
    adj = moral_adjacency(dag, restrict_to)
    return frozenset(adj), frozenset(frozenset((a, b)) for a in adj for b in adj[a])


def moral_adjacency(
    dag: Dag, restrict_to: Iterable[str], adj: dict[str, set[str]] | None = None
) -> dict[str, set[str]]:
    """The moralised ancestral subgraph as each node's set of neighbours: the ancestral
    closure of `restrict_to`, with co-parents married and edge directions dropped.

    Given `adj`, the moral graph of an ancestral set, grows it in place to the one of
    that set and `restrict_to`: a moral edge comes from one node's parent set only."""
    adj = {} if adj is None else adj
    new = dag.ancestors(restrict_to).difference(adj)
    for v in new:
        adj[v] = set()
    for v in new:
        parents = dag._parent_map[v]  # `ancestors` checked every name, and the parents are in `adj` by now
        adj[v] |= parents
        for p in parents:
            adj[p].add(v)
            adj[p] |= parents - {p}
    return adj


def moral_reach(adj: Mapping[str, set[str]], sources: Iterable[str], blocked: frozenset[str]) -> set[str]:
    """The sources outside `blocked` and the nodes they reach in the undirected graph `adj` around `blocked`."""
    reached = set(sources) - blocked
    stack = list(reached)
    while stack:
        new = adj[stack.pop()] - blocked - reached
        reached |= new
        stack.extend(new)
    return reached


def surgery(dag: Dag, remove_incoming: Iterable[str] = (), remove_outgoing: Iterable[str] = ()) -> Dag:
    """Delete all edges into `remove_incoming` nodes and out of `remove_outgoing` nodes."""
    rin = frozenset(remove_incoming)
    rout = frozenset(remove_outgoing)
    for name in rin | rout:
        dag.node(name)
    edges = frozenset(e for e in dag.edges if e.dst not in rin and e.src not in rout)
    return Dag(dag.nodes, edges)


def restrict_to_regime(dag: Dag, assignment: Mapping[str, str]) -> Dag:
    """Apply a partial regime assignment to the graph.

    Pinning a regime to a non-idle value deletes the dashed edge into
    that regime's deterministic target (the applied treatment no longer
    depends on the intention-to-treat value).  Idle pins are no-ops.
    Only idle vs non-idle is distinguished here; value-domain checks
    need a model and live in the oracle module.
    """
    drop: set[Edge] = set()
    for regime, value in assignment.items():
        node = dag.node(regime)
        if node.kind != REGIME:
            raise GraphError(f"{regime!r} is not a regime node")
        if value == IDLE:
            continue
        for target in dag.children(regime):
            if dag.node(target).deterministic:
                drop.update(e for e in dag.edges if e.dst == target and e.dashed)
    return Dag(dag.nodes, dag.edges - frozenset(drop))


def to_dot(dag: Dag, name: str = "g") -> str:
    """Graphviz DOT rendering following the augmented-DAG visual conventions."""
    lines = [f"digraph {name} {{"]
    for n in sorted(dag.nodes):
        attrs = ["shape=box" if n.kind == REGIME else "shape=ellipse"]
        styles = []
        if n.latent:
            styles.append("dotted")
        if n.deterministic:
            styles.append("bold")
        if styles:
            attrs.append(f'style="{",".join(styles)}"')
        lines.append(f'  "{n.name}" [{", ".join(attrs)}];')
    for e in sorted(dag.edges):
        style = " [style=dashed]" if e.dashed else ""
        lines.append(f'  "{e.src}" -> "{e.dst}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"
