"""d-separation over augmented DAGs.

Two permanently maintained, independent criteria:

* `d_separated` (and `separated`, which skips the statement checks) —
  moralisation of the ancestral subgraph, then graph reachability
  around the conditioning set;
* `d_separated_paths` — active trails: `_reachable` moves whole
  frontiers of node masks, one edge per round in each direction, through
  memoised unions of parent and child masks, and returns every node
  d-connected to the sources (the "Reachable" procedure of Koller &
  Friedman 2009, Alg. 3.1; Shachter's 1998 Bayes-Ball).

Both must always agree; the test suite compares them on random graphs.
The enumerations (`implied_statements`, `separations_agree`) use active
trails: one pass per (source, conditioning set) answers every
right-hand node at once.
Pinned regime terms (``F=x``) first restrict the graph (removing the
dashed intention-to-treat edge when the pin is non-idle) and then join
the conditioning set as ordinary nodes.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Iterable, Sequence

from dtcausal.graph import STOCHASTIC, Dag, GraphError, moral_adjacency, restrict_to_regime
from dtcausal.statements import EciStatement, NameBits

#: Hard cap on the nodes `implied_statements` and `separations_agree` enumerate over.
ENUMERATION_BOUND = 14


def _prepare(dag: Dag, stmt: EciStatement) -> tuple[Dag, frozenset[str], frozenset[str], frozenset[str]]:
    stmt.validate_against(dag)
    graph = restrict_to_regime(dag, dict(stmt.pinned)) if stmt.pinned else dag
    cond = stmt.given | frozenset(name for name, _ in stmt.pinned)
    return graph, stmt.left, stmt.right, cond


def d_separated(dag: Dag, stmt: EciStatement) -> bool:
    """Moralisation criterion: true iff left and right are separated by the
    conditioning set in the moralised ancestral graph."""
    return separated(*_prepare(dag, stmt))


def separated(dag: Dag, left: frozenset[str], right: frozenset[str], cond: frozenset[str]) -> bool:
    """Raw graphical separation query, without the ECI well-formedness
    checks (used internally where regime nodes may sit on either side)."""
    if not right:
        return True
    adj = moral_adjacency(dag, left | right | cond)
    # BFS from left avoiding conditioning nodes.
    seen = set(left - cond)
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        if v in right:
            return False
        for w in adj[v]:
            if w not in seen and w not in cond:
                seen.add(w)
                queue.append(w)
    return not (right & seen)


class _Unions(dict):
    """Node-set mask -> OR of its members' masks, memoised; starts with one
    entry per node, keyed by the node's bit."""

    def __missing__(self, nodes: int) -> int:
        out = 0
        rest = nodes
        while rest:  # one step per set bit, lowest first
            low = rest & -rest
            out |= self[low]
            rest ^= low
        self[nodes] = out
        return out


def _compile(dag: Dag, first: Sequence[str] = ()) -> tuple[NameBits, _Unions, _Unions]:
    """Index the nodes (`first` in its order, then the rest by name) and
    return their bits and the parent and child unions of node sets."""
    bits = NameBits(list(first) + sorted(dag.node_names - set(first)))
    parents = _Unions({bits.bit[v]: bits.mask(dag.parents(v)) for v in bits.order})
    children = _Unions({bits.bit[v]: bits.mask(dag.children(v)) for v in bits.order})
    return bits, parents, children


def _reachable(parents: _Unions, children: _Unions, sources: int, cond: int) -> int:
    """Mask of the nodes outside `cond` with an active trail from `sources`
    given `cond` (sources outside `cond` count as reached)."""
    # Nodes with a descendant (or self) in the conditioning set.
    anc = new = cond
    while new:
        new = parents[new] & ~anc
        anc |= new
    # "up" = entered from a child (or a source); "down" = entered from a parent.
    # A node entered up passes on both ways unless conditioned; one entered
    # down passes on down unless conditioned, and up if it is a collider with
    # a conditioned descendant.
    free = ~cond
    up = down = 0
    fu, fd = sources, 0
    while fu or fd:
        up |= fu
        down |= fd
        fu, fd = parents[(fu & free) | (fd & anc)] & ~up, children[(fu | fd) & free] & ~down
    return (up | down) & free


def d_separated_paths(dag: Dag, stmt: EciStatement) -> bool:
    """Active-trail criterion; must agree with `d_separated`."""
    graph, left, right, cond = _prepare(dag, stmt)
    if not right:
        return True
    bits, parents, children = _compile(graph)
    return not _reachable(parents, children, bits.mask(left), bits.mask(cond)) & bits.mask(right)


def _enumeration_names(over: Iterable[str], *dags: Dag) -> list[str]:
    names = sorted(set(over))
    for dag in dags:
        for name in names:
            if not dag.has_node(name):
                raise GraphError(f"unknown node {name!r}")
    if len(names) > ENUMERATION_BOUND:
        raise GraphError("enumeration bound exceeded")
    return names


def implied_statements(dag: Dag, over: frozenset[str] | set[str]) -> list[EciStatement]:
    """All elementary statements over `over` certified by d-separation.

    Elementary: singleton stochastic left, singleton right, conditioning
    on any subset of the remaining `over` nodes.  Deterministic order.
    """
    names = _enumeration_names(over, dag)
    bits, parents, children = _compile(dag)
    # Every subset of `names` once, by size and then in `combinations` order;
    # the ones that avoid a and b come in the order of combinations(rest, k).
    subsets = [(bits.mask(cond), frozenset(cond)) for k in range(len(names) + 1) for cond in combinations(names, k)]
    out: list[EciStatement] = []
    for a in names:
        if dag.kind_of(a) != STOCHASTIC:
            continue
        source = bits.bit[a]
        # Stochastic pairs are emitted once, smaller name on the left.
        right = [b for b in names if b != a and not (dag.kind_of(b) == STOCHASTIC and b < a)]
        right_mask = bits.mask(right)
        # Per conditioning set without a: its mask joined with the nodes
        # d-connected to a, so a clear bit b means "a _||_ b | cond" with b
        # outside cond.  Sets that cover every right-hand node need no pass.
        covered = [
            (cond | _reachable(parents, children, source, cond) if right_mask & ~cond else cond, given)
            for cond, given in subsets
            if not cond & source
        ]
        left = frozenset({a})
        for b in right:
            bit, single = bits.bit[b], frozenset({b})
            out.extend(EciStatement(left, single, given) for mask, given in covered if not mask & bit)
    return out


def separations_agree(dag: Dag, other: Dag, over: Iterable[str]) -> bool:
    """Whether both graphs imply the same `implied_statements` over `over`
    (node kinds are read from `dag`), stopping at the first difference.

    d-separation is symmetric, so comparing the nodes of `over` reached
    from every stochastic `a`, under every conditioning set that leaves
    a right-hand node, covers every listed pair.
    """
    names = _enumeration_names(over, dag, other)
    bits, parents, children = _compile(dag, names)
    _, other_parents, other_children = _compile(other, names)
    full = bits.mask(names)
    for a in names:
        if dag.kind_of(a) != STOCHASTIC:
            continue
        source = bits.bit[a]
        rest = full & ~source
        cond = rest
        while cond:
            cond = (cond - 1) & rest  # every proper subset of `rest`, down to the empty set
            keep = full & ~cond
            if _reachable(parents, children, source, cond) & keep != (
                _reachable(other_parents, other_children, source, cond) & keep
            ):
                return False
    return True
