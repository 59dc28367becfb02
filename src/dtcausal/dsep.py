"""d-separation over augmented DAGs.

Two permanently maintained, independent criteria:

* `d_separated` (and `separated`, which skips the statement checks) —
  moralisation of the ancestral subgraph, then graph reachability
  around the conditioning set;
* `d_separated_paths` — active trails (the "Reachable" procedure of
  Koller & Friedman 2009, Alg. 3.1; Shachter's 1998 Bayes-Ball), run as a
  bit-sliced pass: each node holds Python ints whose bit k answers for
  conditioning set k, and alternating forward and reverse topological
  sweeps propagate them until nothing changes.

Both must always agree; the test suite compares them on random graphs.
The enumerations (`implied_statements`, `separations_agree`) use the same
pass with every subset of the enumerated names as one bit, so one pass
per source answers every conditioning set and right-hand node at once.
Pinned regime terms (``F=x``) first restrict the graph (removing the
dashed intention-to-treat edge when the pin is non-idle) and then join
the conditioning set as ordinary nodes, together with every deterministic
node whose parents are all pinned to non-idle values: that node is a
constant in the pinned regimes (D-separation for a functionally fixed
node).
"""

from __future__ import annotations

from itertools import combinations, compress, repeat
from typing import Callable, Iterable

from dtcausal.graph import (
    IDLE, STOCHASTIC, Dag, GraphError, moral_adjacency, moral_reach, restrict_to_regime, topological_order,
)
from dtcausal.statements import EciStatement

#: Hard cap on the nodes `implied_statements` and `separations_agree` enumerate over.
ENUMERATION_BOUND = 14


def _prepare(dag: Dag, stmt: EciStatement) -> tuple[Dag, frozenset[str], frozenset[str], frozenset[str]]:
    stmt.validate_against(dag)
    if not stmt.pinned:
        return dag, stmt.left, stmt.right, stmt.given
    graph = restrict_to_regime(dag, dict(stmt.pinned))
    # A deterministic node all of whose parents are pinned to non-idle
    # values is a constant in that regime, so it counts as conditioned.
    fixed = {name for name, value in stmt.pinned if value != IDLE}
    constant = {
        n.name for n in graph.nodes if n.deterministic and graph.parents(n.name) and graph.parents(n.name) <= fixed
    }
    return graph, stmt.left, stmt.right, stmt.given | {name for name, _ in stmt.pinned} | constant


def d_separated(dag: Dag, stmt: EciStatement) -> bool:
    """Moralisation criterion: true iff left and right are separated by the
    conditioning set in the moralised ancestral graph."""
    return separated(*_prepare(dag, stmt))


def separated(dag: Dag, left: frozenset[str], right: frozenset[str], cond: frozenset[str]) -> bool:
    """The moralisation criterion without the ECI well-formedness checks."""
    return moral_reach(moral_adjacency(dag, left | right | cond), left, cond).isdisjoint(right)


def _active_trails(dag: Dag, in_cond: dict[str, int], full: int) -> Callable[[Iterable[str]], dict[str, int]]:
    """Bit-sliced active trails over the conditioning sets numbered by the
    bits of `full`: set k holds the nodes `v` with bit k of `in_cond[v]`
    (a node missing from `in_cond` is never conditioned).

    The returned pass maps sources to each node's bits k such that the node
    lies outside set k and has an active trail from the sources given set k
    (sources outside set k count as reached)."""
    order = topological_order(dag)
    nodes = range(len(order))
    at = {v: i for i, v in enumerate(order)}
    parents, children = [[] for _ in nodes], [[] for _ in nodes]
    for e in dag.edges:  # `topological_order` rejected any edge with an end outside the graph
        parents[at[e.dst]].append(at[e.src])
        children[at[e.src]].append(at[e.dst])
    cond = [in_cond.get(v, 0) for v in order]
    free = [full & ~c for c in cond]
    # The sets that hold the node or one of its descendants.
    anc = cond[:]
    for i in reversed(nodes):
        for c in children[i]:
            anc[i] |= anc[c]

    def reach(sources: Iterable[str]) -> dict[str, int]:
        # "up" = entered from a child (or a source); "down" = entered from a
        # parent.  A node entered up passes on both ways unless conditioned;
        # one entered down passes on down unless conditioned, and up if it is
        # a collider with a conditioned descendant.  A forward sweep settles
        # every downward run and a reverse sweep every upward one, so the two
        # alternate until a reverse sweep adds nothing.
        up, down, to_children, to_parents = ([0] * len(order) for _ in range(4))
        for v in sources:
            up[at[v]] = full
        grew = True
        while grew:
            for i in nodes:
                d = 0
                for p in parents[i]:
                    d |= to_children[p]
                down[i], to_children[i] = d, (up[i] | d) & free[i]
            grew = False
            for i in reversed(nodes):
                u = up[i]
                for c in children[i]:
                    u |= to_parents[c]
                if u != up[i]:
                    up[i], grew = u, True
                to_parents[i] = (u & free[i]) | (down[i] & anc[i])
        return {v: (up[i] | down[i]) & free[i] for i, v in enumerate(order)}

    return reach


def d_separated_paths(dag: Dag, stmt: EciStatement) -> bool:
    """Active-trail criterion; must agree with `d_separated`."""
    graph, left, right, cond = _prepare(dag, stmt)
    reached = _active_trails(graph, dict.fromkeys(cond, 1), 1)(left)
    return not any(reached[v] for v in right)


def _enumeration_names(over: Iterable[str], *dags: Dag) -> list[str]:
    names = sorted(set(over))
    for dag in dags:
        for name in names:
            dag.node(name)
    if len(names) > ENUMERATION_BOUND:
        raise GraphError("enumeration bound exceeded")
    return names


# Bit k of a mask, lowest first, as byte k (0 or 1): `compress` selectors.
_ZERO_ONE = bytes.maketrans(b"01", b"\0\1")


def implied_statements(dag: Dag, over: frozenset[str] | set[str]) -> list[EciStatement]:
    """All elementary statements over `over` certified by d-separation.

    Elementary: singleton stochastic left, singleton right, conditioning
    on any subset of the remaining `over` nodes.  Deterministic order.
    """
    names = _enumeration_names(over, dag)
    # Conditioning set k is the k-th subset of `names` by size and then in
    # `combinations` order, the order the statements come out in.
    subsets = [frozenset(cond) for k in range(len(names) + 1) for cond in combinations(names, k)]
    in_cond = {v: int("".join("1" if v in cond else "0" for cond in reversed(subsets)), 2) for v in names}
    full = (1 << len(subsets)) - 1
    reach = _active_trails(dag, in_cond, full)
    out: list[EciStatement] = []
    for a in names:
        if dag.kind_of(a) != STOCHASTIC:
            continue
        reached, left = reach([a]), frozenset({a})
        # Stochastic pairs are emitted once, smaller name on the left.
        for b in names:
            if b != a and not (dag.kind_of(b) == STOCHASTIC and b < a):
                separated_by = full & ~(reached[b] | in_cond[a] | in_cond[b])
                selectors = bin(separated_by)[:1:-1].encode().translate(_ZERO_ONE)
                single = frozenset({b})
                out.extend(map(EciStatement, repeat(left), repeat(single), compress(subsets, selectors)))
    return out


def separations_agree(dag: Dag, other: Dag, over: Iterable[str]) -> bool:
    """Whether both graphs imply the same `implied_statements` over `over`
    (node kinds are read from `dag`), stopping at the first difference.

    d-separation is symmetric, so comparing the nodes of `over` reached
    from every stochastic `a`, under every conditioning set, covers every
    listed pair (under a set that holds `a`, nothing is reached).
    """
    names = _enumeration_names(over, dag, other)
    # Conditioning set k holds names[j] iff bit j of k is set: bit k of the
    # j-th pattern repeats 2**j clear bits, then 2**j set ones.
    full = (1 << (1 << len(names))) - 1
    in_cond = {v: full // ((1 << (2 << j)) - 1) * (((1 << (1 << j)) - 1) << (1 << j)) for j, v in enumerate(names)}
    reach, other_reach = _active_trails(dag, in_cond, full), _active_trails(other, in_cond, full)
    for a in names:
        if dag.kind_of(a) != STOCHASTIC:
            continue
        reached, other_reached = reach([a]), other_reach([a])
        if any(reached[b] != other_reached[b] for b in names):
            return False
    return True
