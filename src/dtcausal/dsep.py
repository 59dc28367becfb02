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
The enumerations (`implied_statements`, `separations_agree`) seed the pass
with one bit per (stochastic source, subset of the enumerated names), so one
pass per graph answers every source, conditioning set and right-hand node.
`implied_statements` numbers the subsets in the order its statements come
out in; `separations_agree` numbers each by its bit mask.
Pinned regime terms (``F=x``) first restrict the graph (removing the
dashed intention-to-treat edge when the pin is non-idle) and then join
the conditioning set as ordinary nodes, together with every deterministic
node whose parents are all pinned to non-idle values: that node is a
constant in the pinned regimes (D-separation for a functionally fixed
node).
"""

from __future__ import annotations

from itertools import accumulate, combinations, compress, repeat
from typing import Iterable

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


def _active_trails(dag: Dag, in_cond: dict[str, int], full: int, seeds: dict[str, int]) -> dict[str, int]:
    """One bit-sliced active-trail pass over the slices numbered by the bits
    of `full`: slice k conditions on the nodes `v` with bit k of `in_cond[v]`
    (a node missing from `in_cond` is never conditioned), and its sources are
    the nodes `v` with bit k of `seeds[v]`.

    Maps each node to its bits k such that the node lies outside slice k's
    set and has an active trail given it from a source of slice k (a source
    outside the set is reached)."""
    order = topological_order(dag)
    nodes = range(len(order))
    at = {v: i for i, v in enumerate(order)}
    parents, children = [[] for _ in nodes], [[] for _ in nodes]
    for e in dag.edges:  # `topological_order` rejected any edge with an end outside the graph
        parents[at[e.dst]].append(at[e.src])
        children[at[e.src]].append(at[e.dst])
    cond = [in_cond.get(v, 0) for v in order]
    free = [full & ~c for c in cond]
    # The slices whose conditioning set holds the node or one of its descendants.
    anc = cond[:]
    for i in reversed(nodes):
        for c in children[i]:
            anc[i] |= anc[c]
    # "up" = entered from a child (or a source); "down" = entered from a
    # parent.  A node entered up passes on both ways unless conditioned;
    # one entered down passes on down unless conditioned, and up if it is
    # a collider with a conditioned descendant.  A forward sweep settles
    # every downward run and a reverse sweep every upward one, so the two
    # alternate until a reverse sweep adds nothing.
    up, down, to_children, to_parents = ([0] * len(order) for _ in range(4))
    for v, bits in seeds.items():
        up[at[v]] = bits
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


def d_separated_paths(dag: Dag, stmt: EciStatement) -> bool:
    """Active-trail criterion; must agree with `d_separated`."""
    graph, left, right, cond = _prepare(dag, stmt)
    reached = _active_trails(graph, dict.fromkeys(cond, 1), 1, dict.fromkeys(left, 1))
    return not any(reached[v] for v in right)


def _enumeration_names(over: Iterable[str], *dags: Dag) -> list[str]:
    names = sorted(set(over))
    for dag in dags:
        for name in names:
            dag.node(name)
    if len(names) > ENUMERATION_BOUND:
        raise GraphError("enumeration bound exceeded")
    return names


def _sources(dag: Dag, names: list[str]) -> tuple[list[str], dict[str, int], int]:
    """The stochastic `names` of `dag` as sources, each source's seed bits,
    and every bit: bit s·2**n + k answers for the s-th source under the
    k-th subset of the n `names`."""
    n = len(names)
    sources = [a for a in names if dag.kind_of(a) == STOCHASTIC]
    seeds = {a: ((1 << (1 << n)) - 1) << (s << n) for s, a in enumerate(sources)}
    return sources, seeds, (1 << (len(sources) << n)) - 1


def _slices(dag: Dag, names: list[str]) -> tuple[list[str], dict[str, int], dict[str, int], int]:
    """`_sources` and each name's conditioning bits, with the subsets of the
    n `names` numbered by size and then in `combinations` order, the order
    `implied_statements` lists its statements in."""
    n = len(names)
    sources, seeds, full = _sources(dag, names)
    # For i from n - 1 down to 0, bit t of member[j][k] says names[j] is in
    # the t-th k-subset of names[i:], of which there are counts[k]: names[i]
    # with each (k-1)-subset of names[i + 1:], then the k-subsets of names[i + 1:]
    # (k falls, so each step reads the sizes of names[i + 1:] before replacing them).
    counts, member = [1] + [0] * n, [[0] * (n + 1) for _ in names]
    for i in reversed(range(n)):
        for k in range(n - i, 0, -1):
            for sizes in member[i + 1:]:
                sizes[k] = sizes[k - 1] | sizes[k] << counts[k - 1]
            member[i][k] = (1 << counts[k - 1]) - 1
            counts[k] += counts[k - 1]
    offsets = list(accumulate(counts, initial=0))
    in_cond = {}
    for name, sizes in zip(names, member):
        bits = sum(size_bits << offset for size_bits, offset in zip(sizes, offsets))
        for m in range(n, n + (len(sources) - 1).bit_length()):  # a copy per source's block, by doubling
            bits |= bits << (1 << m)
        in_cond[name] = bits & full
    return sources, in_cond, seeds, full


# Bit k of a mask, lowest first, as byte k (0 or 1): `compress` selectors.
_ZERO_ONE = bytes.maketrans(b"01", b"\0\1")


def implied_statements(dag: Dag, over: frozenset[str] | set[str]) -> list[EciStatement]:
    """All elementary statements over `over` certified by d-separation.

    Elementary: singleton stochastic left, singleton right, conditioning
    on any subset of the remaining `over` nodes.  Deterministic order.
    """
    names = _enumeration_names(over, dag)
    subsets = [frozenset(cond) for k in range(len(names) + 1) for cond in combinations(names, k)]
    sources, in_cond, seeds, full = _slices(dag, names)
    reached = _active_trails(dag, in_cond, full, seeds)
    block = (1 << len(subsets)) - 1
    out: list[EciStatement] = []
    for s, a in enumerate(sources):
        left, shift = frozenset({a}), s << len(names)
        # Stochastic pairs are emitted once, smaller name on the left.
        for b in names:
            if b != a and not (dag.kind_of(b) == STOCHASTIC and b < a):
                separated_by = ~(reached[b] | in_cond[a] | in_cond[b]) >> shift & block
                selectors = bin(separated_by)[:1:-1].encode().translate(_ZERO_ONE)
                # Well formed by construction: `a` is in no listed set, `b` is
                # not `a`, and nothing is pinned, so the checks are skipped.
                out.extend(map(tuple.__new__, repeat(EciStatement), zip(
                    repeat(left), repeat(frozenset({b})), compress(subsets, selectors), repeat(()))))
    return out


def separations_agree(dag: Dag, other: Dag, over: Iterable[str]) -> bool:
    """Whether both graphs imply the same `implied_statements` over `over`
    (node kinds are read from `dag`).

    d-separation is symmetric, so comparing the nodes of `over` reached
    from every stochastic `a`, under every conditioning set, covers every
    listed pair (under a set that holds `a`, nothing is reached).
    """
    names = _enumeration_names(over, dag, other)
    _, seeds, full = _sources(dag, names)
    # Subset k holds names[j] iff bit j of k is set: bit j of the slice
    # numbers repeats 2**j zeros and 2**j ones, one copy per 2**(j+1) bits.
    in_cond = {a: full // ((1 << (2 << j)) - 1) * (((1 << (1 << j)) - 1) << (1 << j)) for j, a in enumerate(names)}
    reached, other_reached = (_active_trails(graph, in_cond, full, seeds) for graph in (dag, other))
    return all(reached[b] == other_reached[b] for b in names)
