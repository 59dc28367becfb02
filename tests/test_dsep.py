import itertools
import random
from types import SimpleNamespace

import numpy as np
import pytest

from dtcausal.dsep import (
    ENUMERATION_BOUND,
    _active_trails,
    d_separated,
    d_separated_paths,
    implied_statements,
    separated,
    separations_agree,
)
from dtcausal.graph import REGIME, STOCHASTIC, Dag, Edge, GraphError, Node, topological_order
from dtcausal.statements import EciStatement, StatementError, parse_statement

from conftest import (
    instrument_dag,
    itt_ignorable_dag,
    itt_nonignorable_dag,
    random_dag,
    simple_treatment_dag,
    suffcov_dag,
    suffcov_itt_dag,
    two_stage_itt_dag,
    two_stage_obs_dag,
)
from dtcausal.augment import (
    InterventionPlan,
    ProjectionError,
    build_augmented_dag,
    build_itt_dag,
    eliminate_nodes,
    itt_name,
    regime_name,
)

BOTH = (d_separated, d_separated_paths)


def both_agree(dag, text):
    stmt = parse_statement(text)
    a, b = d_separated(dag, stmt), d_separated_paths(dag, stmt)
    assert a == b, f"engines disagree on {text}"
    return a


class TestSimpleTreatment:
    def test_regime_screened_by_treatment(self):
        assert both_agree(simple_treatment_dag(), "Y _||_ F_T | T")

    def test_marginal_dependence(self):
        assert not both_agree(simple_treatment_dag(), "Y _||_ F_T")

    def test_empty_right_is_trivially_true(self):
        stmt = EciStatement(frozenset({"Y"}), frozenset())
        for engine in BOTH:
            assert engine(simple_treatment_dag(), stmt)


class TestInstrument:
    def test_modular_component(self):
        assert both_agree(instrument_dag(), "U, Z _||_ F_X")

    def test_instrument_independence(self):
        assert both_agree(instrument_dag(), "U _||_ Z | F_X")

    def test_exclusion_restriction(self):
        assert both_agree(instrument_dag(), "Y _||_ Z | X, U, F_X")

    def test_response_modularity(self):
        assert both_agree(instrument_dag(), "Y _||_ F_X | X, U")

    def test_collider_opens_on_applied_treatment(self):
        # conditioning on X opens the F_X -> X <- U path through to Y
        assert not both_agree(instrument_dag(), "Y _||_ F_X | X")


class TestPinnedRegimes:
    def test_pin_removes_itt_influence(self):
        dag = itt_ignorable_dag()
        # under a forced treatment the ITT value no longer reaches Y ...
        assert both_agree(dag, "Y _||_ T* | F_T=1")
        # ... but under the idle regime it does (T = T*)
        assert not both_agree(dag, "Y _||_ T* | F_T=~")

    def test_pinned_regime_joins_conditioning(self):
        dag = two_stage_itt_dag()
        assert both_agree(dag, "Y _||_ X1* | Z, F_X1=1")

    def test_non_idle_pin_fixes_its_treatment(self):
        # Under F_T=1 the applied treatment is a constant, so it screens its
        # children from each other unconditioned; under the idle regime not.
        dag = Dag.of(
            {Node("F_T", REGIME), Node("T", deterministic=True), Node("T*", latent=True), Node("W"), Node("Y")},
            {Edge("F_T", "T"), Edge("T*", "T", dashed=True), Edge("T", "W"), Edge("T", "Y")},
        )
        assert both_agree(dag, "Y _||_ W | F_T=1")
        assert both_agree(dag, "Y _||_ T | F_T=1")
        assert not both_agree(dag, "Y _||_ W | F_T=~")
        assert not both_agree(dag, "Y _||_ W")

    def test_pin_on_non_regime_rejected(self):
        with pytest.raises(StatementError):
            d_separated(itt_ignorable_dag(), parse_statement("Y _||_ F_T | T*=1"))

    def test_regime_on_left_rejected(self):
        with pytest.raises(StatementError):
            d_separated(simple_treatment_dag(), EciStatement(frozenset({"F_T"}), frozenset({"Y"})))


def single_world_graph(obs: Dag, targets) -> Dag:
    """The SWIG of `obs` (Richardson & Robins 2013): each target X splits into
    a random half X*, which keeps X's incoming edges, and a fixed half X,
    which takes its outgoing edges."""
    nodes = set(obs.nodes) | {Node(itt_name(x)) for x in targets}
    return Dag.of(nodes, {Edge(e.src, itt_name(e.dst) if e.dst in targets else e.dst) for e in obs.edges})


def test_pinned_separation_matches_single_world_graph():
    """With every regime pinned to a non-idle value, the ITT DAG separates two
    random nodes exactly when the SWIG does with the fixed halves conditioned:
    the pin rule gives the single-world reading of an intervention."""
    verdicts = {True: 0, False: 0}
    for seed in range(40):
        rng = random.Random(seed)
        names = [f"V{i}" for i in range(rng.randint(3, 5))]
        edges = {Edge(a, b) for i, a in enumerate(names) for b in names[i + 1:] if rng.random() < 0.5}
        obs = Dag.of({Node(v) for v in names}, edges)
        chosen = rng.sample(names, rng.randint(1, 2))
        targets = [v for v in topological_order(obs) if v in chosen]
        itt = build_itt_dag(obs, InterventionPlan(tuple(targets)))
        swig = single_world_graph(obs, targets)
        pins = tuple((regime_name(x), rng.choice(("0", "1"))) for x in targets)
        fixed = frozenset(targets)
        random_nodes = sorted(swig.node_names - fixed)
        for a, b in itertools.combinations(random_nodes, 2):
            rest = [v for v in random_nodes if v not in (a, b)]
            for k in range(len(rest) + 1):
                for cond in itertools.combinations(rest, k):
                    expected = separated(swig, frozenset({a}), frozenset({b}), fixed | frozenset(cond))
                    stmt = EciStatement(frozenset({a}), frozenset({b}), frozenset(cond), pins)
                    for engine in BOTH:
                        assert engine(itt, stmt) == expected, (seed, engine.__name__, stmt)
                    verdicts[expected] += 1
    assert min(verdicts.values()) > 100, verdicts


class TestIttGraphs:
    def test_applied_treatment_screens_response(self):
        assert both_agree(itt_nonignorable_dag(), "Y _||_ F_T | T, T*")

    def test_nonignorable_graph_fails_marginal_screening(self):
        assert not both_agree(itt_nonignorable_dag(), "Y _||_ F_T | T")

    def test_ignorable_graph_statements(self):
        dag = itt_ignorable_dag()
        assert both_agree(dag, "T* _||_ F_T")
        assert both_agree(dag, "Y _||_ T*, F_T | T")

    def test_sufficient_covariate_statements(self):
        itt = suffcov_itt_dag()
        assert both_agree(itt, "T*, X _||_ F_T")
        assert both_agree(itt, "Y _||_ T*, F_T | T, X")
        red = suffcov_dag()
        assert both_agree(red, "X _||_ F_T")
        assert both_agree(red, "Y _||_ F_T | T, X")


class TestImpliedStatements:
    def test_simple_treatment_contents(self):
        dag = simple_treatment_dag()
        stmts = implied_statements(dag, dag.node_names)
        assert parse_statement("Y _||_ F_T | T") in stmts
        assert parse_statement("Y _||_ T") not in stmts
        assert parse_statement("Y _||_ F_T") not in stmts

    def test_two_stage_augmented_contents(self):
        dag = build_augmented_dag(two_stage_obs_dag(), InterventionPlan(("X0", "X1")))
        stmts = implied_statements(dag, dag.node_names)
        assert parse_statement("Y _||_ F_X0 | Z, X1") in stmts
        assert parse_statement("Z _||_ F_X1 | X0") in stmts

    def test_edgeless_pair(self):
        dag = Dag.of({Node("A"), Node("B")}, set())
        stmts = implied_statements(dag, {"A", "B"})
        assert parse_statement("A _||_ B") in stmts

    def test_deterministic_order(self):
        dag = instrument_dag()
        assert implied_statements(dag, dag.node_names) == implied_statements(dag, dag.node_names)

    def test_enumeration_bound(self):
        dag = Dag.of({Node(f"V{i:02d}") for i in range(ENUMERATION_BOUND + 1)}, set())
        with pytest.raises(GraphError, match="enumeration bound"):
            implied_statements(dag, dag.node_names)

    def test_unknown_node(self):
        with pytest.raises(GraphError):
            implied_statements(simple_treatment_dag(), {"nope"})


def _random_statement(rng, dag):
    stoch = sorted(n.name for n in dag.nodes if n.kind == "stochastic")
    others = sorted(n.name for n in dag.nodes)
    rng.shuffle(stoch)
    left = {stoch[0]}
    pool = [v for v in others if v not in left]
    rng.shuffle(pool)
    k_right = int(rng.integers(1, max(2, len(pool))))
    right = set(pool[:k_right])
    rest = pool[k_right:]
    given = {v for v in rest if rng.random() < 0.4}
    return EciStatement(frozenset(left), frozenset(right), frozenset(given))


def test_cross_implementation_agreement_random_graphs():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(300):
        dag = random_dag(rng)
        for _ in range(5):
            stmt = _random_statement(rng, dag)
            assert d_separated(dag, stmt) == d_separated_paths(dag, stmt)
            checked += 1
    assert checked == 1500


def test_agreement_exhaustive_small_graphs():
    # every elementary statement over every 4-node random graph
    rng = np.random.default_rng(11)
    for _ in range(30):
        dag = random_dag(rng, max_nodes=4, regime_prob=0.5)
        names = sorted(dag.node_names)
        stoch = [n for n in names if dag.kind_of(n) == "stochastic"]
        for a in stoch:
            for b in names:
                if b == a:
                    continue
                rest = [v for v in names if v not in (a, b)]
                for k in range(len(rest) + 1):
                    for cond in itertools.combinations(rest, k):
                        stmt = EciStatement(frozenset({a}), frozenset({b}), frozenset(cond))
                        assert d_separated(dag, stmt) == d_separated_paths(dag, stmt)


# -- the sliced pass against a one-node-per-step walk on one set -----------


def loop_compile(dag, first=()):
    """Index the nodes (`first` in its order, then the rest by name) and
    return their bits and every node's parent and child masks."""
    order = tuple(first) + tuple(sorted(dag.node_names - set(first)))
    bit = {v: 1 << i for i, v in enumerate(order)}
    bits = SimpleNamespace(order=order, bit=bit, mask=lambda names: sum(bit[v] for v in set(names)))
    parents = [bits.mask(dag.parents(v)) for v in bits.order]
    children = [bits.mask(dag.children(v)) for v in bits.order]
    return bits, parents, children


def loop_reachable(parents, children, sources, cond):
    """Mask of the nodes outside `cond` with an active trail from `sources`
    given `cond` (sources outside `cond` count as reached)."""
    # Nodes with a descendant (or self) in the conditioning set.
    anc = 0
    todo = cond
    while todo:
        low = todo & -todo
        todo ^= low
        anc |= low
        todo |= parents[low.bit_length() - 1] & ~anc
    # "up" = entered from a child (or a source); "down" = entered from a parent.
    up = down = 0
    todo_up, todo_down = sources, 0
    while todo_up or todo_down:
        if todo_up:
            low = todo_up & -todo_up
            todo_up ^= low
            up |= low
            if not low & cond:
                i = low.bit_length() - 1
                todo_up |= parents[i] & ~up
                todo_down |= children[i] & ~down
        else:
            low = todo_down & -todo_down
            todo_down ^= low
            down |= low
            i = low.bit_length() - 1
            if not low & cond:
                todo_down |= children[i] & ~down
            if low & anc:  # collider with conditioned descendant opens
                todo_up |= parents[i] & ~up
    return (up | down) & ~cond


def test_sliced_pass_matches_loop_walk():
    # 3-20 nodes (21 with the regime founder); each pass packs 24 random
    # conditioning sets (the empty and the full set among them) and answers
    # for every one at once, from 1-3 sources that may lie in a set.
    rng, pick = np.random.default_rng(7), random.Random(7)
    queries = 0
    while queries < 6000:
        dag = random_dag(rng, max_nodes=20, regime_prob=0.5)
        if len(dag.node_names) < 3:
            continue
        bits, loop_parents, loop_children = loop_compile(dag)
        n = len(bits.order)
        conds = [0, (1 << n) - 1] + [pick.getrandbits(n) for _ in range(22)]
        in_cond = {v: sum(1 << k for k, cond in enumerate(conds) if cond & bits.bit[v]) for v in bits.order}
        full = (1 << len(conds)) - 1
        for _ in range(4):
            sources = pick.sample(bits.order, pick.randint(1, 3))
            reached = _active_trails(dag, in_cond, full, dict.fromkeys(sources, full))
            for k, cond in enumerate(conds):
                expected = loop_reachable(loop_parents, loop_children, bits.mask(sources), cond)
                got = bits.mask(v for v in bits.order if reached[v] >> k & 1)
                assert got == expected, (sorted(dag.edges), sources, cond)
                queries += 1


# -- the enumerations against the per-query loop they replace ---------------


def loop_implied(dag, over):
    """Reference enumeration: one moralisation query per (a, b, cond)."""
    over = frozenset(over)
    names = sorted(over)
    out = []
    for a in names:
        if dag.kind_of(a) != STOCHASTIC:
            continue
        for b in names:
            if b == a or (dag.kind_of(b) == STOCHASTIC and b < a):
                continue
            rest = sorted(over - {a, b})
            for k in range(len(rest) + 1):
                for cond in itertools.combinations(rest, k):
                    stmt = EciStatement(frozenset({a}), frozenset({b}), frozenset(cond))
                    if d_separated(dag, stmt):
                        out.append(stmt)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_implied_statements_match_loop_in_order(seed):
    rng = np.random.default_rng(seed)
    for _ in range(15):
        dag = random_dag(rng, max_nodes=7, regime_prob=0.6)
        names = sorted(dag.node_names)
        subset = {v for v in names if rng.random() < 0.7} or {names[0]}
        for over in (dag.node_names, subset):
            assert implied_statements(dag, over) == loop_implied(dag, over)


def _projections(rng, count):
    """(input, projection, retained) for accepted eliminations, from random
    DAGs with random drops and from ITT graphs with their ITT nodes dropped."""
    out = []
    while len(out) < count:
        dag = random_dag(rng, max_nodes=6, regime_prob=0.0)
        if rng.random() < 0.5:
            targets = tuple(v for v in topological_order(dag) if rng.random() < 0.4)
            dag, drop = build_itt_dag(dag, InterventionPlan(targets)), {itt_name(t) for t in targets}
        else:
            drop = {v for v in sorted(dag.node_names) if rng.random() < 0.3}
        if not drop or not 2 <= len(dag.node_names - drop) <= 7:
            continue
        try:
            out.append((dag, eliminate_nodes(dag, drop), dag.node_names - drop))
        except ProjectionError:
            continue
    return out


def _one_edge_changed(rng, dag):
    """`dag` with one random edge removed or added (forward, into a
    stochastic node); None when the addition finds no missing edge."""
    edges = sorted(dag.edges)
    if edges and rng.random() < 0.5:
        return Dag.of(dag.nodes, set(edges) - {edges[int(rng.integers(0, len(edges)))]})
    order = topological_order(dag)
    missing = [
        Edge(u, v)
        for i, u in enumerate(order)
        for v in order[i + 1:]
        if dag.kind_of(v) == STOCHASTIC and v not in dag.children(u)
    ]
    if not missing:
        return None
    return Dag.of(dag.nodes, set(edges) | {missing[int(rng.integers(0, len(missing)))]})


def test_projection_check_matches_set_comparison():
    rng = np.random.default_rng(31)
    agreed = disagreed = 0
    for dag, out, retained in _projections(rng, 40):
        before = set(loop_implied(dag, retained))
        assert separations_agree(dag, out, retained)
        assert before == set(loop_implied(out, retained))
        changed = _one_edge_changed(rng, out)
        if changed is None:
            continue
        same = before == set(loop_implied(changed, retained))
        assert separations_agree(dag, changed, retained) == same
        agreed += same
        disagreed += not same
    assert disagreed >= 10 and agreed + disagreed >= 30


def test_separations_agree_with_dropped_latents():
    # `other` drops stochastic nodes of `dag`, as latent ones, which no
    # enumerated set conditions on; the answer must match comparing the two
    # enumerations as sets.
    rng = np.random.default_rng(5)
    agreed = disagreed = 0
    for _ in range(60):
        dag = random_dag(rng, max_nodes=7, regime_prob=0.3)
        latent = {n.name for n in dag.nodes if n.kind == STOCHASTIC and rng.random() < 0.35}
        retained = dag.node_names - latent
        if not latent or len(retained) < 2:
            continue
        other = Dag.of(
            {n for n in dag.nodes if n.name in retained},
            {e for e in dag.edges if e.src in retained and e.dst in retained},
        )
        same = set(loop_implied(dag, retained)) == set(loop_implied(other, retained))
        assert separations_agree(dag, other, retained) == same
        assert separations_agree(other, dag, retained) == same
        agreed += same
        disagreed += not same
    assert agreed >= 5 and disagreed >= 5


def test_separations_agree_checks_names_and_bound():
    with pytest.raises(GraphError, match="unknown node"):
        separations_agree(simple_treatment_dag(), simple_treatment_dag(), {"nope"})
    dag = Dag.of({Node(f"V{i:02d}") for i in range(ENUMERATION_BOUND + 1)}, set())
    with pytest.raises(GraphError, match="enumeration bound"):
        separations_agree(dag, dag, dag.node_names)


# -- the one-pass enumerations against their per-source form ----------------


def loop_separations_agree(dag, other, over):
    """Reference: one sliced pass per graph and stochastic source, with
    conditioning set k holding names[j] iff bit j of k is set."""
    names = sorted(set(over))
    full = (1 << (1 << len(names))) - 1
    in_cond = {v: full // ((1 << (2 << j)) - 1) * (((1 << (1 << j)) - 1) << (1 << j)) for j, v in enumerate(names)}
    for a in names:
        if dag.kind_of(a) != STOCHASTIC:
            continue
        reached, other_reached = (_active_trails(graph, in_cond, full, {a: full}) for graph in (dag, other))
        if any(reached[b] != other_reached[b] for b in names):
            return False
    return True


def bound_dag(n=ENUMERATION_BOUND):
    """A random DAG of `n` stochastic nodes, each edge kept with probability 0.3."""
    rng = random.Random(0)
    names = [f"V{i:02d}" for i in range(n)]
    edges = {Edge(a, b) for i, a in enumerate(names) for b in names[i + 1:] if rng.random() < 0.3}
    return Dag.of({Node(v) for v in names}, edges)


def test_separations_agree_matches_per_source_loop():
    # ITT splits of random DAGs hold regime, latent and deterministic nodes;
    # `over` is any subset of their names, kinds mixed.
    rng = np.random.default_rng(17)
    outcomes = {True: 0, False: 0}
    for _ in range(80):
        obs = random_dag(rng, max_nodes=6, regime_prob=0.0)
        targets = tuple(v for v in topological_order(obs) if rng.random() < 0.3)
        dag = build_itt_dag(obs, InterventionPlan(targets)) if targets else random_dag(rng, 6, regime_prob=1.0)
        over = {v for v in sorted(dag.node_names) if rng.random() < 0.8} or {sorted(dag.node_names)[0]}
        assert separations_agree(dag, dag, over) and loop_separations_agree(dag, dag, over)
        changed = _one_edge_changed(rng, dag)
        if changed is not None:
            expected = loop_separations_agree(dag, changed, over)
            assert separations_agree(dag, changed, over) == expected, (sorted(dag.edges), sorted(changed.edges), over)
            outcomes[expected] += 1
    assert min(outcomes.values()) >= 10, outcomes


def test_separations_agree_edge_cases_match_per_source_loop():
    dag = itt_ignorable_dag()
    changed = Dag.of(dag.nodes, set(dag.edges) | {Edge("T*", "Y")})
    for over in ({"F_T"}, {"Y"}, {"F_T", "Y", "T"}):  # no stochastic name; one name; both graphs differ on the last
        for other in (dag, changed):
            assert separations_agree(dag, other, over) == loop_separations_agree(dag, other, over), (over, other)
    assert separations_agree(dag, changed, {"F_T"}) and separations_agree(dag, changed, {"Y"})
    assert not separations_agree(dag, changed, {"F_T", "Y", "T"})
    # ENUMERATION_BOUND names: the ITT split of 12 nodes with two targets, less the intention nodes.
    itt = build_itt_dag(bound_dag(12), InterventionPlan(("V03", "V07")))
    over = itt.node_names - {"V03*", "V07*"}
    assert len(over) == ENUMERATION_BOUND
    edges = sorted(itt.edges)
    for other in (itt, Dag.of(itt.nodes, set(edges) - {edges[len(edges) // 2]})):
        assert separations_agree(itt, other, over) == loop_separations_agree(itt, other, over)


def test_enumerated_statements_are_well_formed():
    # `implied_statements` builds its statements without `EciStatement`'s
    # checks; each must be what the checked constructor builds.
    rng = np.random.default_rng(3)
    dags = [random_dag(rng, max_nodes=7, regime_prob=0.6) for _ in range(40)] + [bound_dag()]
    for dag in dags:
        for stmt in implied_statements(dag, dag.node_names):
            assert type(stmt) is EciStatement and EciStatement(*stmt) == stmt, stmt
