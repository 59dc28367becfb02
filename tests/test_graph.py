import numpy as np
import pytest

from dtcausal.graph import (
    IDLE,
    REGIME,
    Dag,
    Edge,
    GraphError,
    Node,
    moral_graph,
    restrict_to_regime,
    surgery,
    to_dot,
    topological_order,
    validate,
)

from conftest import (
    instrument_dag,
    itt_ignorable_dag,
    random_dag,
    simple_treatment_dag,
    two_stage_itt_dag,
    two_stage_obs_dag,
)


class TestValidate:
    def test_simple_treatment_ok(self):
        assert validate(simple_treatment_dag()) == []

    def test_empty_graph_ok(self):
        assert validate(Dag(frozenset(), frozenset())) == []

    def test_regime_with_parent(self):
        dag = Dag(
            frozenset({Node("F_T", REGIME), Node("T"), Node("Y")}),
            frozenset({Edge("F_T", "T"), Edge("Y", "F_T")}),
        )
        assert any("has parent" in e for e in validate(dag))

    def test_self_loop(self):
        dag = Dag(frozenset({Node("A")}), frozenset({Edge("A", "A")}))
        assert validate(dag) == ["self-loop on A"]  # not also read as a cycle

    def test_cycle(self):
        dag = Dag(frozenset({Node("A"), Node("B")}), frozenset({Edge("A", "B"), Edge("B", "A")}))
        assert any("cycle" in e for e in validate(dag))

    def test_duplicate_name_is_reported_once_and_not_as_a_cycle(self):
        with pytest.raises(GraphError) as exc:
            Dag.of({Node("Y"), Node("Y", REGIME)}, set())
        assert str(exc.value) == "duplicate node name 'Y'"
        dag = Dag(frozenset({Node("Y"), Node("Y", REGIME), Node("X"), Node("X", latent=True)}), frozenset())
        assert validate(dag) == ["duplicate node name 'X'", "duplicate node name 'Y'"]

    def test_dangling_edge(self):
        dag = Dag(frozenset({Node("A")}), frozenset({Edge("A", "B")}))
        assert validate(dag) == ["dangling edge A -> B"]

    def test_latent_regime_rejected(self):
        dag = Dag(frozenset({Node("F", REGIME, latent=True)}), frozenset())
        assert any("latent" in e for e in validate(dag))

    def test_dashed_into_plain_node_rejected(self):
        dag = Dag(frozenset({Node("A"), Node("B")}), frozenset({Edge("A", "B", dashed=True)}))
        assert any("dashed" in e for e in validate(dag))

    def test_of_constructor_raises(self):
        with pytest.raises(GraphError):
            Dag.of({Node("A")}, {Edge("A", "A")})


class TestTopologicalOrder:
    def test_simple_treatment_unique(self):
        assert topological_order(simple_treatment_dag()) == ["F_T", "T", "Y"]

    def test_two_stage_partial_order(self):
        order = topological_order(two_stage_obs_dag())
        assert order.index("X0") < order.index("Z") < order.index("X1") < order.index("Y")

    def test_lexicographic_tie_break(self):
        dag = Dag.of({Node("B"), Node("A")}, set())
        assert topological_order(dag) == ["A", "B"]

    def test_cycle_raises(self):
        dag = Dag(frozenset({Node("A"), Node("B")}), frozenset({Edge("A", "B"), Edge("B", "A")}))
        with pytest.raises(GraphError):
            topological_order(dag)

    def test_matches_uncached_reference_on_random_dags(self):
        # Names are shuffled against the edge direction, and run past V9, so
        # the name tie-break and not the construction order decides.
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(2, 14))
            names = [f"V{i}" for i in rng.permutation(n)]
            edges = {Edge(names[a], names[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3}
            dag = Dag.of({Node(v) for v in names}, edges)
            assert topological_order(dag) == smallest_ready_first(dag)
            assert topological_order(dag) == smallest_ready_first(dag)  # read from the graph's cache

    def test_returned_list_is_a_fresh_copy(self):
        dag = two_stage_obs_dag()
        order = topological_order(dag)
        want = list(order)
        order.reverse()
        order.append("X9")
        assert topological_order(dag) == want

    def test_cyclic_graph_still_fails_in_of(self):
        nodes, edges = {Node("A"), Node("B"), Node("C")}, {Edge("A", "B"), Edge("B", "C"), Edge("C", "B")}
        with pytest.raises(GraphError, match="directed cycle"):
            Dag.of(nodes, edges)
        dag = Dag(frozenset(nodes), frozenset(edges))
        for _ in range(2):  # a failed sort caches nothing
            with pytest.raises(GraphError, match="directed cycle"):
                topological_order(dag)


def smallest_ready_first(dag: Dag) -> list[str]:
    """Uncached reference: place the smallest name whose parents are all placed."""
    order: list[str] = []
    left = {n.name for n in dag.nodes}
    while left:
        v = min(v for v in left if all(e.src in order for e in dag.edges if e.dst == v))
        order.append(v)
        left.remove(v)
    return order


class TestMoralGraph:
    def test_simple_chain_no_marriages(self):
        nodes, edges = moral_graph(simple_treatment_dag(), {"Y", "F_T", "T"})
        assert nodes == frozenset({"F_T", "T", "Y"})
        assert edges == frozenset({frozenset({"F_T", "T"}), frozenset({"T", "Y"})})

    def test_instrument_marries_coparents(self):
        dag = instrument_dag()
        _, edges = moral_graph(dag, dag.node_names)
        # Z, U, F_X are all parents of X, hence pairwise married.
        for pair in ({"Z", "U"}, {"Z", "F_X"}, {"U", "F_X"}):
            assert frozenset(pair) in edges
        assert frozenset({"U", "X"}) in edges and frozenset({"X", "Y"}) in edges

    def test_single_node(self):
        dag = Dag.of({Node("A")}, set())
        nodes, edges = moral_graph(dag, {"A"})
        assert nodes == frozenset({"A"}) and edges == frozenset()

    def test_ancestral_closure_applied(self):
        dag = Dag.of({Node("A"), Node("B"), Node("C")}, {Edge("A", "B"), Edge("B", "C")})
        nodes, _ = moral_graph(dag, {"C"})
        assert nodes == frozenset({"A", "B", "C"})

    def test_unknown_node(self):
        with pytest.raises(GraphError):
            moral_graph(simple_treatment_dag(), {"nope"})


class TestSurgery:
    def test_remove_outgoing_makes_sinks(self):
        dag = surgery(two_stage_obs_dag(), remove_outgoing={"X0", "X1"})
        assert dag.children("X0") == frozenset() and dag.children("X1") == frozenset()

    def test_remove_incoming_makes_founder(self):
        dag = surgery(two_stage_obs_dag(), remove_incoming={"X1"}, remove_outgoing={"X0"})
        assert dag.parents("X1") == frozenset()

    def test_identity(self):
        dag = two_stage_obs_dag()
        assert surgery(dag) == dag

    def test_idempotent(self):
        dag = two_stage_obs_dag()
        once = surgery(dag, remove_incoming={"X1"})
        assert surgery(once, remove_incoming={"X1"}) == once

    def test_input_unchanged(self):
        dag = two_stage_obs_dag()
        before = dag.edges
        surgery(dag, remove_outgoing={"X0"})
        assert dag.edges == before

    def test_unknown_node(self):
        with pytest.raises(GraphError):
            surgery(two_stage_obs_dag(), remove_incoming={"nope"})


class TestRestrictToRegime:
    def test_non_idle_pin_removes_dashed_edge(self):
        dag = restrict_to_regime(two_stage_itt_dag(), {"F_X1": 1})
        assert Edge("X1*", "X1", dashed=True) not in dag.edges
        assert Edge("X0*", "X0", dashed=True) in dag.edges

    def test_idle_pin_is_noop(self):
        dag = two_stage_itt_dag()
        assert restrict_to_regime(dag, {"F_X1": IDLE}) == dag

    def test_ignorable_graph_pin(self):
        dag = restrict_to_regime(itt_ignorable_dag(), {"F_T": 1})
        assert dag.parents("T") == frozenset({"F_T"})

    def test_idempotent(self):
        dag = two_stage_itt_dag()
        once = restrict_to_regime(dag, {"F_X0": 0})
        assert restrict_to_regime(once, {"F_X0": 0}) == once

    def test_non_regime_rejected(self):
        with pytest.raises(GraphError):
            restrict_to_regime(two_stage_itt_dag(), {"Z": 1})


class TestDagQueries:
    def test_ancestors_and_descendants(self):
        dag = two_stage_obs_dag()
        assert "X0" in dag.ancestors({"Y"})

    def test_unknown_name_raises(self):
        dag = two_stage_obs_dag()
        for query in (dag.parents, dag.children):
            with pytest.raises(GraphError, match=r"^unknown node 'Q'$"):
                query("Q")


class TestRecords:
    """Nodes, edges and graphs are immutable values: callers sort them, key
    sets and dicts by them and print them."""

    def test_sort_order_is_field_order(self):
        nodes = [Node("B"), Node("A", latent=True), Node("A"), Node("A", REGIME)]
        assert sorted(nodes) == [Node("A", REGIME), Node("A"), Node("A", latent=True), Node("B")]
        edges = [Edge("B", "A"), Edge("A", "B", dashed=True), Edge("A", "C"), Edge("A", "B")]
        assert sorted(edges) == [Edge("A", "B"), Edge("A", "B", dashed=True), Edge("A", "C"), Edge("B", "A")]

    def test_equal_fields_give_equal_hashes(self):
        for a, b in [
            (Node("T", deterministic=True), Node("T", "stochastic", False, True)),
            (Edge("T*", "T", dashed=True), Edge("T*", "T", True)),
            (itt_ignorable_dag(), itt_ignorable_dag()),
        ]:
            assert a == b and hash(a) == hash(b)
        assert Node("T") != Node("T", latent=True) and Edge("A", "B") != Edge("A", "B", dashed=True)

    def test_fields_cannot_be_assigned(self):
        dag = itt_ignorable_dag()
        for record, field in [(Node("A"), "name"), (Edge("A", "B"), "dashed"), (dag, "edges")]:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))

    def test_replace_runs_the_checks(self):
        with pytest.raises(GraphError, match="^unknown node kind 'bogus'$"):
            Node("A")._replace(kind="bogus")
        assert Node("A")._replace(latent=True) == Node("A", latent=True)

    def test_repr(self):
        assert repr(Node("A")) == "Node(name='A', kind='stochastic', latent=False, deterministic=False)"
        assert repr(Edge("A", "B")) == "Edge(src='A', dst='B', dashed=False)"


class TestDot:
    def test_dot_conventions(self):
        dot = to_dot(itt_ignorable_dag())
        assert '"F_T" [shape=box]' in dot
        assert "dotted" in dot  # latent ITT node
        assert "bold" in dot  # deterministic applied node
        assert "style=dashed" in dot


def test_surgery_preserves_acyclicity_randomly():
    rng = np.random.default_rng(5)
    for _ in range(50):
        dag = random_dag(rng)
        names = sorted(n.name for n in dag.nodes)
        pick = [n for n in names if rng.random() < 0.3]
        topological_order(surgery(dag, remove_incoming=pick))  # must not raise
