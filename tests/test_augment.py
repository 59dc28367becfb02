import numpy as np
import pytest

from dtcausal.augment import (
    InterventionPlan,
    ProjectionError,
    build_augmented_dag,
    build_itt_dag,
    eliminate_nodes,
    identify_two_stage,
    itt_name,
    regime_name,
    rule_applicability,
)
from dtcausal.dsep import implied_statements, separated, separations_agree
from dtcausal.graph import Dag, Edge, GraphError, Node, moral_adjacency, moral_reach, surgery, topological_order

from conftest import (
    itt_ignorable_dag,
    itt_nonignorable_dag,
    random_dag,
    suffcov_dag,
    suffcov_itt_dag,
    two_stage_itt_dag,
    two_stage_obs_dag,
)


def chain_dag() -> Dag:
    return Dag.of({Node("T"), Node("Y")}, {Edge("T", "Y")})


def loop_eliminate(dag: Dag, drop: frozenset[str] | set[str]) -> Dag:
    """Reference projection: greedy backward elimination of each retained
    node's predecessors, and a scan of the input's edges per retained node
    for its dashed edge."""
    drop = frozenset(drop)
    for name in drop:
        if not dag.has_node(name):
            raise GraphError(f"unknown node {name!r}")
    if not drop:
        return dag
    retained = [v for v in topological_order(dag) if v not in drop]
    edges: set[Edge] = set()
    for i, v in enumerate(retained):
        pre = retained[:i]
        parents = list(pre)
        # Greedy minimal parent set: u stays iff v depends on u given the rest.
        for u in pre:
            rest = frozenset(p for p in parents if p != u)
            if separated(dag, frozenset({v}), frozenset({u}), rest):
                parents.remove(u)
        for u in parents:
            edges.add(Edge(u, v))
    nodes = frozenset(n for n in dag.nodes if n.name not in drop)
    # Dropped ITT parents leave the deterministic/dashed annotations moot.
    cleaned = set()
    for n in nodes:
        if n.deterministic and not any(e.dashed and e.dst == n.name for e in dag.edges if e.src not in drop):
            n = n._replace(deterministic=False)
        cleaned.add(n)
    kept_dashed = {(e.src, e.dst) for e in dag.edges if e.dashed and e.src not in drop and e.dst not in drop}
    out = Dag.of(cleaned, {e._replace(dashed=(e.src, e.dst) in kept_dashed) for e in edges})
    if not separations_agree(dag, out, retained):
        raise ProjectionError("not DAG-projectable")
    return out


def prefix_rebuild_edges(dag: Dag, drop: frozenset[str] | set[str]) -> set[tuple[str, str]]:
    """Reference: the parent edges `eliminate_nodes` picks, rebuilding the
    moral graph of each retained prefix's ancestral set from scratch."""
    retained = [v for v in topological_order(dag) if v not in drop]
    edges = set()
    for i, v in enumerate(retained):
        pre = frozenset(retained[:i])
        adj = moral_adjacency(dag, retained[: i + 1])
        edges.update((u, v) for w in moral_reach(adj, (v,), pre) for u in adj[w] & pre)
    return edges


class TestPlan:
    def test_valid_plan(self):
        InterventionPlan(("X0", "X1")).validate_against(two_stage_obs_dag())

    def test_order_must_respect_topology(self):
        with pytest.raises(GraphError, match="topology"):
            InterventionPlan(("X1", "X0")).validate_against(two_stage_obs_dag())

    def test_latent_target_rejected(self):
        with pytest.raises(GraphError, match="latent"):
            InterventionPlan(("H",)).validate_against(two_stage_obs_dag())

    def test_duplicate_target_rejected(self):
        with pytest.raises(GraphError, match=r"^duplicate target 'X0'$"):
            InterventionPlan(("X0", "X0")).validate_against(two_stage_obs_dag())

    def test_each_target_is_checked_before_repeats_and_repeats_before_order(self):
        with pytest.raises(GraphError, match=r"^unknown node 'Q'$"):
            InterventionPlan(("X0", "X0", "Q")).validate_against(two_stage_obs_dag())
        with pytest.raises(GraphError, match=r"^duplicate target 'X0'$"):
            InterventionPlan(("X0", "X1", "X0")).validate_against(two_stage_obs_dag())


class TestBuildItt:
    def test_chain_becomes_treatment_trio(self):
        out = build_itt_dag(chain_dag(), InterventionPlan(("T",)))
        assert out == itt_ignorable_dag()

    def test_two_stage(self):
        out = build_itt_dag(two_stage_obs_dag(), InterventionPlan(("X0", "X1")))
        assert out == two_stage_itt_dag()

    def test_empty_plan_is_identity(self):
        dag = two_stage_obs_dag()
        assert build_itt_dag(dag, InterventionPlan(())) == dag

    def test_trio_shape(self):
        out = build_itt_dag(chain_dag(), InterventionPlan(("T",)))
        assert out.node(itt_name("T")).latent
        assert out.node("T").deterministic
        assert out.parents("T") == frozenset({itt_name("T"), regime_name("T")})
        assert out.children("T") == frozenset({"Y"})

    def test_name_collision_rejected(self):
        dag = Dag.of({Node("T"), Node("T*"), Node("Y")}, {Edge("T", "Y")})
        with pytest.raises(GraphError, match="already in use"):
            build_itt_dag(dag, InterventionPlan(("T",)))

    def test_regime_input_rejected(self):
        with pytest.raises(GraphError, match="observational"):
            build_itt_dag(itt_ignorable_dag(), InterventionPlan(("Y",)))


class TestEliminate:
    def test_two_stage_collapse(self):
        out = eliminate_nodes(two_stage_itt_dag(), {"X0*", "X1*"})
        assert out == build_augmented_dag(two_stage_obs_dag(), InterventionPlan(("X0", "X1")))

    def test_ignorable_collapse(self):
        out = eliminate_nodes(itt_ignorable_dag(), {"T*"})
        expected = Dag.of({Node("F_T", "regime"), Node("T"), Node("Y")}, {Edge("F_T", "T"), Edge("T", "Y")})
        assert out == expected

    def test_nonignorable_collapse_is_complete_pattern(self):
        out = eliminate_nodes(itt_nonignorable_dag(), {"T*"})
        expected = Dag.of(
            {Node("F_T", "regime"), Node("T"), Node("Y")},
            {Edge("F_T", "T"), Edge("F_T", "Y"), Edge("T", "Y")},
        )
        assert out == expected

    def test_sufficient_covariate_collapse(self):
        assert eliminate_nodes(suffcov_itt_dag(), {"T*"}) == suffcov_dag()

    def test_drop_nothing_is_identity(self):
        dag = two_stage_itt_dag()
        assert eliminate_nodes(dag, set()) == dag

    def test_unknown_node(self):
        with pytest.raises(GraphError):
            eliminate_nodes(chain_dag(), {"nope"})

    def test_unprojectable_raises(self):
        # dropped confounder with two children, no other link: needs a
        # bidirected edge, which the DAG class cannot express
        dag = Dag.of(
            {Node("H", latent=True), Node("A"), Node("B"), Node("C"), Node("D")},
            {Edge("H", "A"), Edge("H", "B"), Edge("C", "A"), Edge("D", "B")},
        )
        with pytest.raises(ProjectionError, match="not DAG-projectable"):
            eliminate_nodes(dag, {"H"})

    def test_enumeration_bound(self):
        dag = Dag.of({Node("H", latent=True)} | {Node(f"V{i:02d}") for i in range(15)}, {Edge("H", "V00")})
        with pytest.raises(GraphError, match="enumeration bound"):
            eliminate_nodes(dag, {"H"})

    def test_fidelity_verified_on_random_pairs(self):
        rng = np.random.default_rng(77)
        accepted = 0
        for _ in range(200):
            dag = random_dag(rng, max_nodes=7, regime_prob=0.0)
            names = sorted(dag.node_names)
            drop = {v for v in names if rng.random() < 0.3}
            if len(drop) == len(names):
                continue
            retained = frozenset(set(names) - drop)
            try:
                out = eliminate_nodes(dag, drop)
            except ProjectionError:
                continue
            accepted += 1
            assert set(implied_statements(out, retained)) == set(implied_statements(dag, retained))
        assert accepted >= 50

    def test_agrees_with_greedy_elimination(self):
        # Observational DAGs and their ITT splits, dropping random nodes, and
        # dropping the ITT nodes together with random others.
        rng = np.random.default_rng(20)
        outcomes = []
        for _ in range(60):
            obs = random_dag(rng, max_nodes=6, regime_prob=0.0)
            plan = InterventionPlan(tuple(v for v in topological_order(obs) if rng.random() < 0.5))
            itt = build_itt_dag(obs, plan)
            stars = {itt_name(t) for t in plan.targets}
            for dag, always in ((obs, set()), (itt, set()), (itt, stars)):
                drop = always | {v for v in sorted(dag.node_names) if rng.random() < 0.35}
                if len(drop) == len(dag.nodes):
                    continue
                try:
                    want = loop_eliminate(dag, drop)
                except ProjectionError:
                    with pytest.raises(ProjectionError):
                        eliminate_nodes(dag, drop)
                    outcomes.append("refused")
                    continue
                got = eliminate_nodes(dag, drop)
                assert got == want  # node flags and dashed edges included
                outcomes.append("dashed" if any(e.dashed for e in got.edges) else "projected")
        assert set(outcomes) == {"refused", "dashed", "projected"}

    def test_agrees_with_greedy_elimination_on_benchmark_shaped_graphs(self):
        # 7-8 observed nodes with a latent parent shared by two of them, split
        # for one or two targets, dropping the intention nodes and the latent.
        rng = np.random.default_rng(30)
        outcomes = []
        for _ in range(60):
            dag, drop = benchmark_shaped_projection(rng)
            try:
                want = loop_eliminate(dag, drop)
            except ProjectionError:
                with pytest.raises(ProjectionError):
                    eliminate_nodes(dag, drop)
                outcomes.append("refused")
                continue
            assert eliminate_nodes(dag, drop) == want
            outcomes.append("projected")
        assert set(outcomes) == {"refused", "projected"}


    def test_grown_moral_graph_gives_the_prefix_rebuild_edges(self):
        # Random DAGs with regime founders, their ITT splits, and
        # benchmark-shaped splits; a refused projection is checked too.
        rng = np.random.default_rng(40)
        cases = []
        for _ in range(30):
            obs = random_dag(rng, max_nodes=8, regime_prob=0.0)
            plan = InterventionPlan(tuple(v for v in topological_order(obs) if rng.random() < 0.5))
            itt = build_itt_dag(obs, plan)
            dag = random_dag(rng, max_nodes=8)
            cases += [
                (dag, {v for v in sorted(dag.node_names) if rng.random() < 0.35}),
                (itt, {itt_name(t) for t in plan.targets}),
                benchmark_shaped_projection(rng),
            ]
        outcomes = set()
        for dag, drop in cases:
            if not drop or len(drop) == len(dag.nodes):
                continue
            want = prefix_rebuild_edges(dag, drop)
            try:
                got = eliminate_nodes(dag, drop)
            except ProjectionError:
                outcomes.add("refused")
                continue
            assert {(e.src, e.dst) for e in got.edges} == want
            outcomes.add("projected")
        assert outcomes == {"refused", "projected"}


def benchmark_shaped_projection(rng: np.random.Generator) -> tuple[Dag, set[str]]:
    """The ITT split of a random observational DAG of 7-8 nodes (35% of the
    forward pairs joined) plus a latent `L` parent of two of them, and the
    drop of its intention nodes and `L`."""
    n = int(rng.integers(7, 9))
    names = [f"V{i}" for i in rng.permutation(n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    joined = rng.choice(len(pairs), round(0.35 * len(pairs)), replace=False)
    edges = {Edge(names[pairs[k][0]], names[pairs[k][1]]) for k in joined}
    edges |= {Edge("L", names[k]) for k in rng.choice(n, 2, replace=False)}
    obs = Dag.of({Node(v) for v in names} | {Node("L", latent=True)}, edges)
    order = topological_order(obs)
    picked = rng.choice(range(1, n), int(rng.integers(1, 3)), replace=False)
    targets = sorted((names[k] for k in picked), key=order.index)
    itt = build_itt_dag(obs, InterventionPlan(tuple(targets)))
    return itt, {itt_name(t) for t in targets} | {"L"}


class TestBuildAugmented:
    def test_equals_itt_then_eliminate(self):
        obs, plan = two_stage_obs_dag(), InterventionPlan(("X0", "X1"))
        via_itt = eliminate_nodes(build_itt_dag(obs, plan), {"X0*", "X1*"})
        assert build_augmented_dag(obs, plan) == via_itt

    def test_chain(self):
        out = build_augmented_dag(chain_dag(), InterventionPlan(("T",)))
        assert out.edges == frozenset({Edge("F_T", "T"), Edge("T", "Y")})

    def test_empty_plan(self):
        dag = two_stage_obs_dag()
        assert build_augmented_dag(dag, InterventionPlan(())) == dag


def test_round_trip_random_dags():
    from dtcausal.graph import topological_order

    rng = np.random.default_rng(123)
    done = 0
    for _ in range(60):
        dag = random_dag(rng, max_nodes=6, regime_prob=0.0)
        order = topological_order(dag)
        targets = tuple(v for v in order if rng.random() < 0.4)
        plan = InterventionPlan(targets)
        itt = build_itt_dag(dag, plan)
        collapsed = eliminate_nodes(itt, {itt_name(t) for t in targets})
        assert collapsed == build_augmented_dag(dag, plan)
        done += 1
    assert done == 60


class TestRules:
    def test_response_exchange(self):
        graph = surgery(two_stage_obs_dag(), remove_outgoing={"X0", "X1"})
        assert rule_applicability(graph, "Rule2", {"Y"}, {"X0", "X1"}, z={"Z"})

    def test_first_stage_exchange(self):
        graph = surgery(two_stage_obs_dag(), remove_incoming={"X1"}, remove_outgoing={"X0"})
        assert rule_applicability(graph, "Rule2", {"Z"}, {"X0"}, w={"X1"})

    def test_second_stage_deletion(self):
        graph = surgery(two_stage_obs_dag(), remove_incoming={"X1"})
        assert rule_applicability(graph, "Rule3", {"Z"}, {"X1"}, z={"X0"})

    def test_unknown_rule(self):
        with pytest.raises(GraphError):
            rule_applicability(two_stage_obs_dag(), "Rule1", {"Y"}, {"X0"})

    def test_overlap_rejected(self):
        with pytest.raises(GraphError, match="overlap"):
            rule_applicability(two_stage_obs_dag(), "Rule2", {"Y"}, {"Y"})


class TestIdentifyTwoStage:
    def test_identified(self):
        cert = identify_two_stage(two_stage_obs_dag(), "X0", "X1", "Z", "Y")
        assert cert.identified
        assert all(c.holds for c in cert.checks)
        assert "sum_Z" in cert.estimand

    def test_extra_confounding_not_identified(self):
        cert = identify_two_stage(two_stage_obs_dag(extra_confounding=True), "X0", "X1", "Z", "Y")
        assert not cert.identified
        assert not cert.checks[0].holds  # the response-exchange check fails

    def test_degenerate_chain_identified(self):
        dag = Dag.of(
            {Node("X0"), Node("Z"), Node("X1"), Node("Y")},
            {Edge("X0", "Z"), Edge("Z", "X1"), Edge("X1", "Y")},
        )
        assert identify_two_stage(dag, "X0", "X1", "Z", "Y").identified

    def test_rule3_keeps_the_arrows_into_an_ancestor_of_x0(self):
        # Z -> X1 -> X0 -> Y: X1 is an ancestor of X0, so Rule 3 keeps Z -> X1 and Z _||_ X1 | X0 fails.
        dag = Dag.of(
            {Node("Z"), Node("X1"), Node("X0"), Node("Y")},
            {Edge("Z", "X1"), Edge("X1", "X0"), Edge("X0", "Y")},
        )
        cert = identify_two_stage(dag, "X0", "X1", "Z", "Y")
        deletion = cert.checks[2]
        assert (deletion.name, deletion.remove_incoming, deletion.holds) == ("second-stage-deletion", (), False)
        assert not cert.identified

    def test_report_text(self):
        cert = identify_two_stage(two_stage_obs_dag(), "X0", "X1", "Z", "Y")
        report = cert.report()
        assert "IDENTIFIED" in report and "Rule2" in report and "Rule3" in report

    def test_missing_node(self):
        with pytest.raises(GraphError):
            identify_two_stage(two_stage_obs_dag(), "X0", "X1", "Z", "nope")
