"""End-to-end acceptance suite.

Covers, in order: canonical graph reproduction of the corpus golden
files; exact d-separation read-offs of every corpus statement; the
intention-to-treat invariants on large seeded model families; the
sufficient-covariate invariants plus back-door adjustment; two-stage
g-computation against brute force, with a frozen counterexample; the
symbolic derivation targets (base case + refusal) with large-scale
numeric soundness; the decision/lognormal suite against quadrature;
study-simulation calibration and persistent confounding bias; and
cross-implementation separation agreement with oracle soundness.
"""

import itertools
import math

import numpy as np
import pytest

from dtcausal.augment import (
    InterventionPlan,
    build_augmented_dag,
    build_itt_dag,
    eliminate_nodes,
    identify_two_stage,
)
from dtcausal.decision import (
    DecisionProblem,
    NormalPair,
    ace,
    lognormal_effects,
    solve,
)
from dtcausal.dsep import d_separated, d_separated_paths, implied_statements
from dtcausal.dsl import canonical_graph_text, load_doc
from dtcausal.eci import Universe, closure, derivable
from dtcausal.graph import IDLE, Dag, Edge, Node
from dtcausal.oracle import (
    Cpt,
    MultiRegimeModel,
    check_ignorability,
    check_sufficient_covariate,
    eci_holds,
    gformula_eval,
    interventional_query,
    simulate_study,
    study_model,
)
from dtcausal.statements import EciStatement, parse_statement as ps

from conftest import (
    CORPUS,
    arm_mean,
    ci_holds_in_table,
    finite_dist,
    interventional_mean,
    prob_of,
    random_cpt,
    random_dag,
    random_itt_ignorable_model,
    random_itt_nonignorable_model,
    random_model_from_dag,
    random_suffcov_model,
    random_two_stage_model,
    two_stage_obs_dag,
)

BIN = (0, 1)


def golden(stem: str) -> Dag:
    return load_doc(CORPUS / f"{stem}.cadt").dag


def canonical(dag: Dag) -> str:
    return canonical_graph_text("g", dag)


# -- 1. graph constructions reproduce the golden corpus files ---------------


class TestGraphReproduction:
    def test_two_stage_itt_construction(self):
        built = build_itt_dag(golden("two_stage_obs"), InterventionPlan(("X0", "X1")))
        assert canonical(built) == canonical(golden("two_stage_itt"))

    def test_two_stage_projection(self):
        built = eliminate_nodes(golden("two_stage_itt"), {"X0*", "X1*"})
        assert canonical(built) == canonical(golden("two_stage_augmented"))

    def test_chain_itt_construction(self):
        chain = Dag.of({Node("T"), Node("Y")}, {Edge("T", "Y")})
        built = build_itt_dag(chain, InterventionPlan(("T",)))
        assert canonical(built) == canonical(golden("itt_ignorable"))

    def test_chain_augmentation(self):
        chain = Dag.of({Node("T"), Node("Y")}, {Edge("T", "Y")})
        built = build_augmented_dag(chain, InterventionPlan(("T",)))
        assert canonical(built) == canonical(golden("simple_treatment"))

    def test_confounded_trio_collapse_is_complete(self):
        built = eliminate_nodes(golden("itt_nonignorable"), {"T*"})
        assert canonical(built) == canonical(golden("vacuous"))

    def test_covariate_trio_collapse(self):
        built = eliminate_nodes(golden("suffcov_itt"), {"T*"})
        assert canonical(built) == canonical(golden("suffcov"))


# -- 2. exact d-separation read-offs ----------------------------------------


class TestSeparationReadOff:
    @pytest.mark.parametrize("stem", sorted(p.stem for p in CORPUS.glob("*.cadt")))
    def test_every_corpus_statement_certified(self, stem):
        doc = load_doc(CORPUS / f"{stem}.cadt")
        for name, stmt in doc.statements:
            assert d_separated(doc.dag, stmt) is True, (stem, name)
            assert d_separated_paths(doc.dag, stmt) is True, (stem, name)

    @pytest.mark.parametrize(
        "stem, query, expected",
        [
            ("simple_treatment", "Y _||_ F_T | T", True),
            ("instrument", "U, Z _||_ F_X", True),
            ("instrument", "U _||_ Z | F_X", True),
            ("instrument", "Y _||_ Z | X, U, F_X", True),
            ("instrument", "Y _||_ F_X | X, U", True),
            ("instrument", "Y _||_ Z | X, F_X", False),
            ("itt_ignorable", "T* _||_ F_T", True),
            ("itt_ignorable", "Y _||_ T*, F_T | T", True),
            ("itt_nonignorable", "Y _||_ F_T | T, T*", True),
            ("itt_nonignorable", "Y _||_ F_T | T", False),
            ("itt_nonignorable", "Y _||_ T* | T", False),
            ("vacuous", "Y _||_ F_T | T", False),
            ("suffcov_itt", "T*, X _||_ F_T", True),
            ("suffcov_itt", "Y _||_ T*, F_T | T, X", True),
            ("suffcov", "X _||_ F_T", True),
            ("suffcov", "Y _||_ F_T | T, X", True),
            ("suffcov", "Y _||_ F_T | T", False),
            ("two_stage_augmented", "Y _||_ X0, H, F_X0, F_X1 | Z, X1", True),
            ("two_stage_augmented", "Y _||_ F_X1 | X1", False),
        ],
    )
    def test_exact_booleans(self, stem, query, expected):
        dag = golden(stem)
        stmt = ps(query)
        assert d_separated(dag, stmt) is expected
        assert d_separated_paths(dag, stmt) is expected


# -- 3. intention-to-treat invariants over 1,000 seeded models --------------


def trio_model(seed: int) -> MultiRegimeModel:
    """Random model on the confounded treatment trio; even seeds give the
    response a direct dependence on the intention-to-treat variable, odd
    seeds leave the assignment ignorable."""
    rng = np.random.default_rng(seed)
    states = {"T*": BIN, "T": BIN, "Y": BIN}
    y_parents = ("T", "T*") if seed % 2 == 0 else ("T",)
    cpts = {
        "T*": random_cpt(rng, "T*", (), states),
        "Y": random_cpt(rng, "Y", y_parents, states),
    }
    return MultiRegimeModel(states, cpts=cpts, regimes={"F_T": ("T", "T*")})


REGIME_SCREENING = ps("Y _||_ F_T | T, T*")  # holds in every such model
OBS_IRRELEVANCE = ps("Y _||_ F_T | T")  # holds exactly under ignorability
JOINT_IGNORABILITY = ps("Y _||_ T*, F_T | T")  # equivalent to ignorability


class TestTreatmentTrioInvariants:
    def test_thousand_seeded_models(self):
        seen_ignorable = seen_confounded = 0
        for seed in range(1000):
            model = trio_model(seed)
            assert eci_holds(model, REGIME_SCREENING, tol=1e-9), seed
            ignorable = check_ignorability(model, "Y", "T")
            assert eci_holds(model, OBS_IRRELEVANCE) == ignorable, seed
            assert eci_holds(model, JOINT_IGNORABILITY) == ignorable, seed
            seen_ignorable += ignorable
            seen_confounded += not ignorable
        # both branches of the equivalences must actually be exercised
        assert seen_ignorable >= 400 and seen_confounded >= 400


# -- 4. sufficient-covariate invariants over 500 seeded models --------------


class TestSufficientCovariateInvariants:
    def test_five_hundred_seeded_models(self):
        full = [ps("X, T* _||_ F_T"), ps("Y _||_ T*, F_T | T, X")]
        reduced = [ps("X _||_ F_T"), ps("Y _||_ F_T | T, X")]
        for seed in range(500):
            model = random_suffcov_model(seed)
            assert check_sufficient_covariate(model, "X", "Y", "T"), seed
            for stmt in full + reduced:
                assert eci_holds(model, stmt, tol=1e-9), (seed, stmt)
            self.assert_backdoor(model)

    @staticmethod
    def assert_backdoor(model: MultiRegimeModel) -> None:
        obs = model.joint({"F_T": IDLE})
        for t in BIN:
            direct = interventional_query(model, "Y", {"F_T": t})[1]
            adjusted = sum(
                prob_of(obs, {"X": x}) * obs.conditional(["Y"], {"X": x, "T": t})[1]
                for x in BIN
            )
            assert abs(direct - adjusted) <= 1e-9


# -- 5. two-stage g-computation ---------------------------------------------


class TestTwoStageGComputation:
    def test_hundred_seeded_models_match_brute_force(self):
        for seed in range(100):
            model = random_two_stage_model(seed)
            for x0, x1 in itertools.product(BIN, BIN):
                plug_in = gformula_eval(model, ("Y", 1), ("X0", x0), ("X1", x1), "Z")
                truth = interventional_query(model, "Y", {"F_X0": x0, "F_X1": x1})[1]
                assert abs(plug_in - truth) <= 1e-9, (seed, x0, x1)

    def test_frozen_counterexample_with_hidden_response_confounding(self):
        model = random_two_stage_model(0, extra_confounding=True)
        worst = max(
            abs(
                gformula_eval(model, ("Y", 1), ("X0", x0), ("X1", x1), "Z")
                - interventional_query(model, "Y", {"F_X0": x0, "F_X1": x1})[1]
            )
            for x0, x1 in itertools.product(BIN, BIN)
        )
        assert worst > 1e-3

    def test_confounded_graph_is_not_identified(self):
        cert = identify_two_stage(two_stage_obs_dag(extra_confounding=True), "X0", "X1", "Z", "Y")
        assert not cert.identified

    def test_clean_graph_is_identified(self):
        cert = identify_two_stage(two_stage_obs_dag(), "X0", "X1", "Z", "Y")
        assert cert.identified


# -- 6. symbolic derivation engine -------------------------------------------


FOUR_VARS = Universe.of(["W", "X", "Y", "Z"])
NESTED_UNIVERSE = Universe.of(["W1", "W2"], ["F1", "F2"])
NESTED_PREMISES = [
    ps("F1 _||_ F2"),
    ps("W1 _||_ F2 | F1"),
    ps("W2 _||_ F1 | F2, W1"),
]
CONTRACTION_PREMISES = [ps("X _||_ Y | Z"), ps("X _||_ W | Y, Z")]

CONTRACTION_DAG = Dag.of(
    {Node("X"), Node("Y"), Node("Z"), Node("W")},
    {Edge("Z", "X"), Edge("Z", "Y"), Edge("Y", "W")},
)
NESTED_DAG = Dag.of(
    {Node("F1"), Node("F2"), Node("W1"), Node("W2")},
    {Edge("F1", "W1"), Edge("F2", "W2"), Edge("W1", "W2")},
)


class TestDerivationEngine:
    def test_sequential_randomisation_base_case(self):
        ok, trace = derivable(
            NESTED_PREMISES, ps("F2 _||_ F1 | W1"), NESTED_UNIVERSE, regimes_as_stochastic=True
        )
        assert ok
        assert trace.replay(NESTED_UNIVERSE) == ps("F2 _||_ F1 | W1")

    def test_sequential_randomisation_induction_steps(self):
        for target in (ps("F2, W2 _||_ F1 | W1"), ps("F2 _||_ F1 | W1, W2")):
            ok, _ = derivable(NESTED_PREMISES, target, NESTED_UNIVERSE, regimes_as_stochastic=True)
            assert ok, target

    def test_contraction_example(self):
        ok, _ = derivable(CONTRACTION_PREMISES, ps("X _||_ Y, W | Z"), FOUR_VARS)
        assert ok

    def test_intersection_pattern_refused(self):
        ok, trace = derivable(
            [ps("X _||_ Y | Z, W"), ps("X _||_ Z | Y, W")], ps("X _||_ Y, Z | W"), FOUR_VARS
        )
        assert not ok and trace is None

    @pytest.mark.parametrize(
        "dag, premises, universe, flag, seeds",
        [
            (CONTRACTION_DAG, CONTRACTION_PREMISES, FOUR_VARS, False, range(250)),
            (NESTED_DAG, NESTED_PREMISES, NESTED_UNIVERSE, True, range(250)),
        ],
        ids=["contraction-family", "nested-randomisation-family"],
    )
    def test_soundness_on_500_distributions(self, dag, premises, universe, flag, seeds):
        derived = sorted(closure(premises, universe, regimes_as_stochastic=flag), key=str)
        assert derived
        for seed in seeds:
            table = random_model_from_dag(dag, seed).joint({})
            for prem in premises:  # guard: the family really satisfies the premises
                assert ci_holds_in_table(table, set(prem.left), set(prem.right), set(prem.given))
            for stmt in derived:
                assert ci_holds_in_table(
                    table, set(stmt.left), set(stmt.right), set(stmt.given)
                ), (seed, stmt)


# -- 7. decision suite --------------------------------------------------------


class TestDecisionSuite:
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.5, 0.9, 1.0])
    def test_umbrella_losses(self, p):
        dist = finite_dist({"wet": p, "dry": 1.0 - p})
        loss = {("wet", "leave"): 1.0, ("dry", "leave"): 0.0, ("wet", "take"): 0.0, ("dry", "take"): 0.0}
        sol = solve(DecisionProblem(("take", "leave"), {"take": dist, "leave": dist}, loss))
        assert sol.expected_loss["leave"] == pytest.approx(p)
        assert sol.expected_loss["take"] == 0.0

    def test_lognormal_suite_matches_quadrature(self):
        # E f(Y) for Y ~ N(mu, s2) by 60-node Gauss-Hermite quadrature, exact to
        # rounding for these smooth integrands: an evaluation independent of the
        # closed forms in lognormal_effects.
        nodes, weights = np.polynomial.hermite_e.hermegauss(60)
        weights = weights / math.sqrt(2 * math.pi)

        def expect(f, mu, s2):
            return math.fsum(weights * f(mu + math.sqrt(s2) * nodes))

        def close(a, b):
            return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)

        rng = np.random.default_rng(20240817)
        for trial in range(20):
            mu1 = float(rng.uniform(-1.0, 1.0))
            mu0 = float(rng.uniform(-1.0, 1.0))
            s2 = float(rng.uniform(0.1, 1.0))
            exact = lognormal_effects(NormalPair(mu1, mu0, s2))
            assert close(expect(lambda y: y, mu1, s2) - expect(lambda y: y, mu0, s2), exact.ace_y), ("ace_y", trial)
            m1, m0 = expect(np.exp, mu1, s2), expect(np.exp, mu0, s2)
            assert close(m1 - m0, exact.ace_z), ("ace_z", trial)
            assert close(m1 / m0, exact.ratio), ("ratio", trial)
            for mu, m, exact_var in ((mu1, m1, exact.var_z_1), (mu0, m0, exact.var_z_0)):
                assert close(expect(lambda y: (np.exp(y) - m) ** 2, mu, s2), exact_var), ("var_z", trial)

    def test_ace_antisymmetry_and_argmin_invariance_on_200_problems(self):
        rng = np.random.default_rng(99)
        outcomes = [0, 1, 2, 3]
        actions = ("a", "b", "c")
        for trial in range(200):
            dists = {
                a: finite_dist(dict(zip(outcomes, rng.dirichlet(np.ones(4)).tolist())))
                for a in actions
            }
            assert ace(dists["a"], dists["b"]) == pytest.approx(-ace(dists["b"], dists["a"]), abs=1e-12)
            base = {(y, a): float(rng.normal()) for y in outcomes for a in actions}
            shift, scale = float(rng.normal()), float(rng.uniform(0.1, 10.0))
            moved = {k: scale * v + shift for k, v in base.items()}
            choice = solve(DecisionProblem(actions, dists, base)).optimal_action
            sol2 = solve(DecisionProblem(actions, dists, moved))
            best2 = min(sol2.expected_loss.values())
            assert sol2.expected_loss[choice] == pytest.approx(best2, abs=1e-9), trial


# -- 8. exchangeability simulation --------------------------------------------


RESPONSE = {
    ("morning", 0): {1.0: 0.6, 0.0: 0.4},
    ("morning", 1): {1.0: 0.9, 0.0: 0.1},
    ("evening", 0): {1.0: 0.2, 0.0: 0.8},
    ("evening", 1): {1.0: 0.5, 0.0: 0.5},
}
COVARIATE = {"morning": 0.5, "evening": 0.5}
RANDOMIZED = study_model(COVARIATE, {"morning": 0.5, "evening": 0.5}, RESPONSE)
CONFOUNDED = study_model(COVARIATE, {"morning": 0.2, "evening": 0.8}, RESPONSE)


class TestStudySimulation:
    def test_randomized_study_recovers_interventional_means(self):
        result = simulate_study(RANDOMIZED, 100_000, 2718)
        for arm, mean, se in (
            (1, result.treated_mean, result.treated_se),
            (0, result.control_mean, result.control_se),
        ):
            assert abs(mean - interventional_mean(RANDOMIZED, arm)) <= 5 * se

    def test_confounded_study_reproduces_enumerated_bias(self):
        exact_treated = arm_mean(CONFOUNDED, 1)  # 0.58
        exact_control = arm_mean(CONFOUNDED, 0)
        assert exact_treated == pytest.approx(0.58)
        result = simulate_study(CONFOUNDED, 100_000, 314)
        assert abs(result.treated_mean - exact_treated) <= 5 * result.treated_se
        assert abs(result.control_mean - exact_control) <= 5 * result.control_se

    def test_confounding_bias_does_not_shrink_with_sample_size(self):
        true_effect = interventional_mean(CONFOUNDED, 1) - interventional_mean(CONFOUNDED, 0)
        naive_gap = arm_mean(CONFOUNDED, 1) - arm_mean(CONFOUNDED, 0)
        exact_bias = abs(naive_gap - true_effect)
        assert exact_bias > 0.05
        biases = {}
        for n in (10_000, 100_000):
            result = simulate_study(CONFOUNDED, n, 1618)
            observed_gap = result.treated_mean - result.control_mean
            biases[n] = abs(observed_gap - true_effect)
            # the sampled bias stays at the enumerated value instead of
            # washing out as the study grows
            se = math.hypot(result.treated_se, result.control_se)
            assert abs(biases[n] - exact_bias) <= 5 * se
        assert biases[100_000] > 0.5 * exact_bias


# -- 9. separation engines agree; certified separations hold numerically -----


def random_query(rng: np.random.Generator, dag: Dag) -> EciStatement | None:
    stochastic = sorted(n.name for n in dag.nodes if n.kind == "stochastic")
    everything = sorted(dag.node_names)
    rng.shuffle(stochastic)
    if not stochastic:
        return None
    left = {stochastic[0]}
    rest = [v for v in everything if v not in left]
    rng.shuffle(rest)
    cut1 = 1 + int(rng.integers(0, max(len(rest) - 1, 1)))
    right = set(rest[:cut1])
    given = {v for v in rest[cut1:] if rng.random() < 0.4}
    if not right:
        return None
    return EciStatement(frozenset(left), frozenset(right), frozenset(given))


class TestSeparationEngines:
    def test_agreement_on_1000_random_dags(self):
        rng = np.random.default_rng(424242)
        compared = 0
        for _ in range(1000):
            dag = random_dag(rng, max_nodes=8)
            for _ in range(3):
                stmt = random_query(rng, dag)
                if stmt is None:
                    continue
                assert d_separated(dag, stmt) == d_separated_paths(dag, stmt), (dag, stmt)
                compared += 1
        assert compared >= 2500

    def test_certified_separations_hold_in_200_models(self):
        builders = [
            random_itt_nonignorable_model,
            random_itt_ignorable_model,
            random_suffcov_model,
        ]
        checked_models = 0
        for seed in range(200):
            model = builders[seed % len(builders)](seed)
            statements = implied_statements(model.dag, model.dag.node_names)
            assert statements  # the families all certify something non-trivial
            for stmt in statements:
                assert eci_holds(model, stmt, tol=1e-9), (seed, stmt)
            checked_models += 1
        assert checked_models == 200
