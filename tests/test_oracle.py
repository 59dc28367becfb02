import itertools
import json
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtcausal.dsep import d_separated, separated
from dtcausal.graph import IDLE, Edge, restrict_to_regime
from dtcausal.oracle import (
    DEFAULT_TOL,
    MAX_VARIABLES,
    ZERO_TOL,
    Cpt,
    ModelError,
    MultiRegimeModel,
    StudyResult,
    ace,
    check_distributional_consistency,
    check_ignorability,
    check_sufficient_covariate,
    eci_holds,
    ett,
    gformula_eval,
    interventional_query,
    load_model,
    model_from_json,
    simulate_study,
    study_from_json,
    study_model,
    _coerce_state,
    total_variation,
)
from dtcausal.statements import EciStatement
from dtcausal.statements import parse_statement as ps

from conftest import (
    CORPUS,
    arm_mean,
    interventional_mean,
    itt_ignorable_dag,
    itt_nonignorable_dag,
    prob_of,
    random_cpt,
    random_itt_ignorable_model,
    random_itt_nonignorable_model,
    random_suffcov_model,
    random_two_stage_model,
    suffcov_itt_dag,
    two_stage_itt_dag,
)

BIN = (0, 1)


def kernel_model(py1, ignorable=False, p_star=0.6):
    """ITT model with response kernel p(Y=1 | t, t*) = py1(t, t*)."""
    states = {"T*": BIN, "T": BIN, "Y": BIN}
    parents = ("T",) if ignorable else ("T", "T*")
    rows = {}
    for combo in itertools.product(BIN, repeat=len(parents)):
        t = combo[0]
        tstar = combo[1] if len(combo) > 1 else 0
        p = py1(t, tstar)
        rows[combo] = (1 - p, p)
    cpts = {"T*": Cpt("T*", (), {(): (1 - p_star, p_star)}), "Y": Cpt("Y", parents, rows)}
    return MultiRegimeModel("itt", states, cpts=cpts, regimes={"F_T": "T"}, itt_of={"T": "T*"})


class TestCpt:
    """A CPT is plain data: the model that holds it checks it."""

    @staticmethod
    def model(y: Cpt) -> MultiRegimeModel:
        cpts = {"T*": Cpt("T*", (), {(): (0.4, 0.6)}), "Y": y}
        return MultiRegimeModel(
            "itt", {"T*": BIN, "T": BIN, "Y": BIN}, cpts=cpts, regimes={"F_T": "T"}, itt_of={"T": "T*"}
        )

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ModelError, match=r"CPT row \[\] for 'Y' does not sum to 1"):
            self.model(Cpt("Y", (), {(): (0.5, 0.4)}))

    def test_negative_probability(self):
        with pytest.raises(ModelError, match=r"CPT row \[\] for 'Y' has a negative probability -0.1"):
            self.model(Cpt("Y", (), {(): (-0.1, 1.1)}))

    def test_parent_arity(self):
        with pytest.raises(ModelError, match=r"CPT row \[0, 1\] for 'Y' has wrong parent arity"):
            self.model(Cpt("Y", ("T",), {(0, 1): (0.5, 0.5)}))


class TestJoint:
    def test_forced_regime_gives_point_mass(self):
        m = kernel_model(lambda t, ts: 0.2 + 0.5 * t, ignorable=True)
        j = m.joint({"F_T": 1})
        assert prob_of(j, {"T": 1}) == pytest.approx(1.0)

    def test_idle_treatment_follows_itt(self):
        m = kernel_model(lambda t, ts: 0.5, p_star=0.6)
        j = m.joint({"F_T": IDLE})
        assert prob_of(j, {"T": 1}) == pytest.approx(0.6)
        # applied treatment equals the ITT value under idle
        assert prob_of(j, {"T": 1, "T*": 0}) == pytest.approx(0.0)

    def test_normalised_in_every_regime(self):
        m = random_itt_nonignorable_model(3)
        for reg in m.all_regime_assignments():
            assert m.joint(reg).probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_regime_assignment_must_be_total(self):
        m = random_itt_nonignorable_model(3)
        with pytest.raises(ModelError, match="cover"):
            m.joint({})

    def test_conditional_checks_names_and_values(self):
        j = random_itt_nonignorable_model(3).joint({"F_T": IDLE})
        with pytest.raises(ModelError, match="unknown variable 'Q'"):
            j.conditional(["Q"], {"T": 1})
        with pytest.raises(ModelError, match="'T' is both a target and in the conditioning event"):
            j.conditional(["T"], {"T": 1})
        with pytest.raises(ModelError, match="7 is not a state of 'T'"):
            j.conditional(["Y"], {"T": 7})

    def test_expectation_checks_names_and_values(self):
        j = random_itt_nonignorable_model(3).joint({"F_T": IDLE})
        with pytest.raises(ModelError, match="unknown variable 'Q'"):
            j.expectation("Q", {"Q": 1})
        with pytest.raises(ModelError, match="'T' is both a target and in the conditioning event"):
            j.expectation("T", {"T": 1})
        with pytest.raises(ModelError, match="7 is not a state of 'T'"):
            j.expectation("Y", {"T": 7})

    def test_conditional_on_zero_mass_event_is_none(self):
        j = kernel_model(lambda t, ts: 0.5).joint({"F_T": IDLE})
        assert j.conditional(["Y"], {"T": 1, "T*": 0}) is None
        assert j.conditional(["Y"], {"T": 1, "T*": 1}) == pytest.approx([0.5, 0.5])
        with pytest.raises(ModelError, match="conditioning event has zero probability"):
            j.expectation("Y", {"T": 1, "T*": 0})
        assert j.expectation("Y", {"T": 1, "T*": 1}) == 0.5

    def test_value_outside_domain(self):
        m = random_itt_nonignorable_model(3)
        with pytest.raises(ModelError, match="domain"):
            m.joint({"F_T": 7})


def loop_joint(model, regime):
    """Reference: the joint table by enumerating every state, as the oracle
    did before it contracted CPT tensors."""
    variables = model.variables
    states = tuple(model.states[v] for v in variables)
    shape = tuple(len(s) for s in states)
    probs = np.zeros(shape)
    regime_of_target = {t: r for r, t in model.regimes.items()}
    for combo in itertools.product(*(range(n) for n in shape)):
        value = {v: states[i][combo[i]] for i, v in enumerate(variables)}
        p = 1.0
        for v in variables:
            if v in regime_of_target:
                f = regime[regime_of_target[v]]
                if value[v] != (value[model.itt_of[v]] if f == IDLE else f):
                    p = 0.0
                    break
            else:
                cpt = model.cpts[v]
                row = tuple(regime[par] if par in model.regimes else value[par] for par in cpt.parents)
                p *= cpt.table[row][model.states[v].index(value[v])]
        probs[combo] = p
    return probs / probs.sum()


def three_state_trio_model(seed):
    rng = np.random.default_rng(seed)
    states = {"T*": (0, 1, 2), "T": (0, 1, 2), "Y": BIN}
    cpts = {"T*": random_cpt(rng, "T*", (), states), "Y": random_cpt(rng, "Y", ("T", "T*"), states)}
    return MultiRegimeModel(
        "itt", states, latent=frozenset({"T*"}), cpts=cpts, regimes={"F_T": "T"}, itt_of={"T": "T*"}
    )


def regime_parent_model(seed):
    """Suffcov model whose response also reads the regime indicator."""
    rng = np.random.default_rng(seed)
    base = random_suffcov_model(seed)
    domains = {**base.states, "F_T": (IDLE, 0, 1)}
    cpts = {**base.cpts, "Y": random_cpt(rng, "Y", ("X", "F_T", "T"), domains)}
    return MultiRegimeModel("itt", base.states, cpts=cpts, regimes=base.regimes, itt_of=base.itt_of)


FAMILIES = {
    "trio-ignorable": random_itt_ignorable_model,
    "trio-nonignorable": random_itt_nonignorable_model,
    "suffcov": random_suffcov_model,
    "two-stage": random_two_stage_model,
    "two-stage-confounded": lambda seed: random_two_stage_model(seed, extra_confounding=True),
    "three-state": three_state_trio_model,
    "regime-parent": regime_parent_model,
}


# Reference graphs that these families' CPTs and regimes must reproduce exactly.
FIXTURE_DAGS = {
    "trio-ignorable": itt_ignorable_dag,
    "trio-nonignorable": itt_nonignorable_dag,
    "suffcov": suffcov_itt_dag,
    "two-stage": two_stage_itt_dag,
    "two-stage-confounded": lambda: two_stage_itt_dag(extra_confounding=True),
    "three-state": itt_nonignorable_dag,
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_derived_dag_states_cpts_and_regimes(family):
    m = FAMILIES[family](0)
    for child, cpt in m.cpts.items():
        assert m.dag.parents(child) == frozenset(cpt.parents), child
    for reg, target in m.regimes.items():
        assert m.dag.parents(target) == {reg, m.itt_of[target]}, target
        assert Edge(m.itt_of[target], target, dashed=True) in m.dag.edges
    if family in FIXTURE_DAGS:
        assert m.dag == FIXTURE_DAGS[family]()


def chain_model(seed, states, regimes):
    """An ITT model over `states` (in topological order) in which each CPT
    variable's parents are up to two random earlier variables; `regimes`
    maps each regime to (target, ITT source)."""
    rng = np.random.default_rng(seed)
    targets = {t for t, _ in regimes.values()}
    names = list(states)
    cpts = {}
    for i, v in enumerate(names):
        if v not in targets:
            parents = tuple(rng.permutation(names[:i])[: rng.integers(0, 3)].tolist()) if i else ()
            cpts[v] = random_cpt(rng, v, parents, states)
    return MultiRegimeModel(
        "itt", states, cpts=cpts, regimes={r: t for r, (t, _) in regimes.items()}, itt_of=dict(regimes.values())
    )


def childless_treatment_model(seed):
    """The applied treatment has no children, so its axis enters the joint
    only through its indicator."""
    rng = np.random.default_rng(seed)
    states = {"T*": BIN, "T": BIN, "Y": (0, 1, 2)}
    cpts = {"T*": random_cpt(rng, "T*", (), states), "Y": random_cpt(rng, "Y", ("T*",), states)}
    return MultiRegimeModel("itt", states, cpts=cpts, regimes={"F_T": "T"}, itt_of={"T": "T*"})


JOINT_SHAPES = {
    **FAMILIES,
    "no-regimes": lambda seed: chain_model(seed, {"X": BIN, "Z": (0, 1, 2), "Y": BIN}, {}),
    "childless-treatment": childless_treatment_model,
    # MAX_VARIABLES variables, all but four of them single-state so the loop stays cheap.
    "max-variables": lambda seed: chain_model(
        seed,
        {"X": BIN, "T*": BIN, "T": BIN, "Y": BIN, **{f"P{i}": (0,) for i in range(MAX_VARIABLES - 4)}},
        {"F_T": ("T", "T*")},
    ),
}


@pytest.mark.parametrize("build", JOINT_SHAPES.values(), ids=list(JOINT_SHAPES))
def test_tensor_joint_matches_state_loop(build):
    for seed in range(3):
        m = build(seed)
        assert "_shared_product" not in vars(m)  # built by the first joint table, not at construction
        for regime in m.all_regime_assignments():
            assert np.allclose(m.joint(regime).probs, loop_joint(m, regime), rtol=0, atol=1e-12), (seed, regime)
        assert not any(np.shares_memory(t.probs, m._shared_product) for t in m._joint_cache.values())


def test_statements_certified_by_a_fixed_treatment_hold():
    # A non-idle pin makes its applied treatment a constant, which
    # d-separation counts as conditioned; every statement that certifies
    # beyond conditioning on the pins alone must hold numerically.
    states = {v: BIN for v in ("A", "S*", "S", "T*", "T", "Y")}
    regimes = {"F_S": ("S", "S*"), "F_T": ("T", "T*")}
    added = 0
    for seed in range(3):
        model = chain_model(seed, states, regimes)
        for pins in ({"F_S": "1"}, {"F_T": "0"}, {"F_S": IDLE, "F_T": "1"}):
            graph = restrict_to_regime(model.dag, pins)
            names = sorted(model.dag.node_names - pins.keys())
            for a, b in itertools.permutations(names, 2):
                if a not in states or (b in states and b < a):
                    continue
                rest = [v for v in names if v not in (a, b)]
                for k in range(len(rest) + 1):
                    for given in itertools.combinations(rest, k):
                        stmt = EciStatement(frozenset({a}), frozenset({b}), frozenset(given), tuple(pins.items()))
                        if d_separated(model.dag, stmt) and not separated(graph, {a}, {b}, stmt.given | pins.keys()):
                            assert eci_holds(model, stmt), (seed, stmt)
                            added += 1
    assert added >= 20


class TestCptValidation:
    def model(self, rows):
        cpts = {"T*": Cpt("T*", (), {(): (0.4, 0.6)}), "Y": Cpt("Y", ("T",), rows)}
        return MultiRegimeModel(
            "itt", {"T*": BIN, "T": BIN, "Y": BIN}, cpts=cpts, regimes={"F_T": "T"}, itt_of={"T": "T*"}
        )

    def test_missing_row(self):
        with pytest.raises(ModelError, match=r"'Y' has no row for parents \[1\]"):
            self.model({(0,): (0.5, 0.5)})

    def test_short_row(self):
        with pytest.raises(ModelError, match=r"row \[1\] for 'Y' has 1 probabilities"):
            self.model({(0,): (0.5, 0.5), (1,): (1.0,)})

    def test_unknown_parent_value(self):
        with pytest.raises(ModelError, match=r"row \[2\] for 'Y'"):
            self.model({(0,): (0.5, 0.5), (1,): (0.5, 0.5), (2,): (0.5, 0.5)})

    def test_regime_parent_needs_every_regime_value(self):
        rows = {(t, f): (0.5, 0.5) for t in BIN for f in BIN}  # no row for the idle regime
        cpts = {"T*": Cpt("T*", (), {(): (0.4, 0.6)}), "Y": Cpt("Y", ("T", "F_T"), rows)}
        with pytest.raises(ModelError, match="'Y' has no row"):
            MultiRegimeModel(
                "itt", {"T*": BIN, "T": BIN, "Y": BIN}, cpts=cpts, regimes={"F_T": "T"}, itt_of={"T": "T*"}
            )

    def test_itt_source_may_have_fewer_states_than_its_target(self):
        cpts = {"T*": Cpt("T*", (), {(): (0.4, 0.6)}), "Y": Cpt("Y", ("T",), {(t,): (0.5, 0.5) for t in (0, 1, 2)})}
        model = MultiRegimeModel(
            "itt", {"T*": BIN, "T": (0, 1, 2), "Y": BIN}, cpts=cpts, regimes={"F_T": "T"}, itt_of={"T": "T*"}
        )
        assert model.joint({"F_T": IDLE}).marginal(["T"]).probs.tolist() == [0.4, 0.6, 0.0]
        assert model.joint({"F_T": 2}).marginal(["T"]).probs.tolist() == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("n", [MAX_VARIABLES + 1, 70])  # 70 variables exceed numpy's 64 axes
    def test_variable_cap_is_checked_before_compiling(self, n):
        # No CPTs: compiling would fail with "missing CPT", so the cap must come first.
        with pytest.raises(ModelError, match=f"more than {MAX_VARIABLES} stochastic variables"):
            MultiRegimeModel("itt", {f"V{i}": (0,) for i in range(n)})

    def test_nan_probability(self, corpus_dir):
        doc = json.loads((corpus_dir / "models" / "itt_example.json").read_text())
        next(c for c in doc["cpts"] if c["child"] == "Y")["rows"][0]["probs"] = [float("nan"), 0.5]
        with pytest.raises(ModelError, match=r"for 'Y' has a non-finite probability nan"):
            model_from_json(doc)

    def test_raw_table_length(self, corpus_dir):
        doc = json.loads((corpus_dir / "models" / "raw_inconsistent.json").read_text())
        doc["raw_regimes"][0]["probs"] = doc["raw_regimes"][0]["probs"][:-2] + [
            sum(doc["raw_regimes"][0]["probs"][-2:])
        ]
        with pytest.raises(ModelError, match="probabilities, expected"):
            model_from_json(doc)


def raw_doc(corpus_dir):
    return json.loads((corpus_dir / "models" / "raw_inconsistent.json").read_text())


class TestRawValidation:
    def test_negative_probability(self, corpus_dir):
        doc = raw_doc(corpus_dir)
        doc["raw_regimes"][0]["probs"] = [1.5, -0.5] + [0.0] * 6  # sums to 1
        with pytest.raises(ModelError, match=r"raw table for \{'F_T': '~'\} has a negative probability"):
            model_from_json(doc)

    def test_nan_probability(self, corpus_dir):
        doc = raw_doc(corpus_dir)
        doc["raw_regimes"][0]["probs"] = [float("nan"), 1.0] + [0.0] * 6
        with pytest.raises(ModelError, match=r"raw table for \{'F_T': '~'\} has a non-finite probability"):
            model_from_json(doc)

    def test_duplicate_assignment(self, corpus_dir):
        doc = raw_doc(corpus_dir)
        doc["raw_regimes"].append({"assignment": {"F_T": 0}, "probs": [0.125] * 8})
        with pytest.raises(ModelError, match=r"duplicate raw table for regime assignment \{'F_T': 0\}"):
            model_from_json(doc)

    def test_missing_assignment(self, corpus_dir):
        doc = raw_doc(corpus_dir)
        doc["regimes"].append({"name": "F_S", "target": "T*", "itt": "T"})
        for entry in doc["raw_regimes"]:
            entry["assignment"]["F_S"] = IDLE
        doc["raw_regimes"].append({"assignment": {"F_T": 0, "F_S": 1}, "probs": [0.125] * 8})
        with pytest.raises(ModelError, match=r"no raw table for regime assignment \{'F_S': 0, 'F_T': '~'\}"):
            model_from_json(doc)

    def test_different_regime_names(self, corpus_dir):
        doc = raw_doc(corpus_dir)
        doc["raw_regimes"][2]["assignment"] = {"F_T": 1, "F_S": IDLE}
        with pytest.raises(
            ModelError, match=r"raw table for \{'F_S': '~', 'F_T': 1\} is not an assignment of the regimes \['F_T'\]"
        ):
            model_from_json(doc)

    def test_joint_equals_stored_table(self, corpus_dir):
        doc = raw_doc(corpus_dir)
        m = model_from_json(doc)
        assert len(m.all_regime_assignments()) == len(doc["raw_regimes"])
        for entry in doc["raw_regimes"]:
            probs = m.joint(entry["assignment"]).probs
            assert probs.shape == (2, 2, 2)
            assert np.allclose(probs.reshape(-1), entry["probs"], rtol=0, atol=1e-12), entry["assignment"]


@pytest.mark.parametrize("mode", ["itt", "raw"])
def test_unknown_regime_domain(mode, corpus_dir):
    m = load_model(corpus_dir / "models" / ("itt_example.json" if mode == "itt" else "raw_inconsistent.json"))
    assert m.regime_domain("F_T") == (IDLE, 0, 1)
    with pytest.raises(ModelError, match="unknown regime 'F_Q'"):
        m.regime_domain("F_Q")


def loop_eci_holds(model, stmt, tol=DEFAULT_TOL):
    """Reference: the ECI verdict by nested loops that build one joint per
    (context, given value, right-regime value) and test each event's mass
    before conditioning, as the oracle did before its single pass over the
    regime assignments."""
    regime_names = set(model.regime_names)
    variables = set(model.variables)
    pins = {
        name: _coerce_state(value, model.regime_domain(name)) if name in regime_names else value
        for name, value in dict(stmt.pinned).items()
    }
    for name in stmt.left:
        if name not in variables:
            raise ModelError(f"unknown or non-stochastic left variable {name!r}")
    for name in stmt.right | stmt.given:
        if name not in variables and name not in regime_names:
            raise ModelError(f"unknown variable {name!r}")
    # Conditioning dominates: a variable on both sides is redundant on the
    # right (X _||_ Y | Y is vacuously true).
    right = stmt.right - stmt.given - frozenset(pins)
    right_regimes = sorted(right & regime_names)
    stoch_right = sorted(right - regime_names)
    stoch_given = sorted(stmt.given - regime_names)
    left = sorted(stmt.left)
    # Regimes that index the family: pinned, plain-conditioned, or unmentioned.
    context_regimes = sorted(regime_names - set(right_regimes))
    for ctx_combo in itertools.product(
        *([pins[r]] if r in pins else list(model.regime_domain(r)) for r in context_regimes)
    ):
        ctx = dict(zip(context_regimes, ctx_combo))
        for g_combo in itertools.product(*(model.states[v] for v in stoch_given)):
            given_event = dict(zip(stoch_given, g_combo))
            reference: np.ndarray | None = None
            for vary_combo in itertools.product(*(model.regime_domain(r) for r in right_regimes)):
                regime = {**ctx, **dict(zip(right_regimes, vary_combo))}
                table = model.joint(regime)
                for b_combo in itertools.product(*(model.states[v] for v in stoch_right)):
                    event = {**given_event, **dict(zip(stoch_right, b_combo))}
                    if event and prob_of(table, event) <= ZERO_TOL:
                        continue
                    dist = table.conditional(left, event)
                    if dist is None:
                        continue
                    if reference is None:
                        reference = dist
                    elif total_variation(reference, dist) > tol:
                        return False
    return True


def random_eci_statement(model, rng):
    """A seeded statement over the model's names: one or two stochastic left
    variables, every other variable on the right, in the conditioning or
    absent, and every regime on the right, plainly conditioned, pinned to a
    value of its domain (idle included) or absent."""
    names = list(model.variables)
    left_size = int(rng.integers(1, 3))
    order = rng.permutation(len(names))
    left = {names[i] for i in order[:left_size]}
    places = {"right": set(), "given": set()}
    pinned = []
    for name in [names[i] for i in order[left_size:]] + list(model.regime_names):
        where = ("right", "given", None, "pin")[int(rng.integers(4 if name in model.regime_names else 3))]
        if where == "pin":
            domain = model.regime_domain(name)
            pinned.append((name, str(domain[int(rng.integers(len(domain)))])))
        elif where is not None:
            places[where].add(name)
    return EciStatement(frozenset(left), frozenset(places["right"]), frozenset(places["given"]), tuple(pinned))


def test_eci_holds_matches_loop_reference():
    rng = np.random.default_rng(7)
    verdicts, regime_roles = [], set()
    for build in FAMILIES.values():
        for seed in range(2):
            m = build(seed)
            for _ in range(12):
                stmt = random_eci_statement(m, rng)
                regime_roles |= {("right", r) for r in stmt.right if r in m.regime_names}
                regime_roles |= {("given", r) for r in stmt.given if r in m.regime_names}
                regime_roles |= {("pin", v) for _, v in stmt.pinned}
                verdict = eci_holds(m, stmt)
                assert verdict == loop_eci_holds(m, stmt), (seed, stmt)
                verdicts.append(verdict)
    roles = {role for role, _ in regime_roles}
    assert roles == {"right", "given", "pin"} and ("pin", IDLE) in regime_roles
    assert any(verdicts) and not all(verdicts)


class TestEciHolds:
    def test_applied_treatment_screens_in_every_model(self):
        for seed in range(25):
            m = random_itt_nonignorable_model(seed)
            assert eci_holds(m, ps("Y _||_ F_T | T, T*"))

    def test_confounded_kernel_breaks_marginal_screening(self):
        m = kernel_model(lambda t, ts: 0.2 + 0.5 * ts)
        assert not eci_holds(m, ps("Y _||_ F_T | T"))

    def test_redundancy_instance(self):
        m = random_itt_nonignorable_model(1)
        assert eci_holds(m, ps("Y _||_ T* | T*"))

    def test_pinned_regime_query(self):
        m = kernel_model(lambda t, ts: 0.2 + 0.5 * ts)
        # forcing the treatment cuts T* off from T but not from Y here
        assert not eci_holds(m, ps("Y _||_ T* | F_T=1"))
        m2 = kernel_model(lambda t, ts: 0.2 + 0.5 * t, ignorable=True)
        assert eci_holds(m2, ps("Y _||_ T* | F_T=1"))

    def test_unknown_variable(self):
        with pytest.raises(ModelError):
            eci_holds(random_itt_nonignorable_model(1), ps("Q _||_ T"))


class TestConsistency:
    def test_holds_for_itt_models_by_construction(self):
        for seed in range(25):
            assert check_distributional_consistency(random_itt_nonignorable_model(seed), ["Y"], "T")

    def test_raw_violation_detected(self, corpus_dir):
        m = load_model(corpus_dir / "models" / "raw_inconsistent.json")
        assert not check_distributional_consistency(m, ["Y"], "T")

    def test_point_mass_itt(self):
        m = kernel_model(lambda t, ts: 0.3 + 0.4 * t, p_star=1.0)
        assert check_distributional_consistency(m, ["Y"], "T")

    def test_missing_itt_structure(self):
        m = random_itt_nonignorable_model(1)
        with pytest.raises(ModelError):
            check_distributional_consistency(m, ["Y"], "Q")


class TestIgnorability:
    def test_kernel_ignoring_itt(self):
        m = kernel_model(lambda t, ts: 0.2 + 0.5 * t, ignorable=True)
        assert check_ignorability(m, "Y", "T")
        # and then the regime itself is irrelevant given applied treatment
        assert eci_holds(m, ps("Y _||_ F_T | T"))

    def test_kernel_using_itt(self):
        m = kernel_model(lambda t, ts: 0.2 + 0.3 * t + 0.4 * ts)
        assert not check_ignorability(m, "Y", "T")

    def test_point_mass_itt_is_ignorable(self):
        m = kernel_model(lambda t, ts: 0.2 + 0.3 * t + 0.4 * ts, p_star=1.0)
        assert check_ignorability(m, "Y", "T")


class TestSufficientCovariate:
    def test_assignment_through_covariate_only(self):
        for seed in range(10):
            assert check_sufficient_covariate(random_suffcov_model(seed), "X", "Y", "T")

    def test_hidden_cause_breaks_it(self):
        # the response kernel cites the intention-to-treat variable directly,
        # so conditioning on X alone cannot restore ignorability
        assert not check_sufficient_covariate(
            _with_covariate(seed=4, response_uses_itt=True), "X", "Y", "T"
        )

    def test_randomised_assignment_any_covariate(self):
        assert check_sufficient_covariate(_with_covariate(seed=5, randomised=True), "X", "Y", "T")


def _with_covariate(seed, response_uses_itt=False, randomised=False):
    rng = np.random.default_rng(seed)
    states = {v: BIN for v in ("X", "T*", "T", "Y")}
    y_parents = ("X", "T", "T*") if response_uses_itt else ("X", "T")
    t_star_parents = () if randomised else ("X",)
    cpts = {
        "X": random_cpt(rng, "X", (), states),
        "T*": random_cpt(rng, "T*", t_star_parents, states),
        "Y": random_cpt(rng, "Y", y_parents, states),
    }
    return MultiRegimeModel("itt", states, cpts=cpts, regimes={"F_T": "T"}, itt_of={"T": "T*"})


class TestInterventionalQuery:
    def test_matches_forced_marginal(self):
        m = kernel_model(lambda t, ts: 0.2 + 0.5 * t, ignorable=True)
        q = interventional_query(m, "Y", {"F_T": 1})
        assert q[1] == pytest.approx(0.7)

    def test_all_idle_is_observational(self):
        m = random_itt_nonignorable_model(9)
        idle = {r: IDLE for r in m.regime_names}
        q = interventional_query(m, "Y", idle)
        marg = m.joint(idle).marginal(["Y"])
        assert q[1] == pytest.approx(float(marg.probs[1]))

    def test_point_mass_cpts(self):
        m = kernel_model(lambda t, ts: float(t), ignorable=True)
        assert interventional_query(m, "Y", {"F_T": 1})[1] == pytest.approx(1.0)


class TestGFormula:
    def test_matches_interventional_on_random_models(self):
        for seed in range(20):
            m = random_two_stage_model(seed)
            for x0, x1 in itertools.product(BIN, BIN):
                g = gformula_eval(m, ("Y", 1), ("X0", x0), ("X1", x1), "Z")
                q = interventional_query(m, "Y", {"F_X0": x0, "F_X1": x1})[1]
                assert abs(g - q) <= 1e-9

    def test_counterexample_with_extra_confounding(self):
        m = random_two_stage_model(0, extra_confounding=True)
        worst = max(
            abs(
                gformula_eval(m, ("Y", 1), ("X0", a), ("X1", b), "Z")
                - interventional_query(m, "Y", {"F_X0": a, "F_X1": b})[1]
            )
            for a, b in itertools.product(BIN, BIN)
        )
        assert worst > 1e-3

    def test_positivity_violation(self):
        m = random_two_stage_model(0)
        m = replace(m, cpts={**m.cpts, "X0*": Cpt("X0*", (), {(): (0.0, 1.0)})})
        # X0=0 never happens observationally
        with pytest.raises(ModelError, match="positivity"):
            gformula_eval(m, ("Y", 1), ("X0", 0), ("X1", 0), "Z")


class TestMargin:
    """A query reads the table of its names' ancestral set, not the full joint."""

    @pytest.mark.parametrize("name", ["Q", "F_T"])
    def test_interventional_query_rejects_unknown_names(self, corpus_dir, name):
        m = load_model(corpus_dir / "models" / "itt_example.json")
        with pytest.raises(ModelError) as exc:
            interventional_query(m, name, {"F_T": IDLE})
        assert str(exc.value) == f"unknown variable {name!r}"

    def test_marginal_rejects_unknown_names(self):
        j = random_itt_nonignorable_model(3).joint({"F_T": IDLE})
        with pytest.raises(ModelError, match="unknown variable 'Q'"):
            j.marginal(["Y", "Q"])

    @pytest.mark.parametrize(
        "query, message",
        [
            (lambda m: gformula_eval(m, ("Y", 7), ("X0", 0), ("X1", 0), "Q"), "7 is not a state of 'Y'"),
            (lambda m: gformula_eval(m, ("Q", 1), ("X0", 0), ("X1", 0), "R"), "unknown variable 'Q'"),
            (lambda m: gformula_eval(m, ("Y", 1), ("X0", 7), ("X1", 0), "Q"), "unknown variable 'Q'"),
            (lambda m: gformula_eval(m, ("Y", 1), ("X0", 0), ("X1", 7), "Z"), "7 is not a state of 'X1'"),
            (lambda m: check_distributional_consistency(m, ["X1", "Zz"], "X1"),
             "'X1' is both a target and in the conditioning event"),
            (lambda m: check_distributional_consistency(m, ["R", "Q"], "X1"), "unknown variable 'Q'"),
            (lambda m: check_distributional_consistency(m, ["X1*"], "X1"),
             "'X1*' is both a target and in the conditioning event"),
            (lambda m: ett(m, "X1*", "X1"), "'X1*' is both a target and in the conditioning event"),
            (lambda m: ace(m, "F_X1", "X1"), "unknown variable 'F_X1'"),
            (lambda m: interventional_query(m, "Q", {}), "regime assignment must cover every regime exactly once"),
        ],
    )
    def test_errors_name_the_first_fault(self, query, message):
        with pytest.raises(ModelError) as exc:
            query(random_two_stage_model(0))
        assert str(exc.value) == message

    @pytest.mark.parametrize("build", FAMILIES.values(), ids=list(FAMILIES))
    def test_answers_equal_full_joint_answers(self, build):
        rng = np.random.default_rng(5)
        for seed in range(2):
            m = build(seed)
            full = full_joint_model(m)
            queries = [
                (interventional_query, y, regime) for y in m.variables for regime in m.all_regime_assignments()
            ]
            for action in m.regime_of:
                queries += [(f, y, action) for f in (ace, ett) for y in m.variables]
                queries += [(check_distributional_consistency, [y], action) for y in m.variables]
            for _ in range(6 if len(m.variables) >= 4 else 0):  # gformula_eval takes four different variables
                y, x0, x1, z = rng.permutation(m.variables)[:4].tolist()
                queries.append((gformula_eval, (y, m.states[y][0]), (x0, m.states[x0][-1]), (x1, m.states[x1][0]), z))
            queries += [(eci_holds, random_eci_statement(m, rng)) for _ in range(12)]
            for f, *args in queries:
                got, want = outcome(f, m, *args), outcome(f, full, *args)
                if isinstance(want, dict):
                    assert got.keys() == want.keys() and all(abs(got[s] - want[s]) <= 1e-12 for s in got), args
                elif isinstance(want, float):
                    assert abs(got - want) <= 1e-12, (f.__name__, args)
                else:
                    assert got == want, (f.__name__, args)
            assert m._margins, seed  # some query read a proper ancestral set
            assert m._margins.keys() == set(m._ancestral_sets.values()) - {m.variables}, seed  # one model per set
            assert "_margins" not in vars(full)

    @pytest.mark.parametrize("build", JOINT_SHAPES.values(), ids=list(JOINT_SHAPES))
    def test_ancestral_model_is_the_checked_model_of_its_cpts(self, build):
        m = build(0)
        for y in m.variables:
            keep = m.dag.ancestors([y])
            idle = dict.fromkeys(m.regime_names, IDLE)
            m.margin(idle, [y])
            variables = m._ancestral_sets[(y,)]
            if len(keep) == len(m.dag.nodes):
                assert variables == m.variables
                continue
            sub = m._margins[variables]
            checked = MultiRegimeModel(
                "itt",
                {v: s for v, s in m.states.items() if v in keep},
                latent=m.latent & keep,
                cpts={v: cpt for v, cpt in m.cpts.items() if v in keep},
                regimes={r: t for r, t in m.regimes.items() if r in keep},
                itt_of={t: s for t, s in m.itt_of.items() if t in keep},
            )
            assert sub == checked and set(sub.variables) == set(checked.variables) and sub.dag == checked.dag
            order = [checked.variables.index(v) for v in sub.variables]
            for regime in checked.all_regime_assignments():
                want = checked.joint(regime).probs.transpose(order)
                assert np.allclose(sub.joint(regime).probs, want, rtol=0, atol=1e-15), (y, regime)
                assert m.margin({**idle, **regime}, [y]) is sub.joint(regime)

    def test_padding_descendants_of_the_outcome_are_never_built(self):
        base = random_two_stage_model(0)
        rng = np.random.default_rng(1)
        pads = [f"P{i}" for i in range(16)]
        states = {**base.states, **{p: BIN for p in pads}}
        cpts = {**base.cpts, **{p: random_cpt(rng, p, (parent,), states) for parent, p in zip(["Y", *pads], pads)}}
        m = replace(base, states=states, cpts=cpts)
        assert len(m.variables) == 23 and all(len(s) == 2 for s in m.states.values())
        stmt = ps("Y _||_ X0, F_X0 | Z, X1")

        def queries(model):
            return [
                *(interventional_query(model, "Y", regime) for regime in model.all_regime_assignments()),
                gformula_eval(model, ("Y", 1), ("X0", 0), ("X1", 1), "Z"),
                ace(model, "Y", "X1"),
                ett(model, "Y", "X1"),
                check_distributional_consistency(model, ["Y"], "X1"),
                eci_holds(model, stmt),
            ]

        start = time.perf_counter()
        got = queries(m)
        elapsed = time.perf_counter() - start
        assert "_shared_product" not in vars(m) and "_joint_cache" not in vars(m)  # no table over every variable
        assert max(len(sub.variables) for sub in m._margins.values()) == len(base.variables)
        for a, b in zip(got, queries(base)):
            assert a == pytest.approx(b, rel=0, abs=1e-12)
        assert elapsed <= 0.5


def full_joint_model(model):
    """A copy of `model` whose every margin is its full joint table, so that a
    query on it is the same computation on `joint()`."""
    full = replace(model)
    object.__setattr__(full, "margin", lambda regime, names: MultiRegimeModel.margin(full, regime, full.variables))
    return full


def outcome(f, *args):
    """f(*args), or the message of the ModelError it raises."""
    try:
        return f(*args)
    except ModelError as exc:
        return str(exc)


class TestEtt:
    def test_additive_kernel(self):
        m = kernel_model(lambda t, ts: 0.1 + 0.3 * t + 0.4 * ts)
        assert ett(m, "Y", "T") == pytest.approx(0.3)

    def test_ignorable_ett_equals_ace(self):
        for seed in range(10):
            m = random_itt_ignorable_model(seed)
            means = {t: m.joint({"F_T": t}).expectation("Y") for t in BIN}
            assert ett(m, "Y", "T") == pytest.approx(means[1] - means[0], abs=1e-12)

    def test_null_effect(self):
        m = kernel_model(lambda t, ts: 0.3 + 0.2 * ts)
        assert ett(m, "Y", "T") == pytest.approx(0.0)

    def test_zero_probability_itt(self):
        m = kernel_model(lambda t, ts: 0.5, p_star=0.0)
        with pytest.raises(ModelError):
            ett(m, "Y", "T")

    def test_outcome_states_must_be_numeric(self):
        m = kernel_model(lambda t, ts: 0.5)
        m = replace(m, states={**m.states, "Y": ("lo", "hi")})
        with pytest.raises(ModelError, match="states of 'Y' are not numeric; no mean exists"):
            ett(m, "Y", "T")


class TestAce:
    def test_additive_kernel(self):
        m = kernel_model(lambda t, ts: 0.1 + 0.3 * t + 0.4 * ts)
        assert ace(m, "Y", "T") == pytest.approx(0.3)

    @pytest.mark.parametrize("build", [random_itt_ignorable_model, random_itt_nonignorable_model])
    def test_difference_of_interventional_means(self, build):
        for seed in range(5):
            m = build(seed)
            means = {t: m.joint({"F_T": t}).expectation("Y") for t in BIN}
            assert ace(m, "Y", "T") == means[1] - means[0]

    def test_action_must_be_binary(self):
        rng = np.random.default_rng(0)
        states = {"T*": (0, 1, 2), "T": (0, 1, 2), "Y": BIN}
        cpts = {"T*": random_cpt(rng, "T*", (), states), "Y": random_cpt(rng, "Y", ("T",), states)}
        m = MultiRegimeModel("itt", states, cpts=cpts, regimes={"F_T": "T"}, itt_of={"T": "T*"})
        with pytest.raises(ModelError, match="binary"):
            ace(m, "Y", "T")

    def test_action_without_regime(self):
        with pytest.raises(ModelError, match="no regime controls 'Y'"):
            ace(kernel_model(lambda t, ts: 0.5), "T", "Y")


COVARIATE = {"morning": 0.5, "evening": 0.5}
RESPONSE = {
    ("morning", 0): {1.0: 0.6, 0.0: 0.4},
    ("morning", 1): {1.0: 0.9, 0.0: 0.1},
    ("evening", 0): {1.0: 0.2, 0.0: 0.8},
    ("evening", 1): {1.0: 0.5, 0.0: 0.5},
}
ASSIGNMENT = {"morning": 0.5, "evening": 0.5}
SPEC = study_model(covariate=COVARIATE, assignment=ASSIGNMENT, response=RESPONSE)


class TestSimulateStudy:
    def test_deterministic_given_seed(self):
        assert simulate_study(SPEC, 5000, 11) == simulate_study(SPEC, 5000, 11)

    def test_interventional_means_exact(self):
        r = simulate_study(SPEC, 10, 0)
        assert r.interventional_means[1] == pytest.approx(0.7)
        assert r.interventional_means[0] == pytest.approx(0.4)

    def test_single_unit_leaves_one_arm_empty(self):
        r = simulate_study(SPEC, 1, 3)
        assert (r.treated_mean is None) != (r.control_mean is None)

    def test_n_must_be_positive(self):
        with pytest.raises(ModelError):
            simulate_study(SPEC, 0, 1)

    def test_observational_arm_mean(self):
        assert arm_mean(SPEC, 1) == pytest.approx(0.7)
        biased = study_model(COVARIATE, {"morning": 0.2, "evening": 0.8}, RESPONSE)
        assert arm_mean(biased, 1) == pytest.approx((0.2 * 0.9 + 0.8 * 0.5) / 1.0)


def study_dicts(doc):
    """A study spec document's covariate, assignment and response dicts, read by hand."""
    response = {(r["x"], r["t"]): {float(y): p for y, p in r["dist"].items()} for r in doc["response"]}
    return doc["covariate"], doc["assignment"], response


def corpus_study(name):
    return json.loads((CORPUS / "models" / f"study_{name}.json").read_text())


def with_sorted_outcomes(study):
    """`study` with Y's states sorted, as study models listed them before Y
    kept the order in which its rows first name the outcomes."""
    ys = study.states["Y"]
    order = sorted(range(len(ys)), key=ys.__getitem__)
    rows = {k: tuple(p[i] for i in order) for k, p in study.cpts["Y"].table.items()}
    y = Cpt("Y", study.cpts["Y"].parents, rows)
    return replace(study, states={**study.states, "Y": tuple(ys[i] for i in order)}, cpts={**study.cpts, "Y": y})


def reference_simulate(covariate, assignment, response, n, seed):
    """Reference: the group-wise sampler over a study's three dicts that
    `simulate_study` used before it drew from the model's CPTs, with the
    exact means of the model whose outcomes are sorted."""
    sorted_study = with_sorted_outcomes(study_model(covariate, assignment, response))
    means = {t: interventional_mean(sorted_study, t) for t in (0, 1)}
    rng = np.random.default_rng(seed)
    xs = list(covariate)
    px = np.array([covariate[x] for x in xs], dtype=float)
    x_idx = rng.choice(len(xs), size=n, p=px / px.sum())
    assign = np.array([assignment[x] for x in xs], dtype=float)
    t = (rng.random(n) < assign[x_idx]).astype(int)
    y = np.empty(n)
    for i, x in enumerate(xs):
        for arm in (0, 1):
            mask = (x_idx == i) & (t == arm)
            count = int(mask.sum())
            if count == 0:
                continue
            dist = response[(x, arm)]
            values = np.array(list(dist), dtype=float)
            probs = np.array([dist[v] for v in dist], dtype=float)
            y[mask] = values[rng.choice(len(values), size=count, p=probs / probs.sum())]

    def stats(arm):
        if arm.size == 0:
            return None, None
        se = float(arm.std(ddof=1) / np.sqrt(arm.size)) if arm.size > 1 else None
        return float(arm.mean()), se

    (t_mean, t_se), (c_mean, c_se) = stats(y[t == 1]), stats(y[t == 0])
    return StudyResult(n, t_mean, c_mean, t_se, c_se, means)


@pytest.mark.parametrize("name", ["SPEC", "randomized", "confounded"])
@pytest.mark.parametrize("n, seed", [(100_000, 7), (5000, 11), (37, 0), (1, 3)])
def test_simulate_study_keeps_the_reference_stream(name, n, seed):
    """Draws, standard errors and means all equal the reference's, floats
    included, so the README's `simulate` example (n=100000, seed 7) keeps its output."""
    if name == "SPEC":
        study, dicts = SPEC, (COVARIATE, ASSIGNMENT, RESPONSE)
    else:
        study, dicts = study_from_json(corpus_study(name)), study_dicts(corpus_study(name))
    assert simulate_study(study, n, seed) == reference_simulate(*dicts, n, seed)


def loop_interventional_mean(covariate, assignment, response, t):
    """Reference: E(Y | F_T=t) summed by hand over a study's dicts, as
    study specs did before they compiled to an ITT model."""
    return sum(px * sum(y * py for y, py in response[(x, t)].items()) for x, px in covariate.items())


def loop_arm_mean(covariate, assignment, response, t):
    """Reference: E(Y | T=t) in the observational regime, summed by hand."""
    weights = {x: px * (assignment[x] if t == 1 else 1.0 - assignment[x]) for x, px in covariate.items()}
    total = sum(weights.values())
    return sum(w / total * sum(y * py for y, py in response[(x, t)].items()) for x, w in weights.items())


def random_study(seed):
    """The covariate, assignment and response dicts of a study with 1-4
    covariate values; each response row is over its own subset of four
    outcomes, so the compiled response pads missing outcomes with 0."""
    rng = np.random.default_rng(seed)
    xs = [f"x{i}" for i in range(rng.integers(1, 5))]
    outcomes = [-1.0, 0.0, 1.0, 2.5]
    response = {}
    for x in xs:
        for t in (0, 1):
            ys = rng.choice(outcomes, size=rng.integers(1, 5), replace=False)
            response[(x, t)] = dict(zip(map(float, ys), rng.dirichlet(np.ones(len(ys))).tolist()))
    covariate = dict(zip(xs, rng.dirichlet(np.ones(len(xs))).tolist()))
    return covariate, {x: float(rng.uniform(0.05, 0.95)) for x in xs}, response


def test_study_means_match_hand_sums():
    studies = [(study_model(*dicts), dicts) for dicts in map(random_study, range(40))]
    studies += [
        (study_from_json(corpus_study(name)), study_dicts(corpus_study(name))) for name in ("randomized", "confounded")
    ]
    for study, dicts in studies:
        for t in (0, 1):
            assert interventional_mean(study, t) == pytest.approx(
                loop_interventional_mean(*dicts, t), rel=0, abs=1e-12
            )
            assert arm_mean(study, t) == pytest.approx(loop_arm_mean(*dicts, t), rel=0, abs=1e-12)


MODEL_DOCUMENTS = sorted(
    path.name for path in (CORPUS / "models").glob("*.json") if "mode" in json.loads(path.read_text())
)


def assert_built_from(model: MultiRegimeModel, doc: dict) -> None:
    """`model` holds exactly the variables, regimes, CPTs and raw tables that
    the model document `doc` spells out, and nothing more."""
    variables, regimes = doc["variables"], doc.get("regimes", [])
    assert model.mode == doc["mode"]
    assert list(model.states.items()) == [(v["name"], tuple(v["states"])) for v in variables]
    assert model.regimes == {r["name"]: r["target"] for r in regimes}
    assert model.itt_of == {r["target"]: r["itt"] for r in regimes if "itt" in r}
    if doc["mode"] == "itt":
        assert model.latent == {v["name"] for v in variables if v.get("latent")}
        assert {n.name for n in model.dag.nodes if n.deterministic} == {
            v["name"] for v in variables if v.get("deterministic")
        }
        rows = {c["child"]: {tuple(r["parents"]): tuple(r["probs"]) for r in c["rows"]} for c in doc["cpts"]}
        assert model.cpts == {c["child"]: Cpt(c["child"], tuple(c["parents"]), rows[c["child"]]) for c in doc["cpts"]}
        assert model.raw_regimes == {}
    else:
        assert model.latent == frozenset() and model.cpts == {}
        tables = {tuple(sorted(t["assignment"].items())): t["probs"] for t in doc["raw_regimes"]}
        assert {key: table.tolist() for key, table in model.raw_regimes.items()} == tables


class TestJson:
    @pytest.mark.parametrize("name", MODEL_DOCUMENTS)
    def test_corpus_document_loads_exactly(self, corpus_dir, name):
        doc = json.loads((corpus_dir / "models" / name).read_text())
        assert_built_from(load_model(corpus_dir / "models" / name), doc)

    def test_random_two_stage_document_loads_exactly(self, corpus_dir):
        doc = json.loads((corpus_dir / "models" / "two_stage.json").read_text())
        rng = np.random.default_rng(13)
        for cpt in doc["cpts"]:
            for row in cpt["rows"]:
                row["probs"] = rng.dirichlet(np.ones(len(row["probs"]))).tolist()
        assert_built_from(model_from_json(json.loads(json.dumps(doc))), doc)

    def test_itt_without_regimes(self):
        doc = {
            "mode": "itt",
            "variables": [{"name": "X", "states": [0, 1]}],
            "cpts": [{"child": "X", "parents": [], "rows": [{"parents": [], "probs": [0.25, 0.75]}]}],
        }
        m = model_from_json(doc)
        assert m.regime_names == ()
        assert m.joint({}).probs.tolist() == [0.25, 0.75]
        assert_built_from(m, doc)

    def test_unknown_mode(self):
        with pytest.raises(ModelError):
            model_from_json({"mode": "nope", "variables": []})

    def test_study_spec_from_json(self, corpus_dir):
        doc = json.loads((corpus_dir / "models" / "study_randomized.json").read_text())
        assert study_from_json(doc) == SPEC

    def test_study_spec_missing_key_is_named(self, corpus_dir):
        doc = json.loads((corpus_dir / "models" / "study_randomized.json").read_text())
        del doc["response"]
        with pytest.raises(ModelError, match="study spec document is missing required key 'response'"):
            study_from_json(doc)

    def test_study_spec_repeated_response_row_is_named(self, corpus_dir):
        doc = json.loads((corpus_dir / "models" / "study_randomized.json").read_text())
        doc["response"].append({"x": "morning", "t": 0, "dist": {"1": 0.0, "0": 1.0}})
        with pytest.raises(ModelError, match="response row for x='morning', t=0 is listed twice"):
            study_from_json(doc)

    def test_fixture_loads(self, corpus_dir):
        m = load_model(corpus_dir / "models" / "itt_example.json")
        assert ett(m, "Y", "T") == pytest.approx(0.3)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_random_models_are_coherent(seed):
    m = random_itt_nonignorable_model(seed)
    idle = m.joint({"F_T": IDLE})
    assert idle.probs.min() >= 0
    assert idle.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert eci_holds(m, ps("Y _||_ F_T | T, T*"))


def test_total_variation():
    assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)
    assert total_variation(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
