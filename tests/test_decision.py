import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtcausal.decision import (
    DecisionError,
    DecisionProblem,
    FiniteDist,
    LognormalDist,
    LognormalEffects,
    NormalPair,
    ace,
    load_problem,
    lognormal_effects,
    problem_from_json,
    solve,
)

from conftest import finite_dist


def umbrella_problem(p_rain: float) -> DecisionProblem:
    dist = finite_dist({"wet": p_rain, "dry": 1.0 - p_rain})
    loss = {("wet", "leave"): 1.0, ("dry", "leave"): 0.0, ("wet", "take"): 0.0, ("dry", "take"): 0.0}
    return DecisionProblem(("take", "leave"), {"take": dist, "leave": dist}, loss)


@pytest.mark.parametrize(
    "record, change, message",
    [
        (FiniteDist(((1, 1.0),)), {"probs": ((1, 0.5),)}, "probabilities do not sum to 1"),
        (LognormalDist(0.0, 1.0), {"sigma2": 0.0}, "sigma2 must be positive"),
        (NormalPair(0.0, 0.0, 1.0), {"mu1": math.inf}, "mu1 must be finite, not inf"),
        (umbrella_problem(0.5), {"actions": ()}, "no actions"),
    ],
    ids=["finite", "lognormal", "normal-pair", "problem"],
)
def test_replace_runs_the_checks(record, change, message):
    with pytest.raises(DecisionError, match=f"^{message}$"):
        record._replace(**change)


class TestFiniteDist:
    def test_probabilities_validated(self):
        with pytest.raises(DecisionError):
            finite_dist({"a": 0.7, "b": 0.7})
        with pytest.raises(DecisionError):
            finite_dist({"a": -0.1, "b": 1.1})

    def test_nan_probability(self):
        with pytest.raises(DecisionError, match="non-finite value nan"):
            finite_dist({0: float("nan"), 1: 0.5})

    def test_duplicate_outcome(self):
        with pytest.raises(DecisionError, match=r"^duplicate outcome 'a'$"):
            FiniteDist((("a", 0.5), ("a", 0.5)))
        with pytest.raises(DecisionError, match=r"^duplicate outcome 1$"):
            FiniteDist(((1, 0.5), (1, 0.5)))

    def test_mean_requires_numeric_outcomes(self):
        with pytest.raises(DecisionError, match="numeric"):
            finite_dist({"wet": 0.3, "dry": 0.7}).mean()

    def test_numeric_mean(self):
        assert finite_dist({0: 0.25, 4: 0.75}).mean() == pytest.approx(3.0)


class TestDecisionProblem:
    def test_duplicate_action(self):
        dist = finite_dist({0: 1.0})
        with pytest.raises(DecisionError, match=r"^duplicate action 'a'$"):
            DecisionProblem(("a", "b", "a"), {"a": dist, "b": dist}, {})

    def test_distribution_for_undeclared_action(self):
        dist = finite_dist({0: 1.0})
        with pytest.raises(DecisionError, match=r"^distribution for undeclared action 'c'$"):
            DecisionProblem(("a", "b"), {"a": dist, "b": dist, "c": dist}, {})

    def test_loss_row_for_undeclared_action(self):
        dist = finite_dist({1: 1.0})
        with pytest.raises(DecisionError, match=r"^loss row for y=1, a='c' names an undeclared action$"):
            DecisionProblem(("a", "b"), {"a": dist, "b": dist}, {(1, "a"): 0.0, (1, "c"): 5.0})


class TestSolve:
    def test_umbrella_expected_losses(self):
        sol = solve(umbrella_problem(0.3))
        assert sol.expected_loss["leave"] == pytest.approx(0.3)
        assert sol.expected_loss["take"] == pytest.approx(0.0)
        assert sol.optimal_action == "take"

    def test_umbrella_zero_rain_breaks_tie_lexicographically(self):
        sol = solve(umbrella_problem(0.0))
        assert sol.expected_loss["leave"] == sol.expected_loss["take"] == 0.0
        assert sol.optimal_action == "leave"

    def test_callable_loss(self):
        dist = finite_dist({0: 0.5, 2: 0.5})
        loss = {(y, a): y * (2 if a == "b" else 1) for y in (0, 2) for a in ("a", "b")}
        sol = solve(DecisionProblem(("a", "b"), {"a": dist, "b": dist}, loss))
        assert sol.expected_loss == {"a": 1.0, "b": 2.0}
        assert sol.optimal_action == "a"

    def test_lognormal_with_loss_table_is_refused(self):
        lognormal = {"type": "lognormal", "sigma2": 1}
        prob = problem_from_json(
            {
                "actions": ["a", "b"],
                "distributions": {"a": {**lognormal, "mu": 0}, "b": {**lognormal, "mu": 1}},
                "loss": [{"y": 1, "a": "a", "loss": 100}],
            }
        )
        with pytest.raises(DecisionError, match="lognormal outcome of action 'a' has no expected loss"):
            solve(prob)

    def test_missing_distribution(self):
        with pytest.raises(DecisionError):
            DecisionProblem(("a",), {}, {})

    def test_undefined_loss_entry(self):
        dist = finite_dist({"x": 1.0})
        prob = DecisionProblem(("a",), {"a": dist}, {})
        with pytest.raises(DecisionError, match="undefined"):
            solve(prob)

    def test_nonfinite_loss(self):
        dist = finite_dist({"x": 1.0})
        prob = DecisionProblem(("a",), {"a": dist}, {("x", "a"): float("inf")})
        with pytest.raises(DecisionError, match="finite"):
            solve(prob)


class TestAce:
    def test_table_difference(self):
        p1 = finite_dist({0: 0.1, 1: 0.9})
        p0 = finite_dist({0: 0.6, 1: 0.4})
        assert ace(p1, p0) == pytest.approx(0.5)

    def test_lognormal_difference(self):
        assert ace(LognormalDist(1.0, 0.2), LognormalDist(0.0, 0.2)) == pytest.approx(
            math.exp(1.1) - math.exp(0.1)
        )

    @given(
        m1=st.floats(-2, 2), m0=st.floats(-2, 2),
        p=st.floats(0.01, 0.99), q=st.floats(0.01, 0.99),
    )
    @settings(max_examples=50, deadline=None)
    def test_antisymmetry(self, m1, m0, p, q):
        p1 = finite_dist({m1: p, m1 + 1: 1 - p})
        p0 = finite_dist({m0: q, m0 + 2: 1 - q})
        assert ace(p1, p0) == pytest.approx(-ace(p0, p1), abs=1e-12)


class TestLognormalEffects:
    def test_closed_forms(self):
        eff = lognormal_effects(NormalPair(mu1=0.8, mu0=0.2, sigma2=0.5))
        assert eff.ace_y == pytest.approx(0.6)
        assert eff.ace_z == pytest.approx(math.exp(0.25) * (math.exp(0.8) - math.exp(0.2)))
        assert eff.ratio == pytest.approx(math.exp(0.6))
        assert eff.var_z_1 == pytest.approx(math.exp(1.6) * (math.exp(1.0) - math.exp(0.5)))
        assert eff.var_z_0 == pytest.approx(math.exp(0.4) * (math.exp(1.0) - math.exp(0.5)))

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(42)
        pair = NormalPair(0.5, -0.3, 0.4)
        eff = lognormal_effects(pair)
        n = 200_000
        z1 = np.exp(rng.normal(pair.mu1, math.sqrt(pair.sigma2), n))
        z0 = np.exp(rng.normal(pair.mu0, math.sqrt(pair.sigma2), n))
        assert eff.ace_z == pytest.approx(float(z1.mean() - z0.mean()), abs=5 * 3e-3)
        assert eff.var_z_1 == pytest.approx(float(z1.var()), rel=0.05)

    def test_zero_effect(self):
        eff = lognormal_effects(NormalPair(0.3, 0.3, 1.0))
        assert eff.ace_y == 0.0 and eff.ace_z == pytest.approx(0.0) and eff.ratio == pytest.approx(1.0)
        assert eff.var_z_1 == pytest.approx(eff.var_z_0)

    def test_sigma_must_be_positive(self):
        with pytest.raises(DecisionError):
            NormalPair(1.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: NormalPair(0.0, 0.0, math.nan), "sigma2 must be finite, not nan"),
            (lambda: NormalPair(math.inf, 0.0, 1.0), "mu1 must be finite, not inf"),
            (lambda: LognormalDist(math.nan, 1.0), "mu must be finite, not nan"),
            (lambda: LognormalDist(0.0, -math.inf), "sigma2 must be finite, not -inf"),
        ],
        ids=["pair-sigma2", "pair-mu1", "dist-mu", "dist-sigma2"],
    )
    def test_parameters_must_be_finite(self, build, message):
        with pytest.raises(DecisionError, match=message):
            build()

    @pytest.mark.parametrize("mu1, sigma2", [(1000.0, 1.0), (354.0, 354.0)])  # math.exp overflows; a product does
    def test_overflow_names_the_parameters(self, mu1, sigma2):
        with pytest.raises(DecisionError, match=f"mu1={mu1}, mu0=0.0, sigma2={sigma2} overflow a float"):
            lognormal_effects(NormalPair(mu1, 0.0, sigma2))

    def test_mean_overflow_names_the_parameters(self):
        with pytest.raises(DecisionError, match="mean for mu=1000.0, sigma2=1.0 overflows a float"):
            LognormalDist(1000.0, 1.0).mean()


class TestArgminInvariance:
    @given(
        seed=st.integers(0, 10**6),
        shift=st.floats(-5, 5),
        scale=st.floats(0.1, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_positive_loss_transform_keeps_argmin(self, seed, shift, scale):
        rng = np.random.default_rng(seed)
        outcomes = [0, 1, 2]
        actions = ("a", "b", "c")
        dists = {
            a: finite_dist(dict(zip(outcomes, rng.dirichlet(np.ones(3)).tolist())))
            for a in actions
        }
        base = {(y, a): float(rng.normal()) for y in outcomes for a in actions}
        moved = {k: scale * v + shift for k, v in base.items()}
        sol1 = solve(DecisionProblem(actions, dists, base))
        sol2 = solve(DecisionProblem(actions, dists, moved))
        # an exact tie can flip under floating-point rescaling; require the
        # chosen action to still be within rounding of optimal
        best2 = min(sol2.expected_loss.values())
        assert sol2.expected_loss[sol1.optimal_action] == pytest.approx(best2, abs=1e-9)


def assert_problem_built_from(problem: DecisionProblem, doc: dict) -> None:
    """`problem` holds exactly the actions, distributions and loss rows that
    the decision-problem document `doc` spells out."""

    def dist(d):
        if d["type"] == "lognormal":
            return LognormalDist(d["mu"], d["sigma2"])
        return FiniteDist(tuple((row["y"], row["p"]) for row in d["rows"]))

    assert problem.actions == tuple(doc["actions"])
    assert problem.hypothetical == {a: dist(d) for a, d in doc["distributions"].items()}
    assert problem.loss == {(row["y"], row["a"]): row["loss"] for row in doc["loss"]}


class TestJson:
    def test_umbrella_loads_exactly(self, corpus_dir):
        doc = json.loads((corpus_dir / "models" / "umbrella.json").read_text())
        assert_problem_built_from(load_problem(corpus_dir / "models" / "umbrella.json"), doc)

    def test_fixture_loads(self, corpus_dir):
        prob = load_problem(corpus_dir / "models" / "umbrella.json")
        sol = solve(prob)
        assert sol.optimal_action == "take"
        assert sol.expected_loss["leave"] == pytest.approx(0.3)

    def test_lognormal_problem_loads_exactly(self):
        doc = {
            "actions": ["t", "c"],
            "distributions": {
                "t": {"type": "lognormal", "mu": 1.0, "sigma2": 0.3},
                "c": {"type": "lognormal", "mu": 0.2, "sigma2": 0.3},
            },
            "loss": [],
        }
        assert_problem_built_from(problem_from_json(doc), doc)

    def test_missing_key_is_named(self):
        with pytest.raises(DecisionError, match="decision problem document is missing required key 'distributions'"):
            problem_from_json({"actions": ["a"], "loss": []})

    def test_repeated_key_is_named(self, corpus_dir, tmp_path):
        text = json.dumps(json.loads((corpus_dir / "models" / "umbrella.json").read_text()))
        path = tmp_path / "problem.json"
        path.write_text(text.replace('"actions": [', '"actions": ["take"], "actions": [', 1))
        with pytest.raises(ValueError, match="JSON object repeats the key 'actions'"):
            load_problem(path)

    def test_repeated_loss_row_is_named(self, corpus_dir):
        doc = json.loads((corpus_dir / "models" / "umbrella.json").read_text())
        doc["loss"].append({"y": "wet", "a": "leave", "loss": 5.0})
        with pytest.raises(DecisionError, match="loss row for y='wet', a='leave' is listed twice"):
            problem_from_json(doc)

    def test_bad_distribution_doc(self):
        with pytest.raises(DecisionError):
            problem_from_json({"actions": ["a"], "distributions": {"a": {"type": "nope"}}, "loss": []})
