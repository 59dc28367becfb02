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
    plugin_estimate,
    plugin_mean,
    prior_predictive,
    problem_from_json,
    problem_to_json,
    solve,
)


def umbrella_problem(p_rain: float) -> DecisionProblem:
    dist = FiniteDist.of({"wet": p_rain, "dry": 1.0 - p_rain})
    loss = {("wet", "leave"): 1.0, ("dry", "leave"): 0.0, ("wet", "take"): 0.0, ("dry", "take"): 0.0}
    return DecisionProblem(("take", "leave"), {"take": dist, "leave": dist}, loss)


class TestFiniteDist:
    def test_probabilities_validated(self):
        with pytest.raises(DecisionError):
            FiniteDist.of({"a": 0.7, "b": 0.7})
        with pytest.raises(DecisionError):
            FiniteDist.of({"a": -0.1, "b": 1.1})

    def test_nan_probability(self):
        with pytest.raises(DecisionError, match="non-finite value nan"):
            FiniteDist.of({0: float("nan"), 1: 0.5})

    def test_duplicate_outcome(self):
        with pytest.raises(DecisionError, match="duplicate"):
            FiniteDist((("a", 0.5), ("a", 0.5)))

    def test_mean_requires_numeric_outcomes(self):
        with pytest.raises(DecisionError, match="numeric"):
            FiniteDist.of({"wet": 0.3, "dry": 0.7}).mean()

    def test_numeric_mean(self):
        assert FiniteDist.of({0: 0.25, 4: 0.75}).mean() == pytest.approx(3.0)


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
        dist = FiniteDist.of({0: 0.5, 2: 0.5})
        prob = DecisionProblem(("a", "b"), {"a": dist, "b": dist}, lambda y, a: y * (2 if a == "b" else 1))
        sol = solve(prob)
        assert sol.expected_loss == {"a": 1.0, "b": 2.0}
        assert sol.optimal_action == "a"

    def test_lognormal_identity_loss(self):
        prob = DecisionProblem(
            ("hi", "lo"),
            {"hi": LognormalDist(1.0, 0.5), "lo": LognormalDist(0.0, 0.5)},
            lambda y, a: y,
        )
        sol = solve(prob)
        assert sol.expected_loss["hi"] == pytest.approx(math.exp(1.25))
        assert sol.optimal_action == "lo"

    def test_missing_distribution(self):
        with pytest.raises(DecisionError):
            DecisionProblem(("a",), {}, {})

    def test_undefined_loss_entry(self):
        dist = FiniteDist.of({"x": 1.0})
        prob = DecisionProblem(("a",), {"a": dist}, {})
        with pytest.raises(DecisionError, match="undefined"):
            solve(prob)

    def test_nonfinite_loss(self):
        dist = FiniteDist.of({"x": 1.0})
        prob = DecisionProblem(("a",), {"a": dist}, {("x", "a"): float("inf")})
        with pytest.raises(DecisionError, match="finite"):
            solve(prob)


class TestAce:
    def test_table_difference(self):
        p1 = FiniteDist.of({0: 0.1, 1: 0.9})
        p0 = FiniteDist.of({0: 0.6, 1: 0.4})
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
        p1 = FiniteDist.of({m1: p, m1 + 1: 1 - p})
        p0 = FiniteDist.of({m0: q, m0 + 2: 1 - q})
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
            a: FiniteDist.of(dict(zip(outcomes, rng.dirichlet(np.ones(3)).tolist())))
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


class TestPriorPredictive:
    def test_point_mass_prior_returns_component(self):
        like = {0.2: FiniteDist.of({1: 0.2, 0: 0.8}), 0.7: FiniteDist.of({1: 0.7, 0: 0.3})}
        out = prior_predictive(like, {0.7: 1.0})
        assert out.as_dict()[1] == pytest.approx(0.7)

    def test_even_mixture(self):
        like = {0.2: FiniteDist.of({1: 0.2, 0: 0.8}), 0.6: FiniteDist.of({1: 0.6, 0: 0.4})}
        out = prior_predictive(like, {0.2: 0.5, 0.6: 0.5})
        assert out.as_dict()[1] == pytest.approx(0.4)

    def test_mean_is_linear_in_prior(self):
        like = {p: FiniteDist.of({1: p, 0: 1 - p}) for p in (0.1, 0.5, 0.9)}
        prior = {0.1: 0.2, 0.5: 0.3, 0.9: 0.5}
        out = prior_predictive(like, prior)
        assert out.mean() == pytest.approx(sum(w * p for p, w in prior.items()))

    def test_nan_prior_weight(self):
        like = {0.2: FiniteDist.of({1: 0.2, 0: 0.8}), 0.6: FiniteDist.of({1: 0.6, 0: 0.4})}
        with pytest.raises(DecisionError, match="prior weights include a non-finite value nan"):
            prior_predictive(like, {0.2: float("nan"), 0.6: 0.5})

    def test_prior_must_normalise(self):
        with pytest.raises(DecisionError):
            prior_predictive({0.5: FiniteDist.of({1: 0.5, 0: 0.5})}, {0.5: 0.9})

    def test_missing_component(self):
        with pytest.raises(DecisionError):
            prior_predictive({0.5: FiniteDist.of({1: 0.5, 0: 0.5})}, {0.4: 1.0})


class TestPlugin:
    def test_empirical_distribution(self):
        est = plugin_estimate([1, 1, 0, 1])
        assert est.as_dict() == {0: 0.25, 1: 0.75}

    def test_mean(self):
        assert plugin_mean([1.0, 2.0, 6.0]) == pytest.approx(3.0)

    def test_empty_sample(self):
        with pytest.raises(DecisionError):
            plugin_estimate([])
        with pytest.raises(DecisionError):
            plugin_mean([])

    def test_plugin_mean_matches_distribution_mean(self):
        samples = [0, 1, 1, 3, 5]
        assert plugin_estimate(samples).mean() == pytest.approx(plugin_mean(samples))


class TestJson:
    def test_round_trip(self):
        prob = umbrella_problem(0.3)
        doc = problem_to_json(prob)
        again = problem_to_json(problem_from_json(json.loads(json.dumps(doc))))
        assert again == doc

    def test_fixture_loads(self, corpus_dir):
        prob = load_problem(corpus_dir / "models" / "umbrella.json")
        sol = solve(prob)
        assert sol.optimal_action == "take"
        assert sol.expected_loss["leave"] == pytest.approx(0.3)

    def test_lognormal_round_trip(self):
        prob = DecisionProblem(
            ("t", "c"), {"t": LognormalDist(1.0, 0.3), "c": LognormalDist(0.2, 0.3)}, {}
        )
        doc = problem_to_json(prob)
        back = problem_from_json(doc)
        assert back.hypothetical["t"] == LognormalDist(1.0, 0.3)

    def test_callable_loss_rejected(self):
        dist = FiniteDist.of({0: 1.0})
        prob = DecisionProblem(("a",), {"a": dist}, lambda y, a: 0.0)
        with pytest.raises(DecisionError):
            problem_to_json(prob)

    def test_missing_key_is_named(self):
        with pytest.raises(DecisionError, match="decision problem document is missing required key 'distributions'"):
            problem_from_json({"actions": ["a"], "loss": []})

    def test_bad_distribution_doc(self):
        with pytest.raises(DecisionError):
            problem_from_json({"actions": ["a"], "distributions": {"a": {"type": "nope"}}, "loss": []})
