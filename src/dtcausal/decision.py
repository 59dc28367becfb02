"""Decision-tree solving and effect measures.

A decision problem pairs a finite action set with one hypothetical
outcome distribution per action (finite table or lognormal parameters)
and a loss table L(y, a).  Solving means computing each action's
expected loss and the minimiser; ties break lexicographically on action
name.  The lognormal suite gives the closed-form effect measures for a
log-scale normal outcome shifted by treatment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence


class DecisionError(ValueError):
    """Raised for malformed decision problems or queries."""


def _check_weights(weights: Sequence[float], what: str) -> None:
    """Every weight finite and nonnegative, and the weights sum to 1.  NaN
    fails every comparison, so both tests are written to pass only on good input."""
    bad = next((w for w in weights if not 0.0 <= w < math.inf), None)
    if bad is not None:
        raise DecisionError(f"{what} include a {'negative' if bad < 0 else 'non-finite'} value {bad}")
    if not abs(sum(weights) - 1.0) <= 1e-9:
        raise DecisionError(f"{what} do not sum to 1")


@dataclass(frozen=True)
class FiniteDist:
    """Finite outcome distribution; outcomes are JSON scalars."""

    probs: tuple[tuple[object, float], ...]

    def __post_init__(self) -> None:
        outcomes = [y for y, _ in self.probs]
        if len(set(map(repr, outcomes))) != len(outcomes):
            raise DecisionError("duplicate outcome")
        _check_weights([p for _, p in self.probs], "probabilities")

    @staticmethod
    def of(table: Mapping[object, float]) -> "FiniteDist":
        return FiniteDist(tuple(sorted(table.items(), key=lambda kv: repr(kv[0]))))

    def as_dict(self) -> dict:
        return dict(self.probs)

    def mean(self) -> float:
        try:
            return sum(float(y) * p for y, p in self.probs)
        except (TypeError, ValueError):
            raise DecisionError("outcomes are not numeric; no mean exists") from None

    def expected(self, f: Callable[[object], float]) -> float:
        return sum(f(y) * p for y, p in self.probs)


@dataclass(frozen=True)
class LognormalDist:
    """exp(N(mu, sigma2)) outcome."""

    mu: float
    sigma2: float

    def __post_init__(self) -> None:
        if self.sigma2 <= 0:
            raise DecisionError("sigma2 must be positive")

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma2 / 2)


@dataclass(frozen=True)
class NormalPair:
    """Log-scale normal means for the treated/untreated outcome, shared variance."""

    mu1: float
    mu0: float
    sigma2: float

    def __post_init__(self) -> None:
        if self.sigma2 <= 0:
            raise DecisionError("sigma2 must be positive")


@dataclass(frozen=True)
class DecisionProblem:
    actions: tuple[str, ...]
    hypothetical: dict[str, FiniteDist | LognormalDist]
    # Loss:  either a table keyed by (outcome, action), or a callable.
    loss: Mapping[tuple[object, str], float] | Callable[[object, str], float]

    def __post_init__(self) -> None:
        if not self.actions:
            raise DecisionError("no actions")
        if len(set(self.actions)) != len(self.actions):
            raise DecisionError("duplicate action")
        for a in self.actions:
            if a not in self.hypothetical:
                raise DecisionError(f"action {a!r} has no outcome distribution")

    def loss_of(self, y: object, a: str) -> float:
        if callable(self.loss):
            value = self.loss(y, a)
        else:
            try:
                value = self.loss[(y, a)]
            except KeyError:
                raise DecisionError(f"loss undefined for outcome {y!r}, action {a!r}") from None
        value = float(value)
        if not math.isfinite(value):
            raise DecisionError("loss must be finite")
        return value


@dataclass(frozen=True)
class Solution:
    expected_loss: dict[str, float]
    optimal_action: str


def solve(problem: DecisionProblem) -> Solution:
    """Expected loss per action and the lexicographically-first minimiser.

    Lognormal outcomes are supported only with the identity loss L(y,a)=y
    (expected loss = distribution mean); general losses need finite tables.
    """
    losses: dict[str, float] = {}
    for a in problem.actions:
        dist = problem.hypothetical[a]
        if isinstance(dist, FiniteDist):
            losses[a] = dist.expected(lambda y: problem.loss_of(y, a))
        else:
            losses[a] = dist.mean()
    best = min(sorted(problem.actions), key=lambda a: losses[a])
    return Solution(losses, best)


def ace(p1: FiniteDist | LognormalDist, p0: FiniteDist | LognormalDist) -> float:
    """Average causal effect: difference of the two hypothetical means."""
    return p1.mean() - p0.mean()


@dataclass(frozen=True)
class LognormalEffects:
    ace_y: float  # log-scale mean difference
    ace_z: float  # raw-scale mean difference
    ratio: float  # raw-scale mean ratio
    var_z_1: float
    var_z_0: float


def lognormal_effects(np_: NormalPair) -> LognormalEffects:
    mu1, mu0, s2 = np_.mu1, np_.mu0, np_.sigma2
    return LognormalEffects(
        ace_y=mu1 - mu0,
        ace_z=math.exp(s2 / 2) * (math.exp(mu1) - math.exp(mu0)),
        ratio=math.exp(mu1 - mu0),
        var_z_1=math.exp(2 * mu1) * (math.exp(2 * s2) - math.exp(s2)),
        var_z_0=math.exp(2 * mu0) * (math.exp(2 * s2) - math.exp(s2)),
    )


def prior_predictive(likelihood: Mapping[object, FiniteDist], prior: Mapping[object, float]) -> FiniteDist:
    """Mixture over a finite parameter grid; only the margin over the grid
    matters, any joint structure beyond these weights is irrelevant."""
    _check_weights(list(prior.values()), "prior weights")
    mix: dict[object, float] = {}
    for param, weight in prior.items():
        if param not in likelihood:
            raise DecisionError(f"no likelihood component for parameter {param!r}")
        for y, p in likelihood[param].probs:
            mix[y] = mix.get(y, 0.0) + weight * p
    return FiniteDist.of(mix)


def plugin_estimate(samples: Sequence[object]) -> FiniteDist:
    """Empirical distribution of the sample."""
    if not samples:
        raise DecisionError("empty sample")
    counts: dict[object, int] = {}
    for y in samples:
        counts[y] = counts.get(y, 0) + 1
    n = len(samples)
    return FiniteDist.of({y: c / n for y, c in counts.items()})


def plugin_mean(samples: Sequence[float]) -> float:
    if not samples:
        raise DecisionError("empty sample")
    return sum(samples) / len(samples)


# -- JSON serialisation ---------------------------------------------------


def _dist_from_json(doc) -> FiniteDist | LognormalDist:
    if isinstance(doc, Mapping) and doc.get("type") == "lognormal":
        return LognormalDist(float(doc["mu"]), float(doc["sigma2"]))
    if isinstance(doc, Mapping) and doc.get("type") == "table":
        return FiniteDist(tuple((row["y"], float(row["p"])) for row in doc["rows"]))
    raise DecisionError("distribution must be a 'table' or 'lognormal' object")


def _dist_to_json(dist: FiniteDist | LognormalDist):
    if isinstance(dist, LognormalDist):
        return {"type": "lognormal", "mu": dist.mu, "sigma2": dist.sigma2}
    return {"type": "table", "rows": [{"y": y, "p": p} for y, p in dist.probs]}


def problem_from_json(doc: Mapping) -> DecisionProblem:
    try:
        actions = tuple(doc["actions"])
        hypo = {a: _dist_from_json(d) for a, d in doc["distributions"].items()}
        loss = {(row["y"], row["a"]): float(row["loss"]) for row in doc["loss"]}
    except KeyError as exc:
        raise DecisionError(f"decision problem document is missing required key {exc.args[0]!r}") from None
    return DecisionProblem(actions, hypo, loss)


def problem_to_json(problem: DecisionProblem) -> dict:
    if callable(problem.loss):
        raise DecisionError("callable losses cannot be serialised")
    return {
        "actions": list(problem.actions),
        "distributions": {a: _dist_to_json(problem.hypothetical[a]) for a in problem.actions},
        "loss": [
            {"y": y, "a": a, "loss": v}
            for (y, a), v in sorted(problem.loss.items(), key=lambda kv: (repr(kv[0][0]), kv[0][1]))
        ],
    }


def load_problem(path) -> DecisionProblem:
    with open(path) as fh:
        return problem_from_json(json.load(fh))
