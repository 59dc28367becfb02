"""Decision-tree solving and effect measures.

A decision problem pairs a finite action set with one hypothetical
outcome distribution per action (finite table or lognormal parameters)
and a loss table L(y, a), keyed by (outcome, action).  Solving means
computing each action's expected loss and the minimiser; ties break
lexicographically on action name.  A lognormal action has no expected
loss under a table, so solving a problem with one raises DecisionError.
The lognormal suite gives the closed-form effect measures for a
log-scale normal outcome shifted by treatment.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable, Mapping, NamedTuple

from dtcausal import checked_make, json_array, json_object, json_objects, keyed, load_json


class DecisionError(ValueError):
    """Raised for malformed decision problems or queries."""


class FiniteDist(namedtuple("FiniteDist", "probs")):
    """Finite outcome distribution; outcomes are JSON scalars."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, probs: tuple[tuple[object, float], ...]) -> "FiniteDist":  # (outcome, probability) pairs
        weights = keyed(((repr(y), p) for y, p in probs), lambda y: DecisionError(f"duplicate outcome {y}"))
        # NaN fails every comparison, so both tests are written to pass only on good input.
        bad = next((p for p in weights.values() if not 0.0 <= p < math.inf), None)
        if bad is not None:
            raise DecisionError(f"probabilities include a {'negative' if bad < 0 else 'non-finite'} value {bad}")
        if not abs(sum(weights.values()) - 1.0) <= 1e-9:
            raise DecisionError("probabilities do not sum to 1")
        return tuple.__new__(cls, (probs,))

    def mean(self) -> float:
        try:
            return sum(float(y) * p for y, p in self.probs)
        except (TypeError, ValueError):
            raise DecisionError("outcomes are not numeric; no mean exists") from None

    def expected(self, f: Callable[[object], float]) -> float:
        return sum(f(y) * p for y, p in self.probs)


def _check_log_scale(params: Mapping[str, float]) -> None:
    """Every log-scale parameter finite, and the variance `sigma2` positive."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise DecisionError(f"{name} must be finite, not {value}")
    if params["sigma2"] <= 0:
        raise DecisionError("sigma2 must be positive")


class LognormalDist(namedtuple("LognormalDist", "mu sigma2")):
    """exp(N(mu, sigma2)) outcome."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, mu: float, sigma2: float) -> "LognormalDist":
        self = tuple.__new__(cls, (mu, sigma2))
        _check_log_scale(self._asdict())
        return self

    def mean(self) -> float:
        try:
            return math.exp(self.mu + self.sigma2 / 2)
        except OverflowError:
            raise DecisionError(f"the mean for mu={self.mu}, sigma2={self.sigma2} overflows a float") from None


class NormalPair(namedtuple("NormalPair", "mu1 mu0 sigma2")):
    """Log-scale normal means for the treated/untreated outcome, shared variance."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, mu1: float, mu0: float, sigma2: float) -> "NormalPair":
        self = tuple.__new__(cls, (mu1, mu0, sigma2))
        _check_log_scale(self._asdict())
        return self


class DecisionProblem(namedtuple("DecisionProblem", "actions hypothetical loss")):
    __slots__ = ()
    _make = checked_make

    def __new__(
        cls,
        actions: tuple[str, ...],
        hypothetical: dict[str, FiniteDist | LognormalDist],
        loss: Mapping[tuple[object, str], float],  # the loss table, keyed by (outcome, action)
    ) -> "DecisionProblem":
        if not actions:
            raise DecisionError("no actions")
        declared = keyed(zip(actions, actions), lambda a: DecisionError(f"duplicate action {a!r}"))
        for a in actions:
            if a not in hypothetical:
                raise DecisionError(f"action {a!r} has no outcome distribution")
        for a in hypothetical:
            if a not in declared:
                raise DecisionError(f"distribution for undeclared action {a!r}")
        # A loss row may name an outcome outside its action's support (umbrella.json has one).
        for y, a in loss:
            if a not in declared:
                raise DecisionError(f"loss row for y={y!r}, a={a!r} names an undeclared action")
        return tuple.__new__(cls, (actions, hypothetical, loss))

    def loss_of(self, y: object, a: str) -> float:
        try:
            value = float(self.loss[(y, a)])
        except KeyError:
            raise DecisionError(f"loss undefined for outcome {y!r}, action {a!r}") from None
        if not math.isfinite(value):
            raise DecisionError("loss must be finite")
        return value


class Solution(NamedTuple):
    expected_loss: dict[str, float]
    optimal_action: str


def solve(problem: DecisionProblem) -> Solution:
    """Expected loss per action and the lexicographically-first minimiser.

    A loss table prices finitely many outcomes, so a lognormal outcome has
    no expected loss under one and raises DecisionError naming its action.
    """
    losses: dict[str, float] = {}
    for a in problem.actions:
        dist = problem.hypothetical[a]
        if not isinstance(dist, FiniteDist):
            raise DecisionError(f"lognormal outcome of action {a!r} has no expected loss under a loss table")
        losses[a] = dist.expected(lambda y: problem.loss_of(y, a))
    best = min(sorted(problem.actions), key=lambda a: losses[a])
    return Solution(losses, best)


def ace(p1: FiniteDist | LognormalDist, p0: FiniteDist | LognormalDist) -> float:
    """Average causal effect: difference of the two hypothetical means."""
    return p1.mean() - p0.mean()


class LognormalEffects(NamedTuple):
    ace_y: float  # log-scale mean difference
    ace_z: float  # raw-scale mean difference
    ratio: float  # raw-scale mean ratio
    var_z_1: float
    var_z_0: float


def lognormal_effects(np_: NormalPair) -> LognormalEffects:
    """The effect suite; one that overflows a float, in `math.exp` or in a
    product, raises DecisionError naming the parameters."""
    mu1, mu0, s2 = np_.mu1, np_.mu0, np_.sigma2
    try:
        effects = LognormalEffects(
            ace_y=mu1 - mu0,
            ace_z=math.exp(s2 / 2) * (math.exp(mu1) - math.exp(mu0)),
            ratio=math.exp(mu1 - mu0),
            var_z_1=math.exp(2 * mu1) * (math.exp(2 * s2) - math.exp(s2)),
            var_z_0=math.exp(2 * mu0) * (math.exp(2 * s2) - math.exp(s2)),
        )
    except OverflowError:
        effects = None
    if effects is None or not all(map(math.isfinite, effects)):
        raise DecisionError(f"the lognormal effects for mu1={mu1}, mu0={mu0}, sigma2={s2} overflow a float")
    return effects


# -- JSON documents ------------------------------------------------------


def _dist_from_json(doc) -> FiniteDist | LognormalDist:
    if isinstance(doc, Mapping) and doc.get("type") == "lognormal":
        return LognormalDist(float(doc["mu"]), float(doc["sigma2"]))
    if isinstance(doc, Mapping) and doc.get("type") == "table":
        return FiniteDist(tuple((row["y"], float(row["p"])) for row in json_objects(doc["rows"], "rows")))
    raise DecisionError("distribution must be a 'table' or 'lognormal' object")


def problem_from_json(doc: Mapping) -> DecisionProblem:
    try:
        actions = json_array(doc["actions"], "'actions'")
        hypo = {a: _dist_from_json(d) for a, d in json_object(doc["distributions"], "'distributions'").items()}
        loss = keyed(
            (((row["y"], row["a"]), float(row["loss"])) for row in json_objects(doc["loss"], "loss")),
            lambda key: DecisionError(f"loss row for y={key[0]!r}, a={key[1]!r} is listed twice"),
        )
    except KeyError as exc:
        raise DecisionError(f"decision problem document is missing required key {exc.args[0]!r}") from None
    return DecisionProblem(actions, hypo, loss)


def load_problem(path) -> DecisionProblem:
    return problem_from_json(load_json(path))
