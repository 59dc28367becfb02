"""Brute-force numeric semantics for finite discrete multi-regime models.

A model assigns one joint probability table over the stochastic
variables to every regime assignment.  ITT-mode models are built from
a CPT bank plus regimes, each setting one deterministic target that
carries no CPT: its value is the regime value when the regime is non-
idle, else its ITT source's value.  Raw-mode models store one
joint table per regime assignment directly, for any regime-indexed
family, consistent or not.

Both modes compile once, at construction, into one form: the variables,
each regime's domain, and a list of factors whose leading axes range
over regime domains.  An ITT model has one tensor per CPT and one 0/1
indicator per applied treatment; a raw model has a single factor that
stacks its tables over the full regime grid.  A joint table slices the
regime axes for one assignment and contracts the factors with a single
einsum.  Distribution comparisons use total variation distance
(default tolerance 1e-9) and conditioning events with probability below
1e-12 impose no constraint.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from dtcausal.graph import IDLE, REGIME, Dag, Edge, Node, topological_order
from dtcausal.statements import EciStatement

DEFAULT_TOL = 1e-9
ZERO_TOL = 1e-12
MAX_JOINT_STATES = 10**7
MAX_VARIABLES = 52  # np.einsum subscript limit

State = object  # JSON scalar: str, int, float, bool


class ModelError(ValueError):
    """Raised for malformed models, regimes or queries."""


class PositivityError(ModelError):
    """Raised when a query conditions on an event the model gives zero probability."""


@dataclass(frozen=True)
class Cpt:
    child: str
    parents: tuple[str, ...]
    table: dict[tuple, tuple[float, ...]]

    def __post_init__(self) -> None:
        for key, probs in self.table.items():
            if len(key) != len(self.parents):
                raise ModelError(f"CPT row for {self.child!r} has wrong parent arity")
            _check_distribution(probs, f"CPT row {list(key)} for {self.child!r}")


def _check_distribution(probs: Sequence[float], what: str) -> None:
    """Every entry finite and nonnegative, and the entries sum to 1.  NaN
    fails every comparison, so both tests are written to pass only on good input."""
    bad = next((p for p in probs if not 0.0 <= p < math.inf), None)
    if bad is not None:
        raise ModelError(f"{what} has a {'negative' if bad < 0 else 'non-finite'} probability {bad}")
    if not abs(math.fsum(probs) - 1.0) <= 1e-12:
        raise ModelError(f"{what} does not sum to 1")


def _freeze_assignment(assignment: Mapping[str, State]) -> tuple[tuple[str, State], ...]:
    return tuple(sorted(assignment.items()))


@dataclass(frozen=True)
class JointTable:
    """Exact joint distribution over an ordered list of variables."""

    variables: tuple[str, ...]
    states: tuple[tuple[State, ...], ...]
    probs: np.ndarray  # shape = tuple(len(s) for s in states)

    def axis(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise ModelError(f"unknown variable {var!r}") from None

    def marginal(self, keep: Sequence[str]) -> "JointTable":
        drop = tuple(i for i, v in enumerate(self.variables) if v not in keep)
        probs = self.probs.sum(axis=drop) if drop else self.probs
        kept = tuple(v for v in self.variables if v in keep)
        return JointTable(kept, tuple(self.states[self.axis(v)] for v in kept), probs)

    def _index(self, event: Mapping[str, State]) -> tuple:
        """The index that selects the cells of `event`."""
        idx: list = [slice(None)] * len(self.variables)
        for var, val in event.items():
            ax = self.axis(var)
            try:
                idx[ax] = self.states[ax].index(val)
            except ValueError:
                raise ModelError(f"{val!r} is not a state of {var!r}") from None
        return tuple(idx)

    def prob_of(self, event: Mapping[str, State]) -> float:
        return float(self.probs[self._index(event)].sum())

    def conditional(self, target: Sequence[str], event: Mapping[str, State]) -> np.ndarray | None:
        """Flat distribution over the joint states of `target` given `event`;
        None when the event's probability is at most ZERO_TOL, decided
        before any reduction."""
        remaining = [v for v in self.variables if v not in event]
        for v in target:
            if v not in remaining:
                self.axis(v)  # an unknown variable raises here
                raise ModelError(f"{v!r} is both a target and in the conditioning event")
        sub = self.probs[self._index(event)]
        total = float(sub.sum())
        if total <= ZERO_TOL:
            return None
        axes = tuple(remaining.index(v) for v in target)
        other = tuple(i for i in range(len(remaining)) if remaining[i] not in target)
        flat = sub.sum(axis=other) if other else sub
        flat = np.moveaxis(flat, tuple(range(len(axes))), tuple(np.argsort(axes))) if axes else flat
        return (flat / total).reshape(-1)

    def expectation(self, var: str, event: Mapping[str, State] | None = None) -> float:
        """E(var | event): the correctly rounded sum (math.fsum) of value times
        mass over the event's cells, over that of their mass."""
        event = event or {}
        values = self.states[self.axis(var)]
        if var in event:
            raise ModelError(f"{var!r} is both a target and in the conditioning event")
        remaining = [v for v in self.variables if v not in event]
        cells = np.moveaxis(self.probs[self._index(event)], remaining.index(var), 0)
        rows = cells.reshape(len(values), -1).tolist()  # one row of masses per value of var
        total = math.fsum(itertools.chain.from_iterable(rows))
        if total <= ZERO_TOL:
            raise ModelError("conditioning event has zero probability")
        return math.fsum(float(s) * p for s, row in zip(values, rows) for p in row) / total


_Factor = tuple[tuple[str, ...], np.ndarray, list[int]]  # (regime axes, tensor, variable axes)


class _Compiled(NamedTuple):
    """A model's joint laws as factors.  Each tensor's leading axes range
    over the domains of its regime axes; the rest are positions in
    `variables`."""

    variables: tuple[str, ...]
    domains: dict[str, tuple[State, ...]]  # regime name -> domain, names sorted
    factors: tuple[_Factor, ...]


@dataclass(frozen=True)
class MultiRegimeModel:
    mode: str  # "itt" or "raw"
    states: dict[str, tuple[State, ...]]  # stochastic variables only
    latent: frozenset[str] = frozenset()  # unobserved variables, a label only
    cpts: dict[str, Cpt] = field(default_factory=dict)
    regimes: dict[str, str] = field(default_factory=dict)  # regime name -> target
    itt_of: dict[str, str] = field(default_factory=dict)  # target -> ITT node
    raw_regimes: dict[tuple, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in ("itt", "raw"):
            raise ModelError(f"unknown mode {self.mode!r}")
        if math.prod(len(s) for s in self.states.values()) > MAX_JOINT_STATES:
            raise ModelError("joint state space exceeds enumeration bound")
        self.regime_of  # reading it checks the regimes of either mode: one per target, each with an ITT source
        # Reading `variables` compiles the model, which checks every CPT row and raw table.
        if len(self.variables) > MAX_VARIABLES:
            raise ModelError(f"more than {MAX_VARIABLES} stochastic variables")

    # -- regime bookkeeping --------------------------------------------

    @property
    def regime_names(self) -> tuple[str, ...]:
        return tuple(self._compiled.domains)

    def regime_domain(self, regime: str) -> tuple[State, ...]:
        try:
            return self._compiled.domains[regime]
        except KeyError:
            raise ModelError(f"unknown regime {regime!r}") from None

    @property
    def variables(self) -> tuple[str, ...]:
        return self._compiled.variables

    @cached_property
    def regime_of(self) -> dict[str, str]:
        """Target -> the one regime that sets it; every target has an ITT source."""
        out: dict[str, str] = {}
        for reg, target in sorted(self.regimes.items()):
            if out.setdefault(target, reg) != reg:
                raise ModelError(f"regimes {out[target]!r} and {reg!r} both target {target!r}")
            if target not in self.itt_of:
                raise ModelError(f"missing ITT source for target {target!r}")
        return out

    @cached_property
    def dag(self) -> Dag | None:
        """An ITT model's graph, derived from its CPTs and regimes: each CPT
        parent points at its child, and each regime and its target's dashed
        ITT source at the target.  None for a raw model."""
        if self.mode != "itt":
            return None
        nodes = {Node(v, latent=v in self.latent, deterministic=v in self.regime_of) for v in self.states}
        edges = {Edge(par, cpt.child) for cpt in self.cpts.values() for par in cpt.parents}
        for target, reg in self.regime_of.items():
            edges |= {Edge(reg, target), Edge(self.itt_of[target], target, dashed=True)}
        return Dag.of(nodes | {Node(reg, REGIME) for reg in self.regimes}, edges)

    @cached_property
    def _variable_states(self) -> tuple[tuple[State, ...], ...]:
        return tuple(self.states[v] for v in self.variables)

    def all_regime_assignments(self, pins: Mapping[str, State] | None = None) -> list[dict[str, State]]:
        pins = dict(pins or {})
        names = self.regime_names
        for name, value in pins.items():
            if name not in names:
                raise ModelError(f"{name!r} is not a regime of the model")
            if value not in self.regime_domain(name):
                raise ModelError(f"{value!r} outside domain of regime {name!r}")
        choices = [[pins[n]] if n in pins else list(self.regime_domain(n)) for n in names]
        return [dict(zip(names, combo)) for combo in itertools.product(*choices)]

    # -- joint distributions -------------------------------------------

    def joint(self, regime: Mapping[str, State]) -> JointTable:
        regime = dict(regime)
        names = self.regime_names
        if set(regime) != set(names):
            raise ModelError("regime assignment must cover every regime exactly once")
        for name, value in regime.items():
            if value not in self.regime_domain(name):
                raise ModelError(f"{value!r} outside domain of regime {name!r}")
        key = _freeze_assignment(regime)
        cached = self._joint_cache.get(key)
        if cached is None:
            cached = self._compute_joint(regime)
            self._joint_cache[key] = cached
        return cached

    @cached_property
    def _joint_cache(self) -> dict:
        return {}

    def _compute_joint(self, regime: Mapping[str, State]) -> JointTable:
        variables, domains, factors = self._compiled
        operands: list = []
        for regime_axes, tensor, axes in factors:
            operands += [tensor[tuple(domains[r].index(regime[r]) for r in regime_axes)], axes]
        probs = np.einsum(*operands, list(range(len(variables)))) if operands else np.ones(())
        total = probs.sum()
        if abs(total - 1.0) > 1e-9:
            raise ModelError("joint table does not normalise")
        return JointTable(variables, self._variable_states, probs / total)

    @cached_property
    def _compiled(self) -> _Compiled:
        return self._compile_itt() if self.mode == "itt" else self._compile_raw()

    def _compile_itt(self) -> _Compiled:
        unknown = sorted(set(self.cpts) - set(self.states))
        if unknown:
            raise ModelError(f"CPT child {unknown[0]!r} is not a stochastic variable")
        for target in self.regime_of:
            if target in self.cpts:
                raise ModelError(f"deterministic target {target!r} must not carry a CPT")
            if self.itt_of[target] not in self.states:
                raise ModelError(f"ITT source {self.itt_of[target]!r} of {target!r} is not a stochastic variable")
        variables = tuple(v for v in topological_order(self.dag) if v in self.states)
        domains = {r: (IDLE,) + tuple(self.states[self.regimes[r]]) for r in sorted(self.regimes)}
        axis = {v: i for i, v in enumerate(variables)}
        factors = []
        for v in variables:
            if v in self.regime_of:
                # Applied treatment: the ITT value when the regime is idle, else the regime value.
                reg, src = self.regime_of[v], self.itt_of[v]
                indicator = [
                    [[float((s if f == IDLE else f) == t) for t in self.states[v]] for s in self.states[src]]
                    for f in domains[reg]
                ]
                factors.append(((reg,), np.array(indicator), [axis[src], axis[v]]))
            else:
                factors.append(self._cpt_factor(v, axis, domains))
        return _Compiled(variables, domains, tuple(factors))

    def _cpt_factor(self, v: str, axis: Mapping[str, int], regime_domains: Mapping[str, tuple]) -> _Factor:
        cpt = self.cpts.get(v)
        if cpt is None:
            raise ModelError(f"missing CPT for {v!r}")
        domains = [regime_domains.get(p) or self.states[p] for p in cpt.parents]
        configs = list(itertools.product(*domains))
        unknown = set(cpt.table) - set(configs)
        if unknown:
            row = list(min(unknown, key=repr))
            raise ModelError(f"CPT row {row} for {v!r} names a parent value that is not a state")
        n = len(self.states[v])
        for config in configs:
            probs = cpt.table.get(config)
            if probs is None:
                raise ModelError(f"CPT for {v!r} has no row for parents {list(config)}")
            if len(probs) != n:
                raise ModelError(f"CPT row {list(config)} for {v!r} has {len(probs)} probabilities, not {n}")
        tensor = np.array([cpt.table[c] for c in configs], dtype=float).reshape([len(d) for d in domains] + [n])
        regime_pos = [i for i, p in enumerate(cpt.parents) if p in regime_domains]
        var_pos = [i for i, p in enumerate(cpt.parents) if p not in regime_domains]
        return (
            tuple(cpt.parents[i] for i in regime_pos),
            tensor.transpose(regime_pos + var_pos + [len(cpt.parents)]),
            [axis[cpt.parents[i]] for i in var_pos] + [axis[v]],
        )

    def _compile_raw(self) -> _Compiled:
        """One factor: regime axes for every regime in name order, then every
        variable of `states` in its order, stacking the tables over the full regime grid.
        Regime names and domains come from the table keys; the optional
        `regimes`/`itt_of` metadata only serves the consistency checks."""
        names = [n for n, _ in next(iter(self.raw_regimes), ())]  # keys are sorted by name
        for key in self.raw_regimes:
            if [n for n, _ in key] != names:
                raise ModelError(f"raw table for {dict(key)} names regimes {[n for n, _ in key]}, not {names}")
        domains = {
            r: tuple(sorted({dict(key)[r] for key in self.raw_regimes}, key=lambda v: (v != IDLE, str(v))))
            for r in names
        }
        variables = tuple(self.states)
        shape = tuple(len(self.states[v]) for v in variables)
        size = math.prod(shape)
        tables = []
        for combo in itertools.product(*domains.values()):
            assignment = dict(zip(names, combo))
            flat = self.raw_regimes.get(_freeze_assignment(assignment))
            if flat is None:
                raise ModelError(f"no raw table for regime assignment {assignment}")
            if flat.size != size:
                raise ModelError(f"raw table for {assignment} has {flat.size} probabilities, expected {size}")
            _check_distribution(flat.tolist(), f"raw table for {assignment}")
            tables.append(flat)
        tensor = np.array(tables, dtype=float).reshape(tuple(len(d) for d in domains.values()) + shape)
        return _Compiled(variables, domains, ((tuple(names), tensor, list(range(len(shape)))),))


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def _coerce_state(value: State, domain: tuple[State, ...]) -> State:
    """Match a (possibly text-sourced) value against a state domain."""
    if value in domain:
        return value
    for candidate in domain:
        if str(candidate) == str(value):
            return candidate
    return value


def eci_holds(model: MultiRegimeModel, stmt: EciStatement, tol: float = DEFAULT_TOL) -> bool:
    """Numeric truth of an extended conditional independence statement.

    True iff one family of conditional distributions for the left-hand
    variables, indexed by the conditioning context, serves every regime
    and every right-hand value: regime indicators pinned in the
    conditioning restrict the regimes considered (a pin must name a
    regime; any other pin raises ModelError); regime indicators
    appearing as plain variables in the conditioning (and any regime not
    mentioned at all) index the family; regime indicators on the right
    are quantified over, like right-hand values.  Conditioning events of
    probability below the zero cutoff impose no constraint.
    """
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
    stoch_given = sorted(stmt.given - regime_names)
    stoch = stoch_given + sorted(right - regime_names)
    left = sorted(stmt.left)
    # Regimes that index the family: pinned, plain-conditioned, or unmentioned.
    context_regimes = sorted(regime_names - right)
    references: dict[tuple, np.ndarray] = {}  # (context regime values, given values) -> first distribution
    for regime in model.all_regime_assignments(pins):
        table = model.joint(regime)
        context = tuple(regime[r] for r in context_regimes)
        for combo in itertools.product(*(model.states[v] for v in stoch)):
            dist = table.conditional(left, dict(zip(stoch, combo)))
            if dist is None:
                continue
            reference = references.setdefault((context, combo[: len(stoch_given)]), dist)
            if reference is not dist and total_variation(reference, dist) > tol:
                return False
    return True


def check_distributional_consistency(
    model: MultiRegimeModel, v: Iterable[str], action: str, tol: float = DEFAULT_TOL
) -> bool:
    """dist(v | T=t, idle) == dist(v | T*=t, regime pinned to t), per t."""
    regime, itt = _regime_for_action(model, action)
    v = sorted(v)
    idle = _single_regime(model, regime, IDLE)
    obs = model.joint(idle)
    for t in model.states[action]:
        lhs = obs.conditional(v, {action: t})
        rhs = model.joint(_single_regime(model, regime, t)).conditional(v, {itt: t})
        if lhs is not None and rhs is not None and total_variation(lhs, rhs) > tol:
            return False
    return True


def _regime_for_action(model: MultiRegimeModel, action: str) -> tuple[str, str]:
    """The regime that sets `action`, and the action's ITT source."""
    try:
        return model.regime_of[action], model.itt_of[action]
    except KeyError:
        raise ModelError(f"no regime controls {action!r}") from None


def _single_regime(model: MultiRegimeModel, regime: str, value: State) -> dict[str, State]:
    out = {r: IDLE for r in model.regime_names}
    out[regime] = value
    return out


def check_ignorability(model: MultiRegimeModel, y: str, action: str, tol: float = DEFAULT_TOL) -> bool:
    """Response independent of the ITT variable given applied treatment and regime."""
    regime, itt = _regime_for_action(model, action)
    stmt = EciStatement(frozenset({y}), frozenset({itt}), frozenset({action, regime}))
    return eci_holds(model, stmt, tol)


def check_sufficient_covariate(
    model: MultiRegimeModel, x: str, y: str, action: str, tol: float = DEFAULT_TOL
) -> bool:
    """Conditional ignorability given x in each interventional regime, plus
    regime-invariance of the (x, ITT) joint."""
    regime, itt = _regime_for_action(model, action)
    for t in model.states[action]:
        stmt = EciStatement(frozenset({y}), frozenset({itt}), frozenset({x}), ((regime, t),))
        if not eci_holds(model, stmt, tol):
            return False
    stmt = EciStatement(frozenset({x, itt}), frozenset({regime}))
    return eci_holds(model, stmt, tol)


def interventional_query(model: MultiRegimeModel, y: str, regime: Mapping[str, State]) -> dict[State, float]:
    table = model.joint(regime).marginal([y])
    return dict(zip(table.states[0], (float(p) for p in table.probs)))


def gformula_eval(
    model: MultiRegimeModel,
    y: tuple[str, State],
    x0: tuple[str, State],
    x1: tuple[str, State],
    z_var: str,
) -> float:
    """Evaluate sum_z p(y | x1, z) p(z | x0) in the all-idle joint."""
    idle = {r: IDLE for r in model.regime_names}
    obs = model.joint(idle)
    y_var, y_val = y
    x0_var, x0_val = x0
    x1_var, x1_val = x1
    if z_var == x1_var:
        raise ModelError(f"the adjustment variable {z_var!r} is also the second treatment")
    y_pos = obs._index({y_var: y_val})[obs.axis(y_var)]  # raises for an unknown name or value of y
    pz = obs.conditional([z_var], {x0_var: x0_val})
    if pz is None:
        raise PositivityError("positivity violation")
    total = 0.0
    for z_val, pz_val in zip(model.states[z_var], pz.tolist()):
        if pz_val <= ZERO_TOL:
            continue
        py = obs.conditional([y_var], {x1_var: x1_val, z_var: z_val})
        if py is None:
            raise PositivityError("positivity violation")
        total += float(py[y_pos]) * pz_val
    return total


def ace(model: MultiRegimeModel, y: str, action: str) -> float:
    """Average causal effect of a binary action on y: E(y) with the action's
    regime set to its second state minus E(y) with it set to the first, every
    other regime idle."""
    regime, _ = _regime_for_action(model, action)
    states = model.states[action]
    if len(states) != 2:
        raise ModelError("ACE requires a binary action")
    lo, hi = states
    hi_mean, lo_mean = (model.joint(_single_regime(model, regime, t)).expectation(y) for t in (hi, lo))
    return hi_mean - lo_mean


def ett(model: MultiRegimeModel, y: str, action: str) -> float:
    """Effect of treatment on those selected for treatment:
    E(y | ITT=1, regime=1) - E(y | ITT=1, regime=0)."""
    regime, itt = _regime_for_action(model, action)
    states = model.states[action]
    if len(states) != 2:
        raise ModelError("ETT requires a binary action")
    lo, hi = states
    hi_mean, lo_mean = (model.joint(_single_regime(model, regime, t)).expectation(y, {itt: hi}) for t in (hi, lo))
    return hi_mean - lo_mean


# -- study simulation ----------------------------------------------------


@dataclass(frozen=True)
class StudySpec:
    """Exchangeable-unit study: covariate law, assignment kernel, response
    kernel.  Units are i.i.d. given the kernels and each unit's outcome
    distribution depends only on its own applied treatment (interference
    between units is out of scope)."""

    covariate_dist: dict[State, float]
    assignment: dict[State, float]  # P(selected for treatment | covariate)
    response: dict[tuple[State, int], dict[float, float]]  # (covariate, treatment) -> outcome dist

    @cached_property
    def model(self) -> MultiRegimeModel:
        """The study as a one-regime ITT model: covariate X, selection T* | X,
        applied treatment T set by regime F_T with T* as its ITT source, and
        response Y | X, T over every outcome any row names.  Building it checks
        every row of the spec."""
        outcomes = tuple(sorted(set().union(*self.response.values())))
        cpts = [
            Cpt("X", (), {(): tuple(self.covariate_dist.values())}),
            Cpt("T*", ("X",), {(x,): (1.0 - a, a) for x, a in self.assignment.items()}),
            Cpt("Y", ("X", "T"), {k: tuple(d.get(y, 0.0) for y in outcomes) for k, d in self.response.items()}),
        ]
        states = {"X": tuple(self.covariate_dist), "T*": (0, 1), "T": (0, 1), "Y": outcomes}
        return MultiRegimeModel(
            "itt", states, cpts={c.child: c for c in cpts}, regimes={"F_T": "T"}, itt_of={"T": "T*"}
        )

    def interventional_mean(self, t: int) -> float:
        return self.model.joint({"F_T": t}).expectation("Y")

    def observational_arm_mean(self, t: int) -> float:
        """Exact mean outcome among units selected for (and given) arm t."""
        return self.model.joint({"F_T": IDLE}).expectation("Y", {"T": t})


@dataclass(frozen=True)
class StudyResult:
    n: int
    treated_mean: float | None
    control_mean: float | None
    treated_se: float | None
    control_se: float | None
    interventional_means: dict[int, float]


def simulate_study(spec: StudySpec, n: int, seed: int) -> StudyResult:
    if n < 1:
        raise ModelError("n must be at least 1")
    means = {t: spec.interventional_mean(t) for t in (0, 1)}  # builds spec.model, checking it before any draw
    rng = np.random.default_rng(seed)
    xs = list(spec.covariate_dist)
    px = np.array([spec.covariate_dist[x] for x in xs], dtype=float)
    x_idx = rng.choice(len(xs), size=n, p=px / px.sum())
    assign = np.array([spec.assignment[x] for x in xs], dtype=float)
    t = (rng.random(n) < assign[x_idx]).astype(int)
    y = np.empty(n)
    for i, x in enumerate(xs):  # group-wise draws keep this O(groups) rng calls
        for arm in (0, 1):
            mask = (x_idx == i) & (t == arm)
            count = int(mask.sum())
            if count == 0:
                continue
            dist = spec.response[(x, arm)]
            values = np.array(list(dist), dtype=float)
            probs = np.array([dist[v] for v in dist], dtype=float)
            y[mask] = values[rng.choice(len(values), size=count, p=probs / probs.sum())]

    def stats(arm: np.ndarray) -> tuple[float | None, float | None]:
        if arm.size == 0:
            return None, None
        se = float(arm.std(ddof=1) / np.sqrt(arm.size)) if arm.size > 1 else None
        return float(arm.mean()), se

    t_mean, t_se = stats(y[t == 1])
    c_mean, c_se = stats(y[t == 0])
    return StudyResult(
        n=n,
        treated_mean=t_mean,
        control_mean=c_mean,
        treated_se=t_se,
        control_se=c_se,
        interventional_means=means,
    )


# -- JSON serialisation ---------------------------------------------------


def model_to_json(model: MultiRegimeModel) -> dict:
    doc: dict = {"mode": model.mode}
    variables = []
    for name in model.variables:
        entry: dict = {"name": name, "states": list(model.states[name])}
        if model.mode == "itt":
            if name in model.latent:
                entry["latent"] = True
            if name in model.regime_of:
                entry["deterministic"] = True
        variables.append(entry)
    doc["variables"] = variables
    if model.regimes:
        doc["regimes"] = [
            {"name": r, "target": t, "itt": model.itt_of[t]} for r, t in sorted(model.regimes.items())
        ]
    if model.mode == "itt":
        doc["cpts"] = [
            {
                "child": cpt.child,
                "parents": list(cpt.parents),
                "rows": [
                    {"parents": list(key), "probs": list(probs)}
                    for key, probs in sorted(cpt.table.items(), key=lambda kv: json.dumps(kv[0]))
                ],
            }
            for cpt in (model.cpts[c] for c in sorted(model.cpts))
        ]
    else:
        doc["raw_regimes"] = [
            {"assignment": dict(key), "probs": list(map(float, flat))}
            for key, flat in sorted(model.raw_regimes.items(), key=lambda kv: json.dumps(kv[0]))
        ]
    return doc


def model_from_json(doc: Mapping) -> MultiRegimeModel:
    try:
        mode, fields = _model_fields(doc)
    except KeyError as exc:
        raise ModelError(f"model document is missing required key {exc.args[0]!r}") from None
    return MultiRegimeModel(mode, **fields)


def _model_fields(doc: Mapping) -> tuple[str, dict]:
    """The constructor arguments a model document spells out; a missing
    required key raises KeyError."""
    mode = doc.get("mode")
    for what, entries in (("variable", doc["variables"]), ("regime", doc.get("regimes", []))):
        names = [entry["name"] for entry in entries]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ModelError(f"{what} {name!r} is listed twice")
    states = {v["name"]: tuple(v["states"]) for v in doc["variables"]}
    regimes = {r["name"]: r["target"] for r in doc.get("regimes", [])}
    for v in doc["variables"]:
        if v.get("deterministic") and v["name"] not in regimes.values():
            raise ModelError(f"variable {v['name']!r} is marked deterministic but no regime targets it")
    itt_of = {r["target"]: r["itt"] for r in doc.get("regimes", []) if "itt" in r}
    if mode == "itt":
        cpts = {
            c["child"]: Cpt(
                c["child"], tuple(c["parents"]), {tuple(r["parents"]): tuple(r["probs"]) for r in c["rows"]}
            )
            for c in doc.get("cpts", [])
        }
        latent = frozenset(v["name"] for v in doc["variables"] if v.get("latent"))
        return mode, dict(states=states, latent=latent, cpts=cpts, regimes=regimes, itt_of=itt_of)
    if mode == "raw":
        raw = {}
        for entry in doc["raw_regimes"]:
            key = _freeze_assignment(entry["assignment"])
            if key in raw:
                raise ModelError(f"duplicate raw table for regime assignment {entry['assignment']}")
            raw[key] = np.asarray(entry["probs"], dtype=float)
        return mode, dict(states=states, raw_regimes=raw, regimes=regimes, itt_of=itt_of)
    raise ModelError(f"unknown mode {mode!r}")


def load_model(path) -> MultiRegimeModel:
    with open(path) as fh:
        return model_from_json(json.load(fh))


def study_spec_from_json(doc: Mapping) -> StudySpec:
    try:
        response = {
            (row["x"], int(row["t"])): {float(y): float(p) for y, p in row["dist"].items()} for row in doc["response"]
        }
        return StudySpec(covariate_dist=dict(doc["covariate"]), assignment=dict(doc["assignment"]), response=response)
    except KeyError as exc:
        raise ModelError(f"study spec document is missing required key {exc.args[0]!r}") from None


# -- random model construction (flat simplex CPTs, explicit seeds) -------


def random_cpt(rng: np.random.Generator, child: str, parents: tuple[str, ...], states: Mapping[str, tuple]) -> Cpt:
    rows = {}
    for combo in itertools.product(*(states[p] for p in parents)):
        rows[combo] = tuple(rng.dirichlet(np.ones(len(states[child]))))
    return Cpt(child, parents, rows)
