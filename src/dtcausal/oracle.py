"""Brute-force numeric semantics for finite discrete multi-regime models.

A model assigns one joint probability table over the stochastic
variables to every regime assignment.  It is given the states of its
variables and its regimes, each as the pair (target, ITT source): the
deterministic variable that the regime sets to its value when non-idle,
and to the ITT source's value when idle.  An ITT model is also given one
CPT per other variable, under the variable's name.  A CPT is plain data,
checked by the model that holds it: each parent listed once, and one row
per tuple of parent values and no other, a distribution over the child's
states.  A raw model is given instead one joint table per assignment of its
regimes, for any regime-indexed family, consistent or not; a model is raw
exactly when it is given raw tables.  In either kind a regime's domain is
the idle value plus the states of its target.

Both kinds compile once, at construction, into one form: the variables,
each regime's domain, and a list of factors.  A factor names the regimes
that index it and holds one array per tuple of their values, laid out
over every variable in order with a size-1 axis for each variable it
does not involve.  An ITT model has one factor per CPT, indexed by its
regime parents if any; the applied treatment's CPT is deterministic,
with its regime and its ITT source as parents.  A raw model has a single
factor indexed by every regime, one table per assignment.  The regime-free
factors are the same in every regime, so the first joint table
multiplies them into one product that the model keeps; every joint
table is that product times the regime-indexed arrays of its
assignment.  A query reads the joint of the model of the CPTs of its
names' ancestral set, that set's marginal.  Distribution comparisons use
total variation distance (default tolerance 1e-9) and conditioning
events with probability below 1e-12 impose no constraint.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from dtcausal import json_array, json_object, json_objects, keyed, load_json
from dtcausal.graph import IDLE, REGIME, Dag, Edge, Node, topological_order
from dtcausal.statements import EciStatement

DEFAULT_TOL = 1e-9
ZERO_TOL = 1e-12
MAX_JOINT_STATES = 10**7
MAX_VARIABLES = 52  # numpy 2 caps arrays at 64 axes; a factor's array has one per variable plus one over regime values
MAX_UNITS = 10**7  # simulate_study's bound on n: its arrays take tens of bytes per unit

State = object  # JSON scalar: str, int, float, bool


class ModelError(ValueError):
    """Raised for malformed models, regimes or queries."""


class PositivityError(ModelError):
    """Raised when a query conditions on an event the model gives zero probability."""


class Cpt(NamedTuple):
    """A child's probabilities per tuple of parent values, kept under its name: plain data, checked by its model."""

    parents: tuple[str, ...]
    table: dict[tuple, tuple[float, ...]]


def _check_distribution(probs: Sequence[float], size: int, what: Callable[[], str]) -> None:
    """`size` entries, each finite and nonnegative, that sum to 1; `what()` names
    the distribution in the error, built only on failure.  NaN fails every
    comparison, so both tests are written to pass only on good input."""
    if len(probs) != size:
        raise ModelError(f"{what()} has {len(probs)} probabilities, expected {size}")
    bad = next((p for p in probs if not 0.0 <= p < math.inf), None)
    if bad is not None:
        raise ModelError(f"{what()} has a {'negative' if bad < 0 else 'non-finite'} probability {bad}")
    if not abs(math.fsum(probs) - 1.0) <= 1e-12:
        raise ModelError(f"{what()} does not sum to 1")


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
        kept = sorted({self.axis(v) for v in keep})  # an unknown variable raises here
        drop = tuple(i for i in range(len(self.variables)) if i not in kept)
        probs = self.probs.sum(axis=drop) if drop else self.probs
        return JointTable(tuple(self.variables[i] for i in kept), tuple(self.states[i] for i in kept), probs)

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

    def conditional(self, target: Sequence[str], event: Mapping[str, State]) -> np.ndarray | None:
        """Flat distribution over the joint states of `target` given `event`,
        row-major in the order `target` lists its variables; None when the
        event's probability is at most ZERO_TOL, decided before any reduction."""
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
        flat = flat.transpose([sorted(axes).index(a) for a in axes]) if len(axes) > 1 else flat  # table to target order
        return (flat / total).reshape(-1)

    def expectation(self, var: str, event: Mapping[str, State] | None = None) -> float:
        """E(var | event): the correctly rounded sum (math.fsum) of value times
        mass over the event's cells, over that of their mass."""
        event = event or {}
        values = self.states[self.axis(var)]
        if var in event:
            raise ModelError(f"{var!r} is both a target and in the conditioning event")
        remaining = [v for v in self.variables if v not in event]
        cells = self.probs[self._index(event)].transpose(sorted(range(len(remaining)), key=lambda i: remaining[i] != var))
        rows = cells.reshape(len(values), -1).tolist()  # var's axis first, the rest in order: one row of masses per value
        total = math.fsum(itertools.chain.from_iterable(rows))
        if total <= ZERO_TOL:
            raise ModelError("conditioning event has zero probability")
        try:
            return math.fsum(float(s) * p for s, row in zip(values, rows) for p in row) / total
        except (TypeError, ValueError):
            raise ModelError(f"states of {var!r} are not numeric; no mean exists") from None


# (regimes indexing the factor, their values -> array over every variable); a
# regime-free factor has one array, under ().
_Factor = tuple[tuple[str, ...], dict[tuple, np.ndarray]]


class _Compiled(NamedTuple):
    """A model's joint laws as factors: for each regime assignment, the
    product of each factor's array at that assignment is its joint."""

    variables: tuple[str, ...]
    domains: dict[str, tuple[State, ...]]  # regime name -> domain, names sorted
    factors: tuple[_Factor, ...]


@dataclass(frozen=True)
class MultiRegimeModel:
    states: dict[str, tuple[State, ...]]  # stochastic variables only
    latent: frozenset[str] = frozenset()  # unobserved variables, a label only
    cpts: dict[str, Cpt] = field(default_factory=dict)  # an ITT model's CPTs, one per variable no regime targets
    regimes: dict[str, tuple[str, str]] = field(default_factory=dict)  # regime name -> (target, ITT source)
    raw_regimes: dict[tuple, np.ndarray] | None = None  # a raw model's flat joint table per sorted regime assignment

    def __post_init__(self) -> None:
        for kind, names in (("variable", self.states), ("regime", self.regimes)):
            bad = next((name for name in names if not isinstance(name, str)), None)
            if bad is not None:  # names are sorted and compared, so one type for all
                raise ModelError(f"{kind} name {bad!r} is not a string")
        if self.raw_regimes is not None and self.cpts:
            raise ModelError("a raw model takes no CPTs")
        for name, values in self.states.items():
            bad = next((s for s in values if isinstance(s, (list, dict))), None)
            if bad is not None:
                raise ModelError(f"state {bad!r} of variable {name!r} is not a JSON scalar")
            keyed(zip(values, values), lambda s: ModelError(f"state {s!r} of variable {name!r} is listed twice"))
        if math.prod(len(s) for s in self.states.values()) > MAX_JOINT_STATES:
            raise ModelError("joint state space exceeds enumeration bound")
        if len(self.states) > MAX_VARIABLES:
            raise ModelError(f"more than {MAX_VARIABLES} stochastic variables")
        self.regime_of  # reading it checks the regimes of either kind: one per target, with stochastic variables
        self.variables  # reading it compiles the model, which checks every CPT and raw table

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
        """Target -> the one regime that sets it; runs every per-regime check of either kind."""
        out: dict[str, str] = {}
        for reg, (target, src) in sorted(self.regimes.items()):
            if reg in self.states:
                raise ModelError(f"regime {reg!r} has the name of a variable")
            if out.setdefault(target, reg) != reg:
                raise ModelError(f"regimes {out[target]!r} and {reg!r} both target {target!r}")
            if target not in self.states:
                raise ModelError(f"target {target!r} of regime {reg!r} is not a stochastic variable")
            if src not in self.states:
                raise ModelError(f"ITT source {src!r} of {target!r} is not a stochastic variable")
            if IDLE in self.states[target]:
                raise ModelError(f"target {target!r} has the idle regime value {IDLE!r} as a state")
        return out

    @cached_property
    def dag(self) -> Dag | None:
        """An ITT model's graph, derived from its CPTs: each CPT parent points
        at its child, dashed when it is the child's ITT source.  None for a
        raw model."""
        if self.raw_regimes is not None:
            return None
        dashed = {(src, target) for target, src in self.regimes.values()}
        nodes = {Node(v, latent=v in self.latent, deterministic=v in self.regime_of) for v in self.states}
        edges = {Edge(par, v, dashed=(par, v) in dashed) for v, cpt in self._itt_cpts.items() for par in cpt.parents}
        return Dag.of(nodes | {Node(reg, REGIME) for reg in self.regimes}, edges)

    @cached_property
    def _itt_cpts(self) -> dict[str, Cpt]:
        """Every CPT of an ITT model: its bank, plus one per regime target,
        the applied treatment's law given (regime, ITT source): the ITT value
        when the regime is idle, else the regime value."""
        unknown = sorted(set(self.cpts) - set(self.states))
        if unknown:
            raise ModelError(f"CPT child {unknown[0]!r} is not a stochastic variable")
        out = dict(self.cpts)
        for reg, (target, src) in sorted(self.regimes.items()):
            states = self.states[target]
            if target in self.cpts:
                raise ModelError(f"deterministic target {target!r} must not carry a CPT")
            extra = [s for s in self.states[src] if s not in states]
            if extra:
                raise ModelError(
                    f"ITT source {src!r} of {target!r} has state {extra[0]!r}, which is not a state of {target!r}"
                )
            onehot = {t: tuple(float(t == u) for u in states) for t in states}
            rows = {(f, s): onehot[s if f == IDLE else f] for f in (IDLE, *states) for s in self.states[src]}
            out[target] = Cpt((reg, src), rows)
        return out

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
        return self.margin(regime, self.variables)

    def margin(self, regime: Mapping[str, State], names: Iterable[str]) -> JointTable:
        """The marginal table in `regime` of the ancestral set of `names` in `dag`
        (a raw model's joint); reading a name that is no variable from it raises."""
        regime = dict(regime)
        if set(regime) != set(self.regime_names):
            raise ModelError("regime assignment must cover every regime exactly once")
        for name, value in regime.items():
            if value not in self.regime_domain(name):
                raise ModelError(f"{value!r} outside domain of regime {name!r}")
        names = tuple(names)
        if names != self.variables:  # every table is read through some model's `joint`
            members = self._ancestral_sets.get(names)
            if members is None:
                keep = self.states if self.dag is None else self.dag.ancestors(n for n in names if n in self.states)
                members = self._ancestral_sets[names] = tuple(v for v in self.variables if v in keep)
            if members == self.variables:
                return self.joint(regime)
            model = self._margins.get(members) or self._margins.setdefault(members, self._ancestral_model(members))
            return model.joint({r: regime[r] for r in model.regime_names})
        key = _freeze_assignment(regime)
        if key not in self._joint_cache:
            self._joint_cache[key] = self._compute_joint(regime)
        return self._joint_cache[key]

    @cached_property
    def _ancestral_sets(self) -> dict:
        """Names -> their ancestral set's variables: a read costs a small part of the closure in `dag`."""
        return {}

    @cached_property
    def _margins(self) -> dict:
        """An ancestral set's variables -> the model of their CPTs, kept with its tables."""
        return {}

    def _ancestral_model(self, variables: tuple[str, ...]) -> MultiRegimeModel:
        # The set's joint is its marginal, as every parent of a member is a member; its model is
        # made from this model's checked factors, which are of size 1 on every non-member.
        keep = {*variables, *(r for r, (t, _) in self.regimes.items() if t in variables)}
        axes = [i for i, v in enumerate(self.variables) if v in keep]
        factors = tuple(
            (indexed, {k: a.reshape([a.shape[i] for i in axes]) for k, a in arrays.items()})
            for v, (indexed, arrays) in zip(self.variables, self._compiled.factors) if v in keep
        )
        kept = lambda named: {k: x for k, x in named.items() if k in keep}
        model = object.__new__(MultiRegimeModel)
        vars(model).update(
            states=kept(self.states), latent=self.latent & keep, cpts=kept(self.cpts), regimes=kept(self.regimes),
            raw_regimes=None,
            _compiled=_Compiled(variables, kept(self._compiled.domains), factors),
        )
        return model

    @cached_property
    def _joint_cache(self) -> dict:
        return {}

    def _compute_joint(self, regime: Mapping[str, State]) -> JointTable:
        probs = self._shared_product
        for names, arrays in self._compiled.factors:
            if names:
                probs = probs * arrays[tuple(regime[r] for r in names)]
        total = probs.sum()
        if abs(total - 1.0) > 1e-9:
            raise ModelError("joint table does not normalise")
        return JointTable(self.variables, tuple(self.states[v] for v in self.variables), probs / total)

    @cached_property
    def _shared_product(self) -> np.ndarray:
        """The product of the regime-free factors, the same in every regime:
        built by the first joint table and the start of every one."""
        return math.prod((arrays[()] for names, arrays in self._compiled.factors if not names), start=np.ones(()))

    @cached_property
    def _compiled(self) -> _Compiled:
        domains = {r: (IDLE,) + tuple(self.states[t]) for r, (t, _) in sorted(self.regimes.items())}
        return self._compile_itt(domains) if self.raw_regimes is None else self._compile_raw(domains)

    def _compile_itt(self, domains: dict[str, tuple[State, ...]]) -> _Compiled:
        variables = tuple(v for v in topological_order(self.dag) if v in self.states)
        axis = {v: i for i, v in enumerate(variables)}
        return _Compiled(variables, domains, tuple(self._cpt_factor(v, axis, domains) for v in variables))

    def _cpt_factor(self, v: str, axis: Mapping[str, int], regime_domains: Mapping[str, tuple]) -> _Factor:
        """The CPT of `v` as a factor indexed by its regime parents: one array
        per tuple of their values, with its axes in variable order and a
        size-1 axis for every variable the CPT does not involve."""
        cpt = self._itt_cpts.get(v)
        if cpt is None:
            raise ModelError(f"missing CPT for {v!r}")
        keyed(zip(cpt.parents, cpt.parents), lambda p: ModelError(f"parent {p!r} of the CPT for {v!r} is listed twice"))
        domains = [regime_domains.get(p) or self.states[p] for p in cpt.parents]
        configs = list(itertools.product(*domains))
        unknown = cpt.table.keys() - set(configs)
        if unknown:
            row = min(unknown, key=repr)
            fault = "has wrong parent arity" if len(row) != len(domains) else "names a parent value that is not a state"
            raise ModelError(f"CPT row {list(row)} for {v!r} {fault}")
        n = len(self.states[v])
        for config in configs:
            probs = cpt.table.get(config)
            if probs is None:
                raise ModelError(f"CPT for {v!r} has no row for parents {list(config)}")
            _check_distribution(probs, n, lambda: f"CPT row {list(config)} for {v!r}")
        tensor = np.array([cpt.table[c] for c in configs], dtype=float).reshape([len(d) for d in domains] + [n])
        dims = [*cpt.parents, v]  # the tensor's axes
        regime_pos = [i for i, p in enumerate(cpt.parents) if p in regime_domains]
        var_pos = sorted((i for i, p in enumerate(dims) if p not in regime_domains), key=lambda i: axis[dims[i]])
        spread = [len(self.states[u]) if u in dims else 1 for u in axis]
        regimes = tuple(cpt.parents[i] for i in regime_pos)
        arrays = tensor.transpose(regime_pos + var_pos).reshape([-1] + spread)
        return regimes, dict(zip(itertools.product(*(regime_domains[r] for r in regimes)), arrays))

    def _compile_raw(self, domains: dict[str, tuple[State, ...]]) -> _Compiled:
        """One factor, indexed by every regime in name order, whose array for
        each assignment of the declared regimes is its table over the variables
        of `states` in order."""
        names = list(domains)
        for key in self.raw_regimes:
            if [n for n, _ in key] != names or any(v not in domains[n] for n, v in key):  # keys are sorted by name
                raise ModelError(f"raw table for {dict(key)} is not an assignment of the regimes {names}")
        variables = tuple(self.states)
        shape = tuple(len(self.states[v]) for v in variables)
        size = math.prod(shape)
        tables = {}
        for combo in itertools.product(*domains.values()):
            assignment = dict(zip(names, combo))
            flat = self.raw_regimes.get(_freeze_assignment(assignment))
            if flat is None:
                raise ModelError(f"no raw table for regime assignment {assignment}")
            _check_distribution(flat.tolist(), size, lambda: f"raw table for {assignment}")
            tables[combo] = np.array(flat, dtype=float).reshape(shape)
        return _Compiled(variables, domains, ((tuple(names), tables),))


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
    for name in sorted(stmt.left):
        if name not in variables:
            raise ModelError(f"unknown or non-stochastic left variable {name!r}")
    for name in sorted(stmt.right | stmt.given):
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
        table = model.margin(regime, left + stoch)
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
    v = sorted(keyed(zip(v, v), lambda name: ModelError(f"variable {name!r} is given twice")))
    names = [*v, action, itt]
    obs = model.margin(_single_regime(model, regime, IDLE), names)
    for t in model.states[action]:
        lhs = obs.conditional(v, {action: t})
        rhs = model.margin(_single_regime(model, regime, t), names).conditional(v, {itt: t})
        if lhs is not None and rhs is not None and total_variation(lhs, rhs) > tol:
            return False
    return True


def _regime_for_action(model: MultiRegimeModel, action: str) -> tuple[str, str]:
    """The regime that sets `action`, and the action's ITT source."""
    if action not in model.regime_of:
        raise ModelError(f"no regime controls {action!r}")
    regime = model.regime_of[action]
    return regime, model.regimes[regime][1]


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
    table = model.margin(regime, [y]).marginal([y])
    return dict(zip(table.states[0], (float(p) for p in table.probs)))


def gformula_eval(
    model: MultiRegimeModel,
    y: tuple[str, State],
    x0: tuple[str, State],
    x1: tuple[str, State],
    z_var: str,
) -> float:
    """Evaluate sum_z p(y | x1, z) p(z | x0) in the all-idle joint; y, x0, x1 and z
    must be four different variables."""
    names = (y[0], x0[0], x1[0], z_var)
    keyed(zip(names, names), lambda name: ModelError(f"variable {name!r} is given twice"))
    obs = model.margin({r: IDLE for r in model.regime_names}, names)
    # Bound values match states as statement pins do; an unknown name raises here.
    (y_var, y_val), (x0_var, x0_val), (x1_var, x1_val) = (
        (var, _coerce_state(val, obs.states[obs.axis(var)])) for var, val in (y, x0, x1)
    )
    y_pos = obs._index({y_var: y_val})[obs.axis(y_var)]  # raises for a value that is not a state of y
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
    return _regime_contrast(model, y, action, "ACE", treated_only=False)


def ett(model: MultiRegimeModel, y: str, action: str) -> float:
    """Effect of treatment on those selected for treatment:
    E(y | ITT=1, regime=1) - E(y | ITT=1, regime=0)."""
    return _regime_contrast(model, y, action, "ETT", treated_only=True)


def _regime_contrast(model: MultiRegimeModel, y: str, action: str, name: str, treated_only: bool) -> float:
    """The body of `ace` (empty event) and `ett` (ITT source at the second state)."""
    regime, itt = _regime_for_action(model, action)
    states = model.states[action]
    if len(states) != 2:
        raise ModelError(f"{name} requires a binary action")
    lo, hi = states
    event = {itt: hi} if treated_only else {}
    tables = (model.margin(_single_regime(model, regime, t), [y, *event]) for t in (hi, lo))
    hi_mean, lo_mean = (table.expectation(y, event) for table in tables)
    return hi_mean - lo_mean


# -- study simulation ----------------------------------------------------


def study_model(covariate: Mapping, assignment: Mapping, response: Mapping) -> MultiRegimeModel:
    """An exchangeable-unit study as a one-regime ITT model: covariate X,
    selection T* | X with P(T*=1 | x) = assignment[x], applied treatment T set
    by regime F_T with T* as its ITT source, and Y | X, T whose states are the
    outcomes in the order the rows first name them.  Units are i.i.d. (no
    interference between units); building the model checks every row."""
    outcomes = tuple(dict.fromkeys(itertools.chain.from_iterable(response.values())))
    cpts = {
        "X": Cpt((), {(): tuple(covariate.values())}),
        "T*": Cpt(("X",), {(x,): (1.0 - a, a) for x, a in assignment.items()}),
        "Y": Cpt(("X", "T"), {k: tuple(d.get(y, 0.0) for y in outcomes) for k, d in response.items()}),
    }
    states = {"X": tuple(covariate), "T*": (0, 1), "T": (0, 1), "Y": outcomes}
    return MultiRegimeModel(states, cpts=cpts, regimes={"F_T": ("T", "T*")})


@dataclass(frozen=True)
class StudyResult:
    n: int
    treated_mean: float | None
    control_mean: float | None
    treated_se: float | None
    control_se: float | None
    interventional_means: dict[int, float]


def simulate_study(model: MultiRegimeModel, n: int, seed: int) -> StudyResult:
    """`n` units drawn with `seed` from a `study_model`'s CPTs (X, then T* | X,
    then Y | X, T group by group), and the model's exact E(Y | F_T=t)."""
    if n < 1:
        raise ModelError("n must be at least 1")
    if n > MAX_UNITS:
        raise ModelError(f"n must be at most {MAX_UNITS}")
    means = {t: model.margin({"F_T": t}, ["Y"]).expectation("Y") for t in (0, 1)}
    rng = np.random.default_rng(seed)
    xs, cpts = model.states["X"], model.cpts
    px = np.array(cpts["X"].table[()], dtype=float)
    x_idx = rng.choice(len(xs), size=n, p=px / px.sum())
    assign = np.array([cpts["T*"].table[(x,)][1] for x in xs], dtype=float)
    t = (rng.random(n) < assign[x_idx]).astype(int)
    values = np.array(model.states["Y"], dtype=float)
    y = np.empty(n)
    for i, x in enumerate(xs):  # group-wise draws keep this O(groups) rng calls
        for arm in (0, 1):
            mask = (x_idx == i) & (t == arm)
            count = int(mask.sum())
            if count == 0:
                continue
            probs = np.array(cpts["Y"].table[(x, arm)], dtype=float)
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


# -- JSON documents ------------------------------------------------------


def model_from_json(doc: Mapping) -> MultiRegimeModel:
    try:
        fields = _model_fields(doc)
    except KeyError as exc:
        raise ModelError(f"model document is missing required key {exc.args[0]!r}") from None
    return MultiRegimeModel(**fields)


def _model_fields(doc: Mapping) -> dict:
    """The constructor arguments a model document spells out; a missing
    required key raises KeyError."""
    mode = doc.get("mode")
    variables = json_objects(doc["variables"], "variables")
    states = _keyed(((v["name"], json_array(v["states"], "'states'")) for v in variables), lambda n: f"variable {n!r}")
    regime_docs = json_objects(doc.get("regimes", []), "regimes")
    regimes = _keyed(((r["name"], (r["target"], r.get("itt"))) for r in regime_docs), lambda name: f"regime {name!r}")
    for r in regime_docs:
        if "itt" not in r:
            raise ModelError(f"missing ITT source for target {r['target']!r}")
    targets = [target for target, _ in regimes.values()]  # not a set: a malformed target may be unhashable
    for v in variables:
        if v.get("deterministic") and v["name"] not in targets:
            raise ModelError(f"variable {v['name']!r} is marked deterministic but no regime targets it")
    if mode == "itt":
        cpt_docs = json_objects(doc.get("cpts", []), "cpts")
        cpts = _keyed(
            ((c["child"], Cpt(json_array(c["parents"], "'parents'"), _cpt_rows(c))) for c in cpt_docs),
            lambda child: f"CPT for {child!r}",
        )
        latent = frozenset(v["name"] for v in variables if v.get("latent"))
        return dict(states=states, latent=latent, cpts=cpts, regimes=regimes)
    if mode == "raw":
        raw = keyed(
            map(_raw_table, json_objects(doc["raw_regimes"], "raw_regimes")),
            lambda key: ModelError(f"duplicate raw table for regime assignment {dict(key)}"),
        )
        return dict(states=states, raw_regimes=raw, regimes=regimes)
    raise ModelError(f"unknown mode {mode!r}")


def _raw_table(entry: Mapping) -> tuple[tuple, np.ndarray]:
    assignment = _freeze_assignment(json_object(entry["assignment"], "'assignment'"))
    return assignment, np.asarray(json_array(entry["probs"], "'probs'"), dtype=float)


def _cpt_rows(doc: Mapping) -> dict[tuple, tuple[float, ...]]:
    rows = json_objects(doc["rows"], "rows")
    return _keyed(
        ((json_array(r["parents"], "'parents'"), json_array(r["probs"], "'probs'")) for r in rows),
        lambda key: f"CPT row {list(key)} for {doc['child']!r}",
    )


def _keyed(pairs: Iterable[tuple], what) -> dict:
    """A dict of (key, value) pairs; a repeated key raises ModelError naming it as `what(key)`."""
    return keyed(pairs, lambda key: ModelError(f"{what(key)} is listed twice"))


def load_model(path) -> MultiRegimeModel:
    return model_from_json(load_json(path))


def study_from_json(doc: Mapping) -> MultiRegimeModel:
    """The `study_model` that a study spec document spells out."""
    try:
        rows = json_array(doc["response"], "'response'")
        response = _keyed(map(_response_row, rows), lambda key: f"response row for x={key[0]!r}, t={key[1]}")
        return study_model(_numbers(doc, "covariate"), _numbers(doc, "assignment"), response)
    except KeyError as exc:
        raise ModelError(f"study spec document is missing required key {exc.args[0]!r}") from None


def _numbers(doc: Mapping, key: str) -> dict[State, float]:
    """The object `doc[key]` with each value read by `_finite`."""
    return {x: _finite(v, f"{key} value {v!r} for {x!r}") for x, v in json_object(doc[key], f"'{key}'").items()}


def _response_row(row) -> tuple[tuple[State, int], dict[float, float]]:
    row = json_object(row, "a 'response' row")
    t = row["t"]
    # Not isinstance: a JSON boolean would pass as an int.  An int other than 0 or 1 fails as a CPT row of 'Y'.
    if type(t) is not int:
        raise ModelError(f"response row 't' must be 0 or 1, not {t!r}")
    x = row["x"]
    if isinstance(x, (list, dict)):
        raise ModelError(f"response row 'x' must be a covariate value, not {x!r} (the row for t={t})")
    where = f"the response row for x={x!r}, t={t}"
    outcomes = _keyed(
        (
            (_finite(y, f"outcome {y!r} of {where}"), _finite(p, f"probability {p!r} for outcome {y!r} of {where}"))
            for y, p in json_object(row["dist"], "'dist'").items()
        ),
        lambda y: f"outcome {y} of {where}",
    )
    return (x, t), outcomes


def _finite(value, what: str) -> float:
    """`value` as a finite float, else ModelError naming it as `what`."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ModelError(f"{what} is not a finite number")
    return number

