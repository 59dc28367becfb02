"""Shared builders: reference graphs, random graphs/models, CI checking."""

from __future__ import annotations

import itertools
import pathlib
import re

import numpy as np
import pytest

from dtcausal.decision import FiniteDist
from dtcausal.graph import IDLE, REGIME, STOCHASTIC, Dag, Edge, Node
from dtcausal.oracle import Cpt, JointTable, MultiRegimeModel, total_variation

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> pathlib.Path:
    return CORPUS


_PARSE_ERROR = re.compile(r"line (\d+), column (\d+): (.*?)(?: \(expected (.*)\))?", re.DOTALL)


def parse_error(exc: BaseException) -> tuple[int, int, str, tuple[str, ...]]:
    """The line, column, message and expected tokens that a parse error's
    text spells out as ``line L, column C: message (expected A, B)``."""
    m = _PARSE_ERROR.fullmatch(str(exc))
    assert m, f"not a positioned parse error: {exc}"
    line, column, message, expected = m.groups()
    return int(line), int(column), message, tuple(expected.split(", ")) if expected else ()


# -- reference graphs ------------------------------------------------------


def simple_treatment_dag() -> Dag:
    return Dag.of({Node("F_T", REGIME), Node("T"), Node("Y")}, {Edge("F_T", "T"), Edge("T", "Y")})


def instrument_dag() -> Dag:
    return Dag.of(
        {Node("F_X", REGIME), Node("X"), Node("Y"), Node("Z"), Node("U", latent=True)},
        {Edge("Z", "X"), Edge("U", "X"), Edge("U", "Y"), Edge("X", "Y"), Edge("F_X", "X")},
    )


def itt_nonignorable_dag() -> Dag:
    """Treatment trio plus a direct ITT -> response arrow (confounded assignment)."""
    return Dag.of(
        {Node("F_T", REGIME), Node("T", deterministic=True), Node("T*", latent=True), Node("Y")},
        {Edge("F_T", "T"), Edge("T*", "T", dashed=True), Edge("T*", "Y"), Edge("T", "Y")},
    )


def itt_ignorable_dag() -> Dag:
    return Dag.of(
        {Node("F_T", REGIME), Node("T", deterministic=True), Node("T*", latent=True), Node("Y")},
        {Edge("F_T", "T"), Edge("T*", "T", dashed=True), Edge("T", "Y")},
    )


def two_stage_obs_dag(extra_confounding: bool = False) -> Dag:
    edges = {Edge("X0", "Z"), Edge("H", "Z"), Edge("H", "X1"), Edge("Z", "X1"), Edge("Z", "Y"), Edge("X1", "Y")}
    if extra_confounding:
        edges.add(Edge("H", "Y"))
    return Dag.of({Node("X0"), Node("Z"), Node("X1"), Node("Y"), Node("H", latent=True)}, edges)


def suffcov_itt_dag() -> Dag:
    return Dag.of(
        {Node("F_T", REGIME), Node("T", deterministic=True), Node("T*", latent=True), Node("X"), Node("Y")},
        {Edge("X", "T*"), Edge("X", "Y"), Edge("T*", "T", dashed=True), Edge("F_T", "T"), Edge("T", "Y")},
    )


def suffcov_dag() -> Dag:
    return Dag.of(
        {Node("F_T", REGIME), Node("T"), Node("X"), Node("Y")},
        {Edge("F_T", "T"), Edge("X", "T"), Edge("X", "Y"), Edge("T", "Y")},
    )


# -- random graphs ---------------------------------------------------------


def random_dag(rng: np.random.Generator, max_nodes: int = 10, regime_prob: float = 0.3) -> Dag:
    """Random DAG over lexicographically ordered stochastic nodes, optionally
    with regime founders pointing at random stochastic nodes."""
    n = int(rng.integers(2, max_nodes + 1))
    names = [f"V{i}" for i in range(n)]
    nodes = {Node(v) for v in names}
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                edges.add(Edge(names[i], names[j]))
    if rng.random() < regime_prob:
        target = names[int(rng.integers(0, n))]
        nodes.add(Node("F_R", REGIME))
        edges.add(Edge("F_R", target))
    return Dag.of(nodes, edges)


# -- random models (flat simplex CPTs, explicit seeds) ---------------------


def random_cpt(rng: np.random.Generator, child: str, parents: tuple[str, ...], states: dict[str, tuple]) -> Cpt:
    rows = {}
    for combo in itertools.product(*(states[p] for p in parents)):
        rows[combo] = tuple(rng.dirichlet(np.ones(len(states[child]))))
    return Cpt(parents, rows)


def random_itt_nonignorable_model(seed: int) -> MultiRegimeModel:
    rng = np.random.default_rng(seed)
    states = {"T*": (0, 1), "T": (0, 1), "Y": (0, 1)}
    cpts = {
        "T*": random_cpt(rng, "T*", (), states),
        "Y": random_cpt(rng, "Y", ("T", "T*"), states),
    }
    return MultiRegimeModel(states, latent=frozenset({"T*"}), cpts=cpts, regimes={"F_T": ("T", "T*")})


def random_itt_ignorable_model(seed: int) -> MultiRegimeModel:
    rng = np.random.default_rng(seed)
    states = {"T*": (0, 1), "T": (0, 1), "Y": (0, 1)}
    cpts = {
        "T*": random_cpt(rng, "T*", (), states),
        "Y": random_cpt(rng, "Y", ("T",), states),
    }
    return MultiRegimeModel(states, latent=frozenset({"T*"}), cpts=cpts, regimes={"F_T": ("T", "T*")})


def random_suffcov_model(seed: int) -> MultiRegimeModel:
    rng = np.random.default_rng(seed)
    states = {v: (0, 1) for v in ("X", "T*", "T", "Y")}
    cpts = {
        "X": random_cpt(rng, "X", (), states),
        "T*": random_cpt(rng, "T*", ("X",), states),
        "Y": random_cpt(rng, "Y", ("X", "T"), states),
    }
    return MultiRegimeModel(states, latent=frozenset({"T*"}), cpts=cpts, regimes={"F_T": ("T", "T*")})


def two_stage_itt_dag(extra_confounding: bool = False) -> Dag:
    nodes = {
        Node("F_X0", REGIME), Node("X0", deterministic=True), Node("X0*", latent=True),
        Node("F_X1", REGIME), Node("X1", deterministic=True), Node("X1*", latent=True),
        Node("H", latent=True), Node("Z"), Node("Y"),
    }
    edges = {
        Edge("F_X0", "X0"), Edge("X0*", "X0", dashed=True), Edge("X0", "Z"), Edge("H", "Z"),
        Edge("H", "X1*"), Edge("Z", "X1*"), Edge("X1*", "X1", dashed=True), Edge("F_X1", "X1"),
        Edge("Z", "Y"), Edge("X1", "Y"),
    }
    if extra_confounding:
        edges.add(Edge("H", "Y"))
    return Dag.of(nodes, edges)


def random_two_stage_model(seed: int, extra_confounding: bool = False) -> MultiRegimeModel:
    rng = np.random.default_rng(seed)
    states = {v: (0, 1) for v in ("X0*", "X0", "X1*", "X1", "H", "Z", "Y")}
    y_parents = ("Z", "X1", "H") if extra_confounding else ("Z", "X1")
    cpts = {
        "X0*": random_cpt(rng, "X0*", (), states),
        "H": random_cpt(rng, "H", (), states),
        "Z": random_cpt(rng, "Z", ("X0", "H"), states),
        "X1*": random_cpt(rng, "X1*", ("H", "Z"), states),
        "Y": random_cpt(rng, "Y", y_parents, states),
    }
    return MultiRegimeModel(
        states, latent=frozenset({"X0*", "X1*", "H"}), cpts=cpts,
        regimes={"F_X0": ("X0", "X0*"), "F_X1": ("X1", "X1*")},
    )


def random_model_from_dag(dag: Dag, seed: int, n_states: int = 2) -> MultiRegimeModel:
    """Purely stochastic, single-regime-free model following the DAG's edges
    (used to manufacture distributions satisfying given independencies)."""
    rng = np.random.default_rng(seed)
    order = [n.name for n in sorted(dag.nodes) if n.kind == STOCHASTIC]
    states = {v: tuple(range(n_states)) for v in order}
    cpts = {v: random_cpt(rng, v, tuple(sorted(dag.parents(v))), states) for v in order}
    return MultiRegimeModel(states, cpts=cpts)


# -- tables and distributions ----------------------------------------------


def prob_of(table: JointTable, event: dict) -> float:
    """The probability of `event`, a partial assignment of states, in `table`."""
    return float(table.probs[table._index(event)].sum())


def interventional_mean(study: MultiRegimeModel, t: int) -> float:
    """E(Y | F_T=t) in a study model."""
    return study.joint({"F_T": t}).expectation("Y")


def arm_mean(study: MultiRegimeModel, t: int) -> float:
    """E(Y | T=t) in a study model's observational regime: the exact mean
    outcome among units selected for (and given) arm t."""
    return study.joint({"F_T": IDLE}).expectation("Y", {"T": t})


def finite_dist(table: dict) -> FiniteDist:
    """The FiniteDist of an outcome -> probability table, outcomes sorted by repr."""
    return FiniteDist(tuple(sorted(table.items(), key=lambda kv: repr(kv[0]))))


def ci_holds_in_table(
    table: JointTable, left: set[str], right: set[str], given: set[str], tol: float = 1e-9
) -> bool:
    """Plain conditional independence check on one joint table."""
    right = right - given  # conditioning dominates (X _||_ Y | Y is vacuous)
    left_s, given_s = sorted(left), sorted(given)
    var_states = {v: table.states[table.axis(v)] for v in table.variables}
    for g_combo in itertools.product(*(var_states[v] for v in given_s)):
        base = dict(zip(given_s, g_combo))
        reference = None
        for r_combo in itertools.product(*(var_states[v] for v in sorted(right))):
            event = {**base, **dict(zip(sorted(right), r_combo))}
            if event and prob_of(table, event) <= 1e-12:
                continue
            dist = table.conditional(left_s, event)
            if dist is None:
                continue
            if reference is None:
                reference = dist
            elif total_variation(reference, dist) > tol:
                return False
    return True
