import random

import numpy as np
import pytest

from dtcausal.eci import (
    MAX_VARIABLES,
    ProofStep,
    ProofTrace,
    Triple,
    Universe,
    UniverseError,
    _apply_axiom,
    _Closure,
    _normalise,
    _refuted,
    closure,
    derivable,
)
from dtcausal.dsep import implied_statements
from dtcausal.graph import REGIME, STOCHASTIC, Dag, Edge, Node, topological_order
from dtcausal.statements import EciStatement, StatementError, parse_premise_file, parse_statement as ps

from conftest import ci_holds_in_table, random_model_from_dag


U4 = Universe.of(["W", "X", "Y", "Z"])
WIDE = Universe.of([f"V{i}" for i in range(MAX_VARIABLES - 2)], ["F1", "F2"])  # regimes on the top bits


class TestUniverse:
    def test_mask_round_trip(self):
        m = U4.mask({"X", "Z"})
        assert U4.names(m) == frozenset({"X", "Z"})
        assert m.bit_length() == len(U4.variables)  # the set holds the highest bit
        assert U4.names(U4.regime_mask) == frozenset()

    def test_mask_round_trip_widest_universe(self):
        m = WIDE.mask({"V0", "V3", "F2"})
        assert WIDE.names(m) == frozenset({"V0", "V3", "F2"})
        assert m.bit_length() == len(WIDE.variables)  # the set holds the highest bit
        assert WIDE.names(WIDE.regime_mask) == frozenset({"F1", "F2"})

    def test_duplicate_names_rejected(self):
        with pytest.raises(UniverseError):
            Universe.of(["X", "X"])

    def test_replace_runs_the_checks(self):
        with pytest.raises(UniverseError, match="^duplicate variable names$"):
            U4._replace(variables=U4.variables + U4.variables[:1])

    def test_variable_bound(self):
        with pytest.raises(UniverseError):
            Universe.of([f"V{i}" for i in range(MAX_VARIABLES + 1)])

    def test_unknown_variable(self):
        with pytest.raises(UniverseError):
            U4.mask({"nope"})

    def test_pinned_statements_rejected(self):
        with pytest.raises(UniverseError):
            Universe.of(["X", "Y"], ["F"]).to_triple(ps("X _||_ Y | F=1"))


class TestClosure:
    def test_contraction(self):
        out = closure([ps("X _||_ Y | Z"), ps("X _||_ W | Y, Z")], U4)
        assert ps("X _||_ Y, W | Z") in out

    def test_intersection_never_applied(self):
        out = closure([ps("X _||_ Y | Z, W"), ps("X _||_ Z | Y, W")], U4)
        assert ps("X _||_ Y, Z | W") not in out

    def test_symmetry(self):
        out = closure([ps("X _||_ Y | Z")], U4)
        assert ps("Y _||_ X | Z") in out

    def test_decomposition_and_weak_union(self):
        out = closure([ps("X _||_ Y, W | Z")], U4)
        assert ps("X _||_ Y | Z") in out  # decomposition
        assert ps("X _||_ Y | Z, W") in out  # weak union

    def test_redundancy_instances_present(self):
        out = closure([], U4)
        assert ps("X _||_ Y | Y") in out

    def test_symmetry_blocked_for_regime_left_without_flag(self):
        uni = Universe.of(["W"], ["F"])
        out = closure([ps("W _||_ F")], uni)
        assert ps("W _||_ F") in out
        assert EciStatement(frozenset({"F"}), frozenset({"W"})) not in out

    def test_symmetry_allowed_with_regimes_as_stochastic(self):
        uni = Universe.of(["W"], ["F"])
        out = closure([ps("W _||_ F")], uni, regimes_as_stochastic=True)
        assert EciStatement(frozenset({"F"}), frozenset({"W"})) in out

    def test_deterministic_output(self):
        premises = [ps("X _||_ Y | Z"), ps("X _||_ W | Y, Z")]
        assert closure(premises, U4) == closure(premises, U4)


class TestDerivable:
    def test_premise_is_one_step(self):
        ok, trace = derivable([ps("X _||_ Y | Z")], ps("X _||_ Y | Z"), U4)
        assert ok and len(trace.steps) == 1 and trace.steps[0].axiom == "Premise"

    def test_contraction_target(self):
        ok, trace = derivable([ps("X _||_ Y | Z"), ps("X _||_ W | Y, Z")], ps("X _||_ Y, W | Z"), U4)
        assert ok
        assert trace.steps[-1].output == ps("X _||_ Y, W | Z")
        assert any(s.axiom == "P5" for s in trace.steps)

    def test_intersection_pattern_refused(self):
        ok, trace = derivable(
            [ps("X _||_ Y | Z, W"), ps("X _||_ Z | Y, W")], ps("X _||_ Y, Z | W"), U4
        )
        assert not ok and trace is None

    def test_vacuous_empty_right(self):
        ok, trace = derivable([], EciStatement(frozenset({"X"}), frozenset()), U4)
        assert ok and len(trace.steps) == 1

    def test_trace_inputs_precede(self):
        ok, trace = derivable([ps("X _||_ Y | Z"), ps("X _||_ W | Y, Z")], ps("W, Y _||_ X | Z"), U4)
        assert ok
        for i, step in enumerate(trace.steps):
            assert all(j < i for j in step.inputs)


NESTED_UNIVERSE = Universe.of(["W1", "W2"], ["F1", "F2"])
NESTED_PREMISES = [
    ps("F1 _||_ F2"),  # mutual regime independence
    ps("W1 _||_ F2 | F1"),  # earlier variables unaffected by later regimes
    ps("W2 _||_ F1 | F2, W1"),  # later variables screened from earlier regimes
]


class TestNestedRandomisation:
    """Two-stage sequential-randomisation derivations (regimes treated as
    stochastic purely as an instrumental device)."""

    def test_base_case(self):
        ok, trace = derivable(
            NESTED_PREMISES, ps("F2 _||_ F1 | W1"), NESTED_UNIVERSE, regimes_as_stochastic=True
        )
        assert ok
        assert trace.replay(NESTED_UNIVERSE) == ps("F2 _||_ F1 | W1")

    def test_contraction_step(self):
        ok, _ = derivable(
            NESTED_PREMISES, ps("F2, W2 _||_ F1 | W1"), NESTED_UNIVERSE, regimes_as_stochastic=True
        )
        assert ok

    def test_weak_union_step(self):
        ok, _ = derivable(
            NESTED_PREMISES, ps("F2 _||_ F1 | W1, W2"), NESTED_UNIVERSE, regimes_as_stochastic=True
        )
        assert ok

    def test_base_case_needs_the_flag(self):
        ok, _ = derivable(NESTED_PREMISES, ps("F2 _||_ F1 | W1"), NESTED_UNIVERSE)
        assert not ok


class TestTraceReplay:
    def test_replay_every_closure_member(self):
        premises = [ps("X _||_ Y | Z"), ps("X _||_ W | Y, Z")]
        for target in sorted(closure(premises, U4), key=str):
            ok, trace = derivable(premises, target, U4)
            assert ok
            assert trace.replay(U4) == target
            assert trace.replay(U4, premises=premises) == target

    def test_bogus_trace_rejected(self):
        trace = ProofTrace(
            (
                ProofStep("Premise", (), ps("X _||_ Y | Z")),
                ProofStep("P5", (0, 0), ps("X _||_ Y, W | Z")),
            )
        )
        with pytest.raises(StatementError):
            trace.replay(U4)

    def test_forged_redundancy_step_rejected(self):
        trace = ProofTrace((ProofStep("P2", (), ps("X _||_ Y | Z")),))
        with pytest.raises(StatementError, match="redundancy"):
            trace.replay(U4)

    def test_redundancy_step_replays(self):
        assert ProofTrace((ProofStep("P2", (), ps("X _||_ Y | Y, Z")),)).replay(U4) == ps("X _||_ Y | Y, Z")

    def test_forged_premise_rejected_when_premises_given(self):
        trace = ProofTrace((ProofStep("Premise", (), ps("X _||_ Y")),))
        assert trace.replay(U4) == ps("X _||_ Y")  # unchecked without the premise list
        with pytest.raises(StatementError, match="premises"):
            trace.replay(U4, premises=[ps("X _||_ Y | Z")])

    def test_empty_trace_rejected(self):
        with pytest.raises(StatementError, match="empty"):
            ProofTrace(()).replay(U4)

    def test_forward_input_rejected(self):
        trace = ProofTrace((ProofStep("P1", (1,), ps("Y _||_ X")), ProofStep("Premise", (), ps("X _||_ Y"))))
        with pytest.raises(StatementError, match="earlier step"):
            trace.replay(U4)

    def test_negative_input_rejected(self):
        # produced[-1] would read the last step so far: the premise, whose P1 is the output
        trace = ProofTrace((ProofStep("Premise", (), ps("X _||_ Y")), ProofStep("P1", (-1,), ps("Y _||_ X"))))
        with pytest.raises(StatementError, match="earlier step"):
            trace.replay(U4)

    @pytest.mark.parametrize("axiom, output", [("Premise", "X _||_ Y | Z"), ("P2", "X _||_ Y | Y")])
    def test_input_free_step_with_inputs_rejected(self, axiom, output):
        trace = ProofTrace((ProofStep("Premise", (), ps("X _||_ Y")), ProofStep(axiom, (0,), ps(output))))
        with pytest.raises(StatementError, match="with inputs"):
            trace.replay(U4)

    def test_regime_left_symmetry_rejected_without_flag(self):
        uni = Universe.of(["W"], ["F"])
        trace = ProofTrace((ProofStep("Premise", (), ps("W _||_ F")), ProofStep("P1", (0,), ps("F _||_ W"))))
        assert trace.replay(uni) == ps("F _||_ W")
        with pytest.raises(StatementError, match="P1"):
            trace.replay(uni, regimes_as_stochastic=False)


# -- the closure before indexed contraction, kept as a reference ---------------


def loop_closure(self, premises: list[Triple]) -> None:
    """Reference: `_Closure.run` as it was before contraction partners were
    looked up by index; each round pairs every frontier triple with every
    known triple of the same left side, and the run always reaches the
    fixpoint.  Called with a `_Closure` as `self`."""
    reg = self.universe.regime_mask
    for p in premises:
        t = _normalise(p)
        if t is not None and t not in self.derivation:
            self.derivation[t] = ("Premise", ())
    # Redundancy (P2) instances over single variables.
    n = len(self.universe.variables)
    for i in range(n):
        if not self.regimes_as_stochastic and (1 << i) & reg:
            continue
        for j in range(n):
            if i != j:
                t = (1 << i, 1 << j, 1 << j)
                self.derivation.setdefault(t, ("P2", ()))
    frontier = sorted(self.derivation)
    known = set(self.derivation)
    while frontier:
        new: dict[Triple, tuple[str, tuple[Triple, ...]]] = {}

        def emit(t: Triple, axiom: str, ins: tuple[Triple, ...]) -> None:
            if t not in known and t not in new:
                new[t] = (axiom, ins)

        by_left: dict[int, list[Triple]] = {}
        for t in known:
            by_left.setdefault(t[0], []).append(t)
        for s in frontier:
            for axiom in ("P1", "P3", "P4"):
                for t in sorted(_apply_axiom(axiom, [s], reg, self.regimes_as_stochastic)):
                    emit(t, axiom, (s,))
            # Contraction pairs s with every known same-left statement, both ways.
            for other in sorted(by_left.get(s[0], ())):
                for first, second in ((s, other), (other, s)):
                    for t in sorted(_apply_axiom("P5", [first, second], reg, self.regimes_as_stochastic)):
                        emit(t, "P5", (first, second))
        self.derivation.update(new)
        known |= set(new)
        frontier = sorted(new)


def reference_closure(premises, universe, flag) -> _Closure:
    engine = _Closure(universe, flag)
    loop_closure(engine, [universe.to_triple(p) for p in premises])
    return engine


def markov_chain(n):
    v = [f"V{i}" for i in range(n)]
    return [ps(f"{v[i + 1]} _||_ {', '.join(v[:i])} | {v[i]}") for i in range(1, n - 1)], Universe.of(v)


def sequential_randomisation(stages, outcome=False):
    """The bench's sequential-randomisation premises, with the outcome `Y`
    screened from everything earlier by the last stage when `outcome`."""
    f = [f"F{i}" for i in range(1, stages + 1)]
    w = [f"W{i}" for i in range(1, stages + 1)]
    premises = [ps(f"{f[i]} _||_ {', '.join(f[:i])}") for i in range(1, stages)]
    for i in range(stages):
        others = [x for m, x in enumerate(f) if m != i] + w[: max(0, i - 1)]
        cond = [f[i]] + ([w[i - 1]] if i else [])
        premises.append(ps(f"{w[i]} _||_ {', '.join(others)} | {', '.join(cond)}"))
    if outcome:
        premises.append(ps(f"Y _||_ {', '.join(f + w[:-1])} | {w[-1]}"))
        w.append("Y")
    return premises, Universe.of(w, f)


# Without the flag a regime on the left keeps only symmetry, and only to a
# stochastic left: the mixed-left premise gives no decomposition or weak
# union, the two F1-left premises do not contract, and F2 never moves left.
REGIME_LEFT_UNIVERSE = Universe.of(["W1", "W2", "W3"], ["F1", "F2"])
REGIME_LEFT_PREMISES = [
    ps("F1, W1 _||_ W2, W3"),
    ps("F1 _||_ W2"),
    ps("F1 _||_ W3 | W2"),
    ps("W1 _||_ F2 | W2"),
]


def random_premises(seed):
    """Three to five random statements over five variables, one or two of them regimes."""
    rng = random.Random(seed)
    names = ["A", "B", "C", "D", "E"]
    regimes = names[: rng.choice((1, 2))]
    premises = []
    for _ in range(rng.randint(3, 5)):
        order = rng.sample(names, 5)
        cut1, cut2 = sorted(rng.sample(range(1, 5), 2))
        left, right, given = order[:cut1], order[cut1:cut2], order[cut2:][: rng.randint(0, 5 - cut2)]
        text = f"{', '.join(left)} _||_ {', '.join(right)}" + (f" | {', '.join(given)}" if given else "")
        premises.append(ps(text))
    return premises, Universe.of(names[len(regimes):], regimes)


REFERENCE_CASES = {
    "chain5": (*markov_chain(5), False),
    "chain6": (*markov_chain(6), False),
    "nested": (NESTED_PREMISES, NESTED_UNIVERSE, False),
    "nested-stochastic": (NESTED_PREMISES, NESTED_UNIVERSE, True),
    "seqrand3": (*sequential_randomisation(3), False),
    "seqrand3-stochastic": (*sequential_randomisation(3), True),
    "seqrand3-outcome": (*sequential_randomisation(3, outcome=True), False),
    "seqrand3-outcome-stochastic": (*sequential_randomisation(3, outcome=True), True),
    "regime-left": (REGIME_LEFT_PREMISES, REGIME_LEFT_UNIVERSE, False),
    **{f"random{seed}": (*random_premises(seed), seed % 2 == 0) for seed in range(6)},
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_closure_matches_loop_reference(case):
    premises, universe, flag = REFERENCE_CASES[case]
    reference = reference_closure(premises, universe, flag)
    engine = _Closure(universe, flag)
    engine.run([universe.to_triple(p) for p in premises])
    assert list(engine.derivation.items()) == list(reference.derivation.items())


@pytest.mark.parametrize("case", ["chain5", "nested", "nested-stochastic", "random0"])
def test_derivable_trace_matches_loop_reference(case):
    """Stopping once the target is derived leaves its trace as the full fixpoint gives it."""
    premises, universe, flag = REFERENCE_CASES[case]
    reference = reference_closure(premises, universe, flag)
    for t in reference.derivation:
        target = universe.to_statement(t)
        ok, trace = derivable(premises, target, universe, regimes_as_stochastic=flag)
        assert ok
        assert trace == reference.trace(t), target
        assert trace.replay(universe, premises=premises, regimes_as_stochastic=flag) == target


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_closure_expands_only_normalised_triples(case):
    """Each stored triple is normalised or a single-variable P2 seed (a, b, b),
    and no stored derivation takes a seed as an input."""
    premises, universe, flag = REFERENCE_CASES[case]
    engine = _Closure(universe, flag)
    engine.run([universe.to_triple(p) for p in premises])
    bits = universe.bit.values()
    seeds = {(a, b, b) for a in bits for b in bits if a != b}
    for t, (axiom, ins) in engine.derivation.items():
        if axiom == "P2":
            assert t in seeds
        else:
            assert _normalise(t) == t, (axiom, t)
        assert not seeds.intersection(ins), (axiom, t, ins)


def test_run_stops_after_the_triple_that_derives_the_target():
    """A regime-left triple, which only symmetry applies to, still ends the
    round once it derives the target: the later premise is not swapped."""
    uni = Universe.of(["W1", "W2"], ["F1", "F2"])
    target = uni.to_triple(ps("W1 _||_ F1"))
    engine = _Closure(uni, False)
    engine.run([uni.to_triple(ps("F1 _||_ W1")), uni.to_triple(ps("F2 _||_ W1, W2"))], target)
    assert target in engine.derivation
    assert uni.to_triple(ps("W1, W2 _||_ F2")) not in engine.derivation


class TestPremiseFiles:
    def test_parse_with_comments(self):
        text = "# two premises\nX _||_ Y | Z\n\nX _||_ W | Y, Z  # inline\n"
        assert parse_premise_file(text) == [ps("X _||_ Y | Z"), ps("X _||_ W | Y, Z")]

    def test_error_carries_line(self):
        with pytest.raises(StatementError, match="line 2"):
            parse_premise_file("X _||_ Y\nbogus\n")


# -- numeric soundness ------------------------------------------------------

CONTRACTION_DAG = Dag.of(
    {Node("X"), Node("Y"), Node("Z"), Node("W")},
    {Edge("Z", "X"), Edge("Z", "Y"), Edge("Y", "W")},
)
NESTED_DAG = Dag.of(
    {Node("F1"), Node("F2"), Node("W1"), Node("W2")},
    {Edge("F1", "W1"), Edge("F2", "W2"), Edge("W1", "W2")},
)


def assert_premises_hold(dag, premises, seeds):
    """Guard: the distribution family really satisfies the premises."""
    for seed in seeds:
        table = random_model_from_dag(dag, seed).joint({})
        for prem in premises:
            assert ci_holds_in_table(table, set(prem.left), set(prem.right), set(prem.given))


def test_soundness_contraction_family():
    premises = [ps("X _||_ Y | Z"), ps("X _||_ W | Y, Z")]
    assert_premises_hold(CONTRACTION_DAG, premises, range(3))
    derived = sorted(closure(premises, U4), key=str)
    for seed in range(60):
        table = random_model_from_dag(CONTRACTION_DAG, seed).joint({})
        for stmt in derived:
            assert ci_holds_in_table(table, set(stmt.left), set(stmt.right), set(stmt.given)), stmt


def test_soundness_nested_randomisation_family():
    # Regimes become ordinary root variables of the checking distribution.
    assert_premises_hold(NESTED_DAG, NESTED_PREMISES, range(3))
    derived = sorted(
        closure(NESTED_PREMISES, NESTED_UNIVERSE, regimes_as_stochastic=True), key=str
    )
    for seed in range(60):
        table = random_model_from_dag(NESTED_DAG, seed).joint({})
        for stmt in derived:
            assert ci_holds_in_table(table, set(stmt.left), set(stmt.right), set(stmt.given)), stmt


# -- closure of a DAG's causal input list against d-separation ---------------


def causal_input_dag(seed):
    """Two to six stochastic nodes with random forward edges, and zero to two
    regime founders, each pointing at one or two of them."""
    rng = random.Random(seed)
    names = [f"V{i}" for i in range(rng.randint(2, 6))]
    nodes = {Node(v) for v in names}
    edges = {Edge(a, b) for i, a in enumerate(names) for b in names[i + 1:] if rng.random() < 0.4}
    for k in range(rng.randint(0, 2)):
        nodes.add(Node(f"F{k}", REGIME))
        edges |= {Edge(f"F{k}", t) for t in rng.sample(names, rng.randint(1, 2))}
    return Dag.of(nodes, edges)


def causal_input_list(dag):
    """Each node, founders included, independent of its non-parent predecessors given its parents."""
    order = topological_order(dag)
    out = []
    for i, v in enumerate(order):
        rest = frozenset(order[:i]) - dag.parents(v)
        if rest:
            out.append(EciStatement(frozenset({v}), rest, dag.parents(v)))
    return out


def test_causal_input_closure_is_d_separation():
    """The semigraphoid closure of a DAG's causal input list is its d-separation
    (Verma & Pearl 1990): its elementary statements, listed as
    `implied_statements` lists them, are exactly the implied ones."""
    for seed in range(32):
        dag = causal_input_dag(seed)
        regimes = sorted(n.name for n in dag.nodes if n.kind == REGIME)
        universe = Universe.of(sorted(dag.node_names - set(regimes)), regimes)
        derived = closure(causal_input_list(dag), universe, regimes_as_stochastic=True)
        # A stochastic left, a right outside the given set, and a stochastic
        # pair once, the smaller name on the left.
        elementary = {
            s
            for s in derived
            if len(s.left) == len(s.right) == 1
            and not s.right & s.given
            and dag.kind_of(min(s.left)) == STOCHASTIC
            and (dag.kind_of(min(s.right)) == REGIME or min(s.left) < min(s.right))
        }
        assert elementary == set(implied_statements(dag, dag.node_names)), seed


# -- the premises' candidate DAG refutes before the closure runs --------------


def closure_answer(premises, target, universe, flag):
    """Reference: `derivable` without the refutation, running `_Closure` directly."""
    t = _normalise(universe.to_triple(target))
    if t is None:
        return True, ProofTrace((ProofStep("P2", (), target),))
    engine = _Closure(universe, flag)
    engine.run([universe.to_triple(p) for p in premises], t)
    return (True, engine.trace(t)) if t in engine.derivation else (False, None)


def random_statement(rng, names, max_left):
    """A random statement over `names`: a left side of one to `max_left`
    names, a nonempty right side and any conditioning set of the rest."""
    order = rng.sample(names, len(names))
    cut = rng.randint(1, min(max_left, len(names) - 1))
    end = rng.randint(cut + 1, len(names))
    given = [v for v in order[end:] if rng.random() < 0.5]
    text = f"{', '.join(order[:cut])} _||_ {', '.join(order[cut:end])}" + (f" | {', '.join(given)}" if given else "")
    return ps(text)


def refutation_case(seed):
    """Three to five variables, zero to two of them regimes, with a causal
    input list in a random order or with two to four random premises; and
    four random targets plus up to two members of the premises' closure."""
    rng = random.Random(seed)
    names = [f"V{i}" for i in range(rng.randint(3, 5))]
    regimes = names[: rng.randint(0, 2)]
    universe = Universe.of(names[len(regimes):], regimes)
    if seed % 2:
        premises = [random_statement(rng, names, rng.choice((1, 2))) for _ in range(rng.randint(2, 4))]
    else:
        # The regimes are founders; each later name gets random parents.
        premises = []
        for i, v in enumerate(names):
            parents = frozenset(p for p in names[:i] if v not in regimes and rng.random() < 0.5)
            if frozenset(names[:i]) - parents:
                premises.append(EciStatement(frozenset({v}), frozenset(names[:i]) - parents, parents))
        rng.shuffle(premises)
    flag = rng.random() < 0.5
    derived = sorted(closure(premises, universe, regimes_as_stochastic=flag), key=str)
    targets = [random_statement(rng, names, 2) for _ in range(4)] + rng.sample(derived, min(2, len(derived)))
    return premises, universe, flag, targets


def test_refutation_keeps_every_answer_and_trace():
    """A refuted target is never derivable, so `derivable` answers as the
    closure alone does; the candidate DAG refutes many of the rest."""
    refuted = underivable = derived = 0
    for seed in range(60):
        premises, universe, flag, targets = refutation_case(seed)
        triples = [universe.to_triple(p) for p in premises]
        for target in targets:
            want = closure_answer(premises, target, universe, flag)
            assert derivable(premises, target, universe, regimes_as_stochastic=flag) == want, (seed, target)
            t = _normalise(universe.to_triple(target))
            hit = t is not None and _refuted(triples, t, universe)
            assert not (hit and want[0]), (seed, target)
            derived += want[0]
            underivable += not want[0]
            refuted += hit
    assert derived >= 100 and underivable >= 100
    assert refuted >= underivable / 4, (refuted, underivable)


def test_refuted_chain_target_skips_the_closure(monkeypatch):
    """On the 9-variable Markov chain, whose full closure takes most of a
    second, a target the chain d-connects is answered without closing."""
    premises, universe = markov_chain(9)
    target = ps("V1 _||_ V3 | V5")

    def fail(*args, **kwargs):
        raise AssertionError("the closure ran")

    monkeypatch.setattr(_Closure, "run", fail)
    assert derivable(premises, target, universe) == (False, None)


@pytest.mark.parametrize("target", ["V0 _||_ V1", "V0 _||_ V4 | V8", "V1 _||_ V0 | V6", "V0 _||_ V2 | V5"])
def test_premise_free_names_are_joined_in_the_candidate(monkeypatch, target):
    """The chain's premises start at V2, so V0 and V1 are on no premise's
    left; only the edge the candidate adds between them d-connects these
    targets, which are answered without closing."""
    premises, universe = markov_chain(9)

    def fail(*args, **kwargs):
        raise AssertionError("the closure ran")

    monkeypatch.setattr(_Closure, "run", fail)
    assert derivable(premises, ps(target), universe) == (False, None)


@pytest.mark.parametrize(
    "premises",
    [
        [ps("V1, V2 _||_ V3 | V4")],  # a left side of two names
        [ps("V1 _||_ V4 | V2"), ps("V1 _||_ V4 | V3")],  # two parent sets for V1
        [ps("V1 _||_ V4 | V2"), ps("V2 _||_ V4 | V1")],  # parents in a cycle
    ],
    ids=["wide-left", "two-parent-sets", "cycle"],
)
def test_no_candidate_dag_refutes_nothing(premises):
    """Each list has no candidate DAG, though a DAG that gave the wide
    left side the parent V4, or V1 its first parent set, would refute."""
    universe = Universe.of(["V1", "V2", "V3", "V4"])
    target = universe.to_triple(ps("V1 _||_ V2"))
    assert not _refuted([universe.to_triple(p) for p in premises], target, universe)
