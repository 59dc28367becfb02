import numpy as np
import pytest

from dtcausal.eci import MAX_VARIABLES, ProofStep, ProofTrace, Universe, UniverseError, closure, derivable
from dtcausal.graph import Dag, Edge, Node
from dtcausal.statements import EciStatement, StatementError, parse_premise_file, parse_statement as ps

from conftest import ci_holds_in_table, random_model_from_dag


U4 = Universe.of(["W", "X", "Y", "Z"])


class TestUniverse:
    def test_mask_round_trip(self):
        m = U4.mask({"X", "Z"})
        assert U4.names(m) == frozenset({"X", "Z"})

    def test_duplicate_names_rejected(self):
        with pytest.raises(UniverseError):
            Universe.of(["X", "X"])

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
