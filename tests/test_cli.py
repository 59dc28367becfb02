import contextlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dtcausal
from dtcausal import cli, decision, dsep, oracle
from dtcausal.cli import main

from conftest import CORPUS

MODELS = CORPUS / "models"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code = main(["--json", *argv])
    captured = capsys.readouterr()
    return code, json.loads(captured.out) if captured.out else None, captured.err


class TestDsep:
    def test_holds(self, capsys):
        code, out, _ = run(capsys, "dsep", str(CORPUS / "itt_ignorable.cadt"), "--query", "Y _||_ T*, F_T | T")
        assert code == 0
        assert out.strip() == "holds"

    def test_does_not_hold(self, capsys):
        code, out, _ = run(capsys, "dsep", str(CORPUS / "itt_nonignorable.cadt"), "--query", "Y _||_ F_T | T")
        assert code == 1
        assert out.strip() == "does not hold"

    def test_json_output(self, capsys):
        code, doc, _ = run_json(capsys, "dsep", str(CORPUS / "itt_ignorable.cadt"), "--query", "Y _||_ F_T | T")
        assert code == 0
        assert doc == {"statement": "Y _||_ F_T | T", "holds": True}

    def test_non_idle_pin_fixes_its_treatment(self, capsys, tmp_path):
        # T is constant under F_T=1, so its two children are independent.
        source = tmp_path / "pinned.cadt"
        source.write_text(textwrap.dedent("""
            graph pinned {
              node T deterministic;
              node T* latent;
              node W;
              node Y;
              regime F_T targets T;
              edge T* -> T dashed;
              edge T -> W;
              edge T -> Y;
            }
        """))
        code, out, _ = run(capsys, "dsep", str(source), "--query", "Y _||_ W | F_T=1")
        assert (code, out.strip()) == (0, "holds")
        code, out, _ = run(capsys, "dsep", str(source), "--query", "Y _||_ W | F_T=~")
        assert (code, out.strip()) == (1, "does not hold")

    def test_bad_query_is_usage_error(self, capsys):
        code, _, err = run(capsys, "dsep", str(CORPUS / "itt_ignorable.cadt"), "--query", "Y _||_")
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "dsep", "/nonexistent.cadt", "--query", "A _||_ B")
        assert code == 2
        assert err


class TestDerive:
    def test_derivable_with_regimes_stochastic(self, capsys):
        code, out, _ = run(
            capsys, "derive", str(CORPUS / "nested_randomisation.eci"),
            "--target", "F2 _||_ F1 | W1",
            "--regime", "F1", "--regime", "F2", "--regimes-stochastic",
        )
        assert code == 0
        assert out.startswith("derived")
        assert "P" in out  # trace lines name the axiom applied at each step

    def test_refused_without_flag(self, capsys):
        code, out, _ = run(
            capsys, "derive", str(CORPUS / "nested_randomisation.eci"),
            "--target", "F2 _||_ F1 | W1",
            "--regime", "F1", "--regime", "F2",
        )
        assert code == 3
        assert out.strip() == "not derivable"

    def test_refused_json(self, capsys):
        code, doc, _ = run_json(
            capsys, "derive", str(CORPUS / "nested_randomisation.eci"),
            "--target", "F2 _||_ F1 | W1",
            "--regime", "F1", "--regime", "F2",
        )
        assert code == 3
        assert doc == {"derived": False}

    def test_intersection_pattern_refused(self, capsys):
        code, out, _ = run(
            capsys, "derive", str(CORPUS / "invalid_intersection.eci"),
            "--target", "X _||_ Y, Z | W",
        )
        assert code == 3

    def test_contraction(self, capsys):
        code, out, _ = run(
            capsys, "derive", str(CORPUS / "contraction.eci"),
            "--target", "X _||_ Y, W | Z",
        )
        assert code == 0

    def test_unused_regime_is_usage_error(self, capsys):
        # A misspelt --regime must not leave the intended regime stochastic.
        code, out, err = run(
            capsys, "derive", str(CORPUS / "contraction.eci"),
            "--target", "X _||_ Y, W | Z", "--regime", "Nope",
        )
        assert code == 2
        assert out == ""
        assert err == "error: --regime 'Nope' names no variable of the premises or the target\n"

    def test_json_trace(self, capsys):
        code, doc, _ = run_json(
            capsys, "derive", str(CORPUS / "contraction.eci"),
            "--target", "X _||_ Y, W | Z",
        )
        assert code == 0
        assert doc["derived"] is True
        assert all({"axiom", "inputs", "statement"} <= set(step) for step in doc["trace"])

    def test_pinned_target_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "derive", str(CORPUS / "nested_randomisation.eci"),
            "--target", "W2 _||_ F1 | F2=1",
            "--regime", "F1", "--regime", "F2",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestAugmentProject:
    def test_empty_plan_is_unknown_node(self, capsys):
        code, out, err = run(capsys, "augment", str(CORPUS / "two_stage_obs.cadt"), "--plan", "")
        assert (code, out, err) == (2, "", "error: unknown node ''\n")

    def test_augment_uses_file_plan(self, capsys):
        code, out, _ = run(capsys, "augment", str(CORPUS / "two_stage_obs.cadt"))
        assert code == 0
        assert "regime F_X0 targets X0;" in out
        assert "regime F_X1 targets X1;" in out

    def test_itt_construction(self, capsys):
        code, out, _ = run(capsys, "augment", str(CORPUS / "two_stage_obs.cadt"), "--itt")
        assert code == 0
        assert "node X0* latent;" in out
        assert "edge X0* -> X0 dashed;" in out

    def test_augmented_input_rejected(self, capsys):
        code, _, err = run(capsys, "augment", str(CORPUS / "simple_treatment.cadt"))
        assert code == 2
        assert "observational" in err

    def test_plan_override(self, capsys):
        code, out, _ = run(capsys, "augment", str(CORPUS / "two_stage_obs.cadt"), "--plan", "X0")
        assert code == 0
        assert "regime F_X0 targets X0;" in out
        assert "F_X1" not in out

    def test_missing_plan(self, capsys):
        code, _, err = run(capsys, "augment", str(CORPUS / "instrument.cadt"))
        assert code == 2
        assert "plan" in err

    def test_project_success(self, capsys):
        code, out, _ = run(capsys, "project", str(CORPUS / "itt_ignorable.cadt"), "--drop", "T*")
        assert code == 0
        assert "T*" not in out

    def test_project_failure(self, capsys, tmp_path):
        # dropped confounder with two otherwise-unrelated children cannot
        # be expressed without a bidirected edge
        source = tmp_path / "unprojectable.cadt"
        source.write_text(
            "graph g {\n  node H latent;\n  node A;\n  node B;\n  node C;\n  node D;\n"
            "  edge H -> A;\n  edge H -> B;\n  edge C -> A;\n  edge D -> B;\n}\n"
        )
        code, _, err = run(capsys, "project", str(source), "--drop", "H")
        assert code == 1
        assert "not DAG-projectable" in err

    def test_project_failure_json(self, capsys, tmp_path):
        source = tmp_path / "unprojectable.cadt"
        source.write_text(
            "graph g {\n  node H latent;\n  node A;\n  node B;\n  node C;\n  node D;\n"
            "  edge H -> A;\n  edge H -> B;\n  edge C -> A;\n  edge D -> B;\n}\n"
        )
        code, out, err = run(capsys, "--json", "project", str(source), "--drop", "H")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "not DAG-projectable" in err


class TestVerify:
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tol_must_be_finite_and_nonnegative(self, capsys, tol):
        # With NaN or inf no difference exceeds the tolerance, so this failing check would hold.
        argv = ["verify", str(MODELS / "itt_example.json"), "--check", "ignorability", "--y", "Y", "--action", "T"]
        assert run(capsys, *argv)[0] == 1
        code, out, err = run(capsys, *argv, "--tol", tol)
        assert code == 2
        assert out == ""
        assert f"argument --tol: must be a finite number >= 0, not '{tol}'" in err

    def test_eci_holds(self, capsys):
        code, out, _ = run(
            capsys, "verify", str(MODELS / "itt_example.json"),
            "--check", "eci", "--statement", "Y _||_ F_T | T, T*",
        )
        assert code == 0
        assert out.strip() == "holds"

    def test_eci_fails(self, capsys):
        code, out, _ = run(
            capsys, "verify", str(MODELS / "itt_example.json"),
            "--check", "eci", "--statement", "Y _||_ F_T | T",
        )
        assert code == 1

    def test_consistency_violation(self, capsys):
        code, _, _ = run(
            capsys, "verify", str(MODELS / "raw_inconsistent.json"),
            "--check", "consistency", "--action", "T", "--y", "Y",
        )
        assert code == 1

    def test_ignorability(self, capsys):
        code, _, _ = run(
            capsys, "verify", str(MODELS / "itt_example.json"),
            "--check", "ignorability", "--y", "Y", "--action", "T",
        )
        assert code == 1

    def test_missing_required_option(self, capsys):
        for options, message in [
            (("--check", "eci"), "--check eci requires --statement"),
            (("--check", "consistency", "--y", "Y"), "--check consistency requires --action"),
            (("--check", "consistency", "--action", "T"), "--check consistency requires --vars or --y"),
            (("--check", "ignorability", "--y", "Y"), "--check ignorability requires --y and --action"),
            (
                ("--check", "sufficient-covariate", "--y", "Y", "--action", "T"),
                "--check sufficient-covariate requires --x, --y and --action",
            ),
        ]:
            code, _, err = run(capsys, "verify", str(MODELS / "itt_example.json"), *options)
            assert code == 2, options
            assert message in err, options

    @pytest.mark.parametrize(
        "model, x, action", [("itt_example.json", "T", "T"), ("two_stage.json", "Z", "X1")], ids=["fails", "holds"]
    )
    def test_sufficient_covariate_matches_oracle(self, capsys, model, x, action):
        code, out, _ = run(
            capsys, "verify", str(MODELS / model), "--check", "sufficient-covariate",
            "--x", x, "--y", "Y", "--action", action,
        )
        holds = oracle.check_sufficient_covariate(oracle.load_model(MODELS / model), x, "Y", action)
        assert (code, out) == ((0, "holds\n") if holds else (1, "does not hold\n"))

    @pytest.mark.parametrize(
        "extra",
        [
            ("--check", "eci", "--statement", "Y _||_ F_T | T, T*"),
            ("--check", "eci", "--statement", "Y _||_ F_T | T"),
            ("--check", "ignorability", "--y", "Y", "--action", "T"),
            ("--check", "consistency", "--action", "T", "--y", "Y"),
        ],
    )
    def test_default_tol_is_oracle_default(self, capsys, extra):
        model = str(MODELS / "itt_example.json")
        default = run(capsys, "verify", model, *extra)
        explicit = run(capsys, "verify", model, *extra, "--tol", "1e-9")
        assert default == explicit

    @pytest.mark.parametrize("mutation", ["short-row", "missing-row"])
    def test_malformed_cpt_is_usage_error(self, capsys, tmp_path, mutation):
        doc = json.loads((MODELS / "itt_example.json").read_text())
        rows = next(c for c in doc["cpts"] if c["child"] == "Y")["rows"]
        if mutation == "short-row":
            rows[-1]["probs"] = [1.0]
        else:
            rows.pop()
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "verify", str(path), "--check", "ignorability", "--y", "Y", "--action", "T",
        )
        assert code == 2
        assert "'Y'" in err
        assert "Traceback" not in err


    def test_missing_key_is_named(self, capsys, tmp_path):
        doc = json.loads((MODELS / "raw_inconsistent.json").read_text())
        del doc["raw_regimes"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", str(path), "--check", "consistency", "--y", "Y", "--action", "T")
        assert code == 2
        assert "missing" in err and "'raw_regimes'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "model, section, entry, action",
        [
            ("itt_example.json", "variables", {"name": "T*", "states": [0, 1]}, "T"),
            ("raw_inconsistent.json", "variables", {"name": "T*", "states": [0, 1]}, "T"),
            ("two_stage.json", "regimes", {"name": "F_X0", "target": "X0", "itt": "X0*"}, "X0"),
            ("two_stage.json", "regimes", {"name": "F_X0", "target": "X1", "itt": "X1*"}, "X0"),
        ],
        ids=["itt-variable", "raw-variable", "regime-repeated", "regime-conflicting"],
    )
    def test_name_listed_twice_is_named(self, capsys, tmp_path, model, section, entry, action):
        doc = json.loads((MODELS / model).read_text())
        doc[section].append(entry)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", str(path), "--check", "consistency", "--y", "Y", "--action", action)
        assert code == 2
        assert f"{entry['name']!r} is listed twice" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "model, mutate, message",
        [
            (
                "two_stage.json",
                lambda doc: doc["cpts"].append(
                    {"child": "X0", "parents": [], "rows": [{"parents": [], "probs": [0.5, 0.5]}]}
                ),
                "deterministic target 'X0' must not carry a CPT",
            ),
            ("itt_example.json", lambda doc: doc["regimes"][0].pop("itt"), "missing ITT source for target 'T'"),
            (
                "itt_example.json",
                lambda doc: doc["regimes"][0].update(itt="Q"),
                "ITT source 'Q' of 'T' is not a stochastic variable",
            ),
            (
                "two_stage.json",
                lambda doc: doc["regimes"][1].update(itt="F_X0"),
                "ITT source 'F_X0' of 'X1' is not a stochastic variable",
            ),
            ("two_stage.json", lambda doc: doc["regimes"][0].update(name="Z"), "regime 'Z' has the name of a variable"),
            ("itt_example.json", lambda doc: doc["cpts"][1].update(parents=["T", "Q"]), "dangling edge Q -> Y"),
            # A name that is no string must not stop the graph's faults from being sorted.
            ("itt_example.json", lambda doc: doc["cpts"][1].update(parents=["T", 1]), "dangling edge 1 -> Y"),
            (
                "two_stage.json",
                lambda doc: doc["regimes"].append({"name": "F_X0b", "target": "X0", "itt": "X0*"}),
                "regimes 'F_X0' and 'F_X0b' both target 'X0'",
            ),
            (
                "raw_inconsistent.json",
                lambda doc: doc["regimes"].append({"name": "F_T2", "target": "T", "itt": "T*"}),
                "regimes 'F_T' and 'F_T2' both target 'T'",
            ),
            (
                "itt_example.json",
                lambda doc: doc["cpts"].append(
                    {"child": "Q", "parents": [], "rows": [{"parents": [], "probs": [0.5, 0.5]}]}
                ),
                "CPT child 'Q' is not a stochastic variable",
            ),
            (
                "itt_example.json",
                lambda doc: doc["variables"][2].update(deterministic=True),
                "variable 'Y' is marked deterministic but no regime targets it",
            ),
            (
                "itt_example.json",
                lambda doc: doc["cpts"][1]["rows"].append({"parents": [0, 0], "probs": [1.0, 0.0]}),
                "CPT row [0, 0] for 'Y' is listed twice",
            ),
            (
                "itt_example.json",
                lambda doc: doc["cpts"][1]["rows"].append({"parents": [0, 0, 0], "probs": [0.5, 0.5]}),
                "CPT row [0, 0, 0] for 'Y' has wrong parent arity",
            ),
            ("itt_example.json", lambda doc: doc["cpts"].append(dict(doc["cpts"][1])), "CPT for 'Y' is listed twice"),
            (
                "itt_example.json",
                lambda doc: doc["variables"][1].update(states=[0, "~"]),
                "target 'T' has the idle regime value '~' as a state",
            ),
            (
                "itt_example.json",
                lambda doc: (
                    doc["variables"][0].update(states=[0, 1, 2]),
                    doc["cpts"][0]["rows"][0].update(probs=[0.4, 0.3, 0.3]),
                    doc["cpts"][1]["rows"].extend({"parents": [t, 2], "probs": [0.5, 0.5]} for t in (0, 1)),
                ),
                "ITT source 'T*' of 'T' has state 2, which is not a state of 'T'",
            ),
            (
                "itt_example.json",
                lambda doc: (doc["regimes"][0].update(target="Q"), doc["variables"][1].pop("deterministic")),
                "target 'Q' of regime 'F_T' is not a stochastic variable",
            ),
            (
                "raw_inconsistent.json",
                lambda doc: doc["regimes"][0].update(target="Q"),
                "target 'Q' of regime 'F_T' is not a stochastic variable",
            ),
            (
                "raw_inconsistent.json",
                lambda doc: doc["regimes"][0].update(itt="Z"),
                "ITT source 'Z' of 'T' is not a stochastic variable",
            ),
            (
                "raw_inconsistent.json",
                lambda doc: doc.pop("regimes"),
                "raw table for {'F_T': '~'} is not an assignment of the regimes []",
            ),
            (
                "raw_inconsistent.json",
                lambda doc: doc["regimes"][0].update(name="F_S"),
                "raw table for {'F_T': '~'} is not an assignment of the regimes ['F_S']",
            ),
            (
                # Otherwise eci_holds would read every "Y" of a statement as the regime.
                "raw_inconsistent.json",
                lambda doc: (
                    doc["regimes"][0].update(name="Y"),
                    [table.update(assignment={"Y": table["assignment"]["F_T"]}) for table in doc["raw_regimes"]],
                ),
                "regime 'Y' has the name of a variable",
            ),
        ],
        ids=[
            "target-with-cpt", "no-itt-source", "itt-not-a-variable", "itt-is-a-regime", "regime-named-like-variable",
            "dangling-cpt-parent", "number-cpt-parent", "two-regimes-one-target", "raw-two-regimes-one-target",
            "parentless-cpt-unknown-child", "deterministic-non-target", "repeated-cpt-row", "cpt-row-parent-arity",
            "repeated-cpt", "idle-value-as-target-state",
            "itt-source-state-not-a-target-state", "target-not-a-variable", "raw-target-not-a-variable",
            "raw-itt-not-a-variable", "raw-no-regimes", "raw-regime-not-in-tables", "raw-regime-named-like-variable",
        ],
    )
    def test_itt_structure_is_checked(self, capsys, tmp_path, model, mutate, message):
        doc = json.loads((MODELS / model).read_text())
        mutate(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        statement = {"two_stage.json": "X0 _||_ F_X0", "raw_inconsistent.json": "Y _||_ T* | T, F_T"}.get(
            model, "Y _||_ F_T | T"
        )
        code, _, err = run(capsys, "verify", str(path), "--check", "eci", "--statement", statement)
        assert code == 2
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("pin", ["T*=0", "Q=1"])
    def test_pin_on_non_regime_is_usage_error(self, capsys, pin):
        code, _, err = run(
            capsys, "verify", str(MODELS / "itt_example.json"), "--check", "eci", "--statement", f"Y _||_ T | {pin}",
        )
        name = pin.split("=")[0]
        assert code == 2
        assert f"'{name}' is not a regime of the model" in err
        assert "Traceback" not in err

    def test_consistency_unknown_variable_is_named(self, capsys):
        for names, message in [("Q", "unknown variable 'Q'"), ("Y,Y", "variable 'Y' is given twice")]:
            code, _, err = run(
                capsys, "verify", str(MODELS / "itt_example.json"), "--check", "consistency",
                "--vars", names, "--action", "T",
            )
            assert code == 2, names
            assert message in err, names
            assert "Traceback" not in err


class TestIdentify:
    def test_identified(self, capsys):
        code, out, _ = run(
            capsys, "identify", str(CORPUS / "two_stage_obs.cadt"),
            "--y", "Y", "--x0", "X0", "--x1", "X1", "--z", "Z",
        )
        assert code == 0
        assert "IDENTIFIED" in out

    def test_json_payload(self, capsys):
        code, doc, _ = run_json(
            capsys, "identify", str(CORPUS / "two_stage_obs.cadt"),
            "--y", "Y", "--x0", "X0", "--x1", "X1", "--z", "Z",
        )
        assert code == 0
        assert doc["identified"] is True
        assert len(doc["checks"]) == 3 and all(c["holds"] for c in doc["checks"])

    def test_rule3_keeps_the_arrows_into_an_ancestor_of_x0(self, capsys, tmp_path):
        path = tmp_path / "chain.cadt"
        path.write_text(
            "graph chain {\n  node Z;\n  node X1;\n  node X0;\n  node Y;\n"
            "  edge Z -> X1;\n  edge X1 -> X0;\n  edge X0 -> Y;\n}\n"
        )
        code, out, _ = run(capsys, "identify", str(path), "--y", "Y", "--x0", "X0", "--x1", "X1", "--z", "Z")
        assert code == 1
        assert out.startswith("NOT IDENTIFIED: check second-stage-deletion fails\n")
        assert "  second-stage-deletion (Rule3; no surgery): Z _||_ X1 | X0 -> FAILS\n" in out

    @pytest.mark.parametrize("x0, x1, z, y, twice", [("X0", "X0", "Z", "Y", "X0"), ("X0", "X1", "Z", "X1", "X1")])
    def test_name_given_twice_is_usage_error(self, capsys, x0, x1, z, y, twice):
        code, out, err = run(
            capsys, "identify", str(CORPUS / "two_stage_obs.cadt"), "--y", y, "--x0", x0, "--x1", x1, "--z", z,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: node {twice!r} is given twice\n"


    @pytest.mark.parametrize(
        "graph, x0, x1, z, message",
        [
            ("two_stage_obs.cadt", "X0", "X1", "H", "node 'H' is latent, not an observed variable"),
            ("itt_ignorable.cadt", "F_T", "T", "T*", "node 'F_T' is a regime, not an observed variable"),
        ],
        ids=["latent", "regime"],
    )
    def test_latent_or_regime_name_is_usage_error(self, capsys, graph, x0, x1, z, message):
        code, out, err = run(
            capsys, "identify", str(CORPUS / graph), "--y", "Y", "--x0", x0, "--x1", x1, "--z", z,
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestGFormula:
    def test_value(self, capsys):
        code, doc, _ = run_json(
            capsys, "gformula", str(MODELS / "two_stage.json"),
            "--y", "Y=1", "--x0", "X0=1", "--x1", "X1=1", "--z", "Z",
        )
        assert code == 0
        assert 0.0 <= doc["probability"] <= 1.0

    def test_bad_binding(self, capsys):
        code, _, err = run(
            capsys, "gformula", str(MODELS / "two_stage.json"),
            "--y", "Y", "--x0", "X0=1", "--x1", "X1=1", "--z", "Z",
        )
        assert code == 2
        assert "NAME=VALUE" in err

    @pytest.mark.parametrize(
        "y, z, message",
        [
            ("Y=7", "Z", "'7' is not a state of 'Y'"),
            # The state is the number 1; as in a pin, only the text "1" names it.
            ("Y=true", "Z", "'true' is not a state of 'Y'"),
            ("Y=1.0", "Z", "'1.0' is not a state of 'Y'"),
            ("Y=1", "Q", "unknown variable 'Q'"),
            ("Y=1", "X1", "variable 'X1' is given twice"),  # z would overwrite x1's binding
            ("Y=1", "positivity", "unknown variable 'positivity'"),  # a name, not a positivity violation
            # Given after the defaults --x0 X0=1 --x1 X1=0, a binding in `y` overrides them.
            ("Y=1 --x0 Y=1", "Z", "variable 'Y' is given twice"),
            ("Y=1 --x0 X1=1", "Z", "variable 'X1' is given twice"),
        ],
    )
    def test_bad_lookup_is_named(self, capsys, y, z, message):
        code, _, err = run(
            capsys, "gformula", str(MODELS / "two_stage.json"),
            "--x0", "X0=1", "--x1", "X1=0", "--y", *y.split(), "--z", z,
        )
        assert code == 2
        assert message in err
        assert "Traceback" not in err

    def test_string_states_match_like_pins(self, capsys, tmp_path):
        doc = json.loads((MODELS / "two_stage.json").read_text())
        for v in doc["variables"]:
            v["states"] = [str(s) for s in v["states"]]
        for c in doc["cpts"]:
            for row in c["rows"]:
                row["parents"] = [str(p) for p in row["parents"]]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        query = ("--y", "Y=1", "--x0", "X0=1", "--x1", "X1=0", "--z", "Z")
        _, want, _ = run_json(capsys, "gformula", str(MODELS / "two_stage.json"), *query)
        code, got, _ = run_json(capsys, "gformula", str(path), *query)
        assert code == 0
        assert got == want
        code, _, err = run(capsys, "gformula", str(path), "--y", "Y=1", "--x0", "Q=1", "--x1", "X1=0", "--z", "Z")
        assert code == 2
        assert "unknown variable 'Q'" in err

    @pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
    def test_positivity_violation_exits_3(self, capsys, tmp_path, flags):
        doc = json.loads((MODELS / "two_stage.json").read_text())
        next(c for c in doc["cpts"] if c["child"] == "X0*")["rows"][0]["probs"] = [1.0, 0.0]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, *flags, "gformula", str(path), "--y", "Y=1", "--x0", "X0=1", "--x1", "X1=1", "--z", "Z",
        )
        assert code == 3
        assert out == ""
        assert err == "error: positivity violation\n"

    def test_positivity_violation_in_a_covariate_stratum_exits_3(self, capsys, tmp_path):
        # X0=1 leaves Z=1 possible, but no unit with Z=1 is selected for X1=1, so p(y | x1, z) is undefined there.
        doc = json.loads((MODELS / "two_stage.json").read_text())
        for row in next(c for c in doc["cpts"] if c["child"] == "X1*")["rows"]:
            if row["parents"][1] == 1:  # parents are (H, Z)
                row["probs"] = [1.0, 0.0]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "gformula", str(path), "--y", "Y=1", "--x0", "X0=1", "--x1", "X1=1", "--z", "Z")
        assert code == 3
        assert out == ""
        assert err == "error: positivity violation\n"


TWO_ACTIONS = {
    "actions": ["a", "b"],
    "distributions": {
        "a": {"type": "table", "rows": [{"y": 1, "p": 1.0}]},
        "b": {"type": "table", "rows": [{"y": 0, "p": 1.0}]},
    },
    "loss": [],
}


class TestAce:
    def test_model_input(self, capsys):
        code, doc, _ = run_json(capsys, "ace", str(MODELS / "itt_example.json"), "--y", "Y", "--action", "T")
        assert code == 0
        assert doc["ace"] == pytest.approx(0.64 - 0.34, abs=1e-12)  # E(Y | F_T=1) - E(Y | F_T=0) from the CPTs

    def test_decision_problem_input_not_numeric(self, capsys):
        code, _, err = run(capsys, "ace", str(MODELS / "umbrella.json"))
        assert code == 2
        assert "numeric" in err

    def test_model_missing_options(self, capsys):
        code, _, err = run(capsys, "ace", str(MODELS / "itt_example.json"))
        assert code == 2

    def test_model_outcome_states_not_numeric(self, capsys, tmp_path):
        doc = json.loads((MODELS / "itt_example.json").read_text())
        doc["variables"][2]["states"] = ["lo", "hi"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "ace", str(path), "--y", "Y", "--action", "T")
        assert (code, out, err) == (2, "", "error: states of 'Y' are not numeric; no mean exists\n")

    def test_decision_problem_needs_two_actions(self, capsys, tmp_path):
        doc = {"actions": ["a"], "distributions": {"a": {"type": "table", "rows": [{"y": 1, "p": 1.0}]}}, "loss": []}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "ace", str(path))
        assert code == 2
        assert err == "error: ACE compares two actions; the problem has only 'a'\n"

    @pytest.mark.parametrize(
        "mu, message",
        [("NaN", "mu must be finite, not nan"), ("1000", "the mean for mu=1000.0, sigma2=1.0 overflows a float")],
    )
    def test_lognormal_decision_problem_rejects_bad_mu(self, capsys, tmp_path, mu, message):
        path = tmp_path / "problem.json"
        path.write_text(
            '{"actions": ["a", "b"], "loss": [], "distributions": {"a": {"type": "lognormal", "mu": %s, "sigma2": 1}, '
            '"b": {"type": "lognormal", "mu": 0, "sigma2": 1}}}' % mu
        )
        code, out, err = run(capsys, "ace", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.fixture
    def two_actions(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(TWO_ACTIONS))
        return str(path)

    @pytest.mark.parametrize(
        "argv, expected", [((), "1"), (("--a1", "b"), "-1"), (("--a0", "a"), "-1"), (("--a1", "b", "--a0", "a"), "-1")]
    )
    def test_decision_problem_default_side_differs_from_the_given_one(self, capsys, two_actions, argv, expected):
        assert run(capsys, "ace", two_actions, *argv) == (0, expected + "\n", "")

    @pytest.mark.parametrize("action", ["a", "b"])
    def test_decision_problem_same_action_on_both_sides(self, capsys, two_actions, action):
        code, out, err = run(capsys, "ace", two_actions, "--a1", action, "--a0", action)
        assert (code, out) == (2, "")
        assert err == f"error: ACE compares two different actions; --a1 and --a0 both name {action!r}\n"

    def test_decision_problem_unknown_action(self, capsys):
        code, _, err = run(capsys, "ace", str(MODELS / "umbrella.json"), "--a1", "zz")
        assert code == 2
        assert err == "error: unknown action 'zz'; the problem's actions are ['take', 'leave']\n"

    def test_non_binary_action_is_usage_error(self, capsys, tmp_path):
        doc = json.loads((MODELS / "itt_example.json").read_text())
        for entry in doc["variables"]:
            if entry["name"] in ("T*", "T"):
                entry["states"] = [0, 1, 2]
        doc["cpts"] = [
            {"child": "T*", "parents": [], "rows": [{"parents": [], "probs": [0.2, 0.3, 0.5]}]},
            {"child": "Y", "parents": ["T"], "rows": [{"parents": [t], "probs": [0.5, 0.5]} for t in range(3)]},
        ]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "ace", str(path), "--y", "Y", "--action", "T")
        assert code == 2
        assert "ACE requires a binary action" in err
        assert "Traceback" not in err


class TestLognormal:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "lognormal", "--mu1", "0.8", "--mu0", "0.2", "--sigma2", "0.5")
        assert code == 0
        assert "ace_y = 0.6" in out

    def test_json_output(self, capsys):
        code, doc, _ = run_json(capsys, "lognormal", "--mu1", "0.0", "--mu0", "0.0", "--sigma2", "1.0")
        assert code == 0
        assert doc["ratio"] == pytest.approx(1.0)

    def test_bad_sigma(self, capsys):
        code, _, err = run(capsys, "lognormal", "--mu1", "1", "--mu0", "0", "--sigma2", "0")
        assert code == 2

    @pytest.mark.parametrize(
        "mu1, sigma2, message",
        [
            ("0", "nan", "sigma2 must be finite, not nan"),
            ("1000", "1", "the lognormal effects for mu1=1000.0, mu0=0.0, sigma2=1.0 overflow a float"),
        ],
    )
    def test_non_finite_or_overflowing_input_exits_2(self, capsys, mu1, sigma2, message):
        code, out, err = run(capsys, "lognormal", "--mu1", mu1, "--mu0", "0", "--sigma2", sigma2)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestSimulate:
    def test_runs_and_reports(self, capsys):
        code, doc, _ = run_json(capsys, "simulate", str(MODELS / "study_randomized.json"), "--n", "2000", "--seed", "5")
        assert code == 0
        assert doc["n"] == 2000
        assert doc["interventional_means"] == {"0": 0.4, "1": 0.7}
        assert abs(doc["treated_mean"] - 0.7) < 0.1

    def test_deterministic(self, capsys):
        a = run_json(capsys, "simulate", str(MODELS / "study_confounded.json"), "--n", "500", "--seed", "9")
        b = run_json(capsys, "simulate", str(MODELS / "study_confounded.json"), "--n", "500", "--seed", "9")
        assert a == b

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, "simulate", str(MODELS / "study_randomized.json"), "--n", "0", "--seed", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["covariate"].update(evening=0.4), "CPT row [] for 'X' does not sum to 1"),
            (lambda d: d["response"][3]["dist"].update({"1": 0.4}), "CPT row ['evening', 1] for 'Y' does not sum to 1"),
            (lambda d: d["assignment"].update(morning=1.5), "CPT row ['morning'] for 'T*' has a negative probability"),
            (
                lambda d: d["response"][3].update(t=2),
                "CPT row ['evening', 2] for 'Y' names a parent value that is not a state",
            ),
            (lambda d: d["response"].pop(3), "CPT for 'Y' has no row for parents ['evening', 1]"),
            (lambda d: d["assignment"].pop("evening"), "CPT for 'T*' has no row for parents ['evening']"),
            (lambda d: d["covariate"].update(morning="a"), "covariate value 'a' for 'morning' is not a finite number"),
            (lambda d: d["assignment"].update(morning="a"), "assignment value 'a' for 'morning' is not a finite number"),
        ],
        ids=[
            "covariate-sum",
            "response-sum",
            "assignment-1.5",
            "treatment-2",
            "no-response-row",
            "no-assignment",
            "covariate-text",
            "assignment-text",
        ],
    )
    def test_malformed_spec_is_rejected_before_drawing(self, capsys, tmp_path, mutate, message):
        doc = json.loads((MODELS / "study_randomized.json").read_text())
        mutate(doc)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "simulate", str(path), "--n", "1000", "--seed", "7")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


DECISION_TEXT = (
    '{"actions": ["a", "b"], "distributions": {"a": {"type": "table", "rows": [{"y": 1, "p": 1.0}]}, '
    '"b": {"type": "table", "rows": [{"y": 0, "p": 1.0}]}}, "loss": []}'
)


class TestRepeatedJsonKey:
    @pytest.mark.parametrize(
        "text, old, new, key, argv",
        [
            (
                (MODELS / "study_randomized.json").read_text(),
                '"evening": 0.5}, "response"',
                '"evening": 0.5, "morning": 0.9}, "response"',
                "morning",
                ("simulate", "--n", "1000", "--seed", "7"),
            ),
            (
                (MODELS / "itt_example.json").read_text(),
                '"mode": "itt"',
                '"mode": "itt", "mode": "itt"',
                "mode",
                ("verify", "--check", "ignorability", "--y", "Y", "--action", "T"),
            ),
            (DECISION_TEXT, '"loss": []', '"loss": [], "loss": []', "loss", ("ace",)),
        ],
        ids=["study-spec", "model", "decision-problem"],
    )
    def test_repeated_key_is_named(self, capsys, tmp_path, text, old, new, key, argv):
        source = json.dumps(json.loads(text))
        assert source.count(old) == 1
        path = tmp_path / "doc.json"
        path.write_text(source.replace(old, new))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert out == ""
        assert err == f"error: JSON object repeats the key {key!r}\n"


@pytest.mark.parametrize(
    "name, edit, argv, key, error, message",
    [
        (
            "raw_inconsistent.json",
            lambda doc: json.dumps({**doc, "raw_regimes": doc["raw_regimes"] + doc["raw_regimes"][1:2]}),
            ("verify", "--check", "eci", "--statement", "Y _||_ T* | T, F_T"),
            (("F_T", 0),),
            oracle.ModelError,
            "duplicate raw table for regime assignment {'F_T': 0}",
        ),
        (
            "umbrella.json",
            lambda doc: json.dumps({**doc, "loss": doc["loss"] + doc["loss"][:1]}),
            ("ace",),
            ("dry", "take"),
            decision.DecisionError,
            "loss row for y='dry', a='take' is listed twice",
        ),
        (
            "umbrella.json",
            lambda doc: json.dumps(doc).replace('"actions": [', '"actions": ["take"], "actions": [', 1),
            ("ace",),
            "actions",
            ValueError,
            "JSON object repeats the key 'actions'",
        ),
        (
            "itt_example.json",
            lambda doc: json.dumps(replaced(doc, ("cpts", 1, "parents"), ["T", "T"])),
            ("ace", "--y", "Y", "--action", "T"),
            "T",
            oracle.ModelError,
            "parent 'T' of the CPT for 'Y' is listed twice",
        ),
        *(
            (
                "itt_example.json",
                lambda doc, states=states: json.dumps(replaced(doc, ("variables", 2, "states"), states)),
                ("ace", "--y", "Y", "--action", "T"),
                states[1],
                oracle.ModelError,
                f"state {states[1]!r} of variable 'Y' is listed twice",
            )
            for states in ([0, 0], [0, False], [1, 1.0])
        ),
        (
            "raw_inconsistent.json",
            lambda doc: json.dumps(replaced(doc, ("variables", 2, "states"), [0, 0])),
            ("verify", "--check", "consistency", "--y", "Y", "--action", "T"),
            0,
            oracle.ModelError,
            "state 0 of variable 'Y' is listed twice",
        ),
        (
            "study_confounded.json",
            lambda doc: json.dumps(replaced(doc, ("response", 0, "dist"), {"0": 0.4, "1": 0.3, "1.0": 0.3})),
            ("simulate", "--n", "50", "--seed", "7"),
            1.0,
            oracle.ModelError,
            "outcome 1.0 of the response row for x='morning', t=0 is listed twice",
        ),
    ],
    ids=[
        "raw-table",
        "loss-row",
        "json-key",
        "cpt-parent",
        "states-0-0",
        "states-0-false",
        "states-1-1.0",
        "raw-states",
        "response-outcome",
    ],
)
def test_repeated_entries_raise_through_keyed(capsys, monkeypatch, tmp_path, name, edit, argv, key, error, message):
    # Each repeated-entry check is a `keyed` call: a spy on every module's name
    # for it sees the one key rejected and the class of the error it raises.
    real, rejected = dtcausal.keyed, []

    def spy(pairs, repeated):
        def record(k):
            exc = repeated(k)
            rejected.append((k, type(exc)))
            return exc

        return real(pairs, record)

    for module in (dtcausal, oracle, decision):
        monkeypatch.setattr(module, "keyed", spy)
    path = tmp_path / name
    path.write_text(edit(json.loads((MODELS / name).read_text())))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert rejected == [(key, error)]


# One README-style command per corpus JSON input; "{}" stands for the input's path.
JSON_INPUTS = {
    "itt_example.json": ("verify", "{}", "--check", "ignorability", "--y", "Y", "--action", "T"),
    "raw_inconsistent.json": ("verify", "{}", "--check", "eci", "--statement", "Y _||_ T* | T, F_T"),
    "two_stage.json": ("gformula", "{}", "--y", "Y=1", "--x0", "X0=1", "--x1", "X1=0", "--z", "Z"),
    "umbrella.json": ("ace", "{}"),
    "study_confounded.json": ("simulate", "{}", "--n", "50", "--seed", "7"),
}


def json_sites(value, path=()):
    """(path, value) for `value` and every value nested in it; a path is a tuple of keys and indices."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from json_sites(child, path + (key,))


def json_type(value) -> str:
    return {bool: "boolean", int: "number", float: "number", str: "string", list: "array", dict: "object"}.get(
        type(value), "null"
    )


def replaced(doc, path, value):
    """A copy of `doc` with the value at `path` replaced by `value`."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "~", "T", "0"]),
    st.lists(st.integers(0, 1), max_size=2),
    st.dictionaries(st.sampled_from(["", "F_T", "0"]), st.integers(0, 1), max_size=2),
)
# Every (input, path, value at the path) of the corpus JSON inputs.
JSON_SITES = [
    (model, path, value)
    for model in sorted(JSON_INPUTS)
    for path, value in json_sites(json.loads((MODELS / model).read_text()))
]
# For each JSON type, the values of every other type.
OTHER_TYPE_VALUES = {
    t: JSON_VALUES.filter(lambda v, t=t: json_type(v) != t)
    for t in ("null", "boolean", "number", "string", "array", "object")
}


def string_parent_states_doc() -> dict:
    """itt_example.json with the states of Y's parents T* and T spelt "0" and
    "1", and one of Y's rows giving its parents as the string "01"."""
    doc = json.loads((MODELS / "itt_example.json").read_text())
    for v in doc["variables"]:
        if v["name"] in ("T*", "T"):
            v["states"] = ["0", "1"]
    rows = next(c for c in doc["cpts"] if c["child"] == "Y")["rows"]
    for row in rows:
        row["parents"] = [str(s) for s in row["parents"]]
    rows[1]["parents"] = "".join(rows[1]["parents"])
    return doc


class TestJsonShape:
    @pytest.mark.parametrize(
        "model, path, value, message",
        [
            ("itt_example.json", (), [], "must be a JSON object, not []"),
            ("two_stage.json", (), [], "must be a JSON object, not []"),
            ("umbrella.json", (), [], "must be a JSON object, not []"),
            (
                "raw_inconsistent.json",
                ("raw_regimes", 0, "assignment"),
                None,
                "'assignment' must be a JSON object, not null",
            ),
            ("study_confounded.json", ("response", 0, "dist"), [0.5], "'dist' must be a JSON object, not [0.5]"),
            ("study_confounded.json", ("covariate",), ["morning"], "'covariate' must be a JSON object, not [\"morning\"]"),
            ("study_confounded.json", ("assignment",), 0.5, "'assignment' must be a JSON object, not 0.5"),
            ("study_confounded.json", ("response", 0), "row", "a 'response' row must be a JSON object, not \"row\""),
            ("study_confounded.json", ("response", 0, "t"), False, "response row 't' must be 0 or 1, not False"),
            (
                "study_confounded.json",
                ("response", 0, "x"),
                ["morning"],
                "response row 'x' must be a covariate value, not ['morning'] (the row for t=0)",
            ),
            (
                "study_confounded.json",
                ("response", 0, "dist"),
                {"nan": 0.5, "0": 0.5},
                "outcome 'nan' of the response row for x='morning', t=0 is not a finite number",
            ),
            (
                "study_confounded.json",
                ("response", 0, "dist"),
                {"inf": 0.5, "0": 0.5},
                "outcome 'inf' of the response row for x='morning', t=0 is not a finite number",
            ),
            (
                "study_confounded.json",
                ("response", 0, "dist"),
                {"a": 0.5, "0": 0.5},
                "outcome 'a' of the response row for x='morning', t=0 is not a finite number",
            ),
            (
                "study_confounded.json",
                ("response", 0, "dist"),
                {"1": "x", "0": 0.5},
                "probability 'x' for outcome '1' of the response row for x='morning', t=0 is not a finite number",
            ),
            ("umbrella.json", ("distributions",), "rain", "'distributions' must be a JSON object, not \"rain\""),
            ("umbrella.json", (), {**TWO_ACTIONS, "actions": "ab"}, "'actions' must be a JSON array, not \"ab\""),
            ("itt_example.json", ("variables", 2, "states"), "01", "'states' must be a JSON array, not \"01\""),
            ("itt_example.json", (), string_parent_states_doc(), "'parents' must be a JSON array, not \"01\""),
            (
                "itt_example.json",
                ("variables", 2, "states", 0),
                [0, 1],
                "state [0, 1] of variable 'Y' is not a JSON scalar",
            ),
        ],
        ids=[
            "verify-array",
            "gformula-array",
            "ace-array",
            "raw-assignment",
            "study-dist",
            "study-covariate",
            "study-assignment",
            "study-response-row",
            "study-response-t-false",
            "study-response-x-array",
            "study-outcome-nan",
            "study-outcome-inf",
            "study-outcome-text",
            "study-probability-text",
            "decision-distributions",
            "decision-actions-string",
            "model-states-string",
            "cpt-row-parents-string",
            "model-state-array",
        ],
    )
    def test_value_that_is_not_an_object_is_named(self, capsys, tmp_path, model, path, value, message):
        target = tmp_path / model
        target.write_text(json.dumps(replaced(json.loads((MODELS / model).read_text()), path, value)))
        code, out, err = run(capsys, *(str(target) if a == "{}" else a for a in JSON_INPUTS[model]))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    @given(site=st.sampled_from(JSON_SITES), data=st.data())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_value_of_another_type_is_not_an_internal_error(self, tmp_path_factory, site, data):
        model, path, old = site
        doc = json.loads((MODELS / model).read_text())
        value = data.draw(OTHER_TYPE_VALUES[json_type(old)])
        target = tmp_path_factory.getbasetemp() / model
        target.write_text(json.dumps(replaced(doc, path, value)))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(target) if a == "{}" else a for a in JSON_INPUTS[model]])
        assert code in (0, 1, 2, 3), (model, path, value, err.getvalue())
        assert "internal error" not in err.getvalue()


class TestRender:
    def test_stdout(self, capsys):
        code, out, _ = run(capsys, "render", str(CORPUS / "simple_treatment.cadt"), "--dot", "-")
        assert code == 0
        assert out.startswith("digraph") and '"F_T" [shape=box]' in out

    def test_json_stdout_is_one_document(self, capsys):
        argv = ("render", str(CORPUS / "instrument.cadt"), "--dot", "-")
        _, text, _ = run(capsys, *argv)
        code, doc, _ = run_json(capsys, *argv)
        assert code == 0
        assert doc == {"dot": text}

    def test_file_output(self, capsys, tmp_path):
        target = tmp_path / "out.dot"
        code, out, _ = run(capsys, "render", str(CORPUS / "simple_treatment.cadt"), "--dot", str(target))
        assert code == 0
        assert target.read_text().startswith("digraph")


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_help_lists_exit_codes_without_code_notes(self, capsys):
        code, out, _ = run(capsys, "--help")
        help_text = " ".join(out.split())
        assert code == 0
        assert "4 = internal error" in help_text
        assert "Handlers return their answer" not in help_text

    def test_parse_error_diagnostic_on_stderr(self, capsys, tmp_path):
        bad = tmp_path / "bad.cadt"
        bad.write_text("graph g { edge A -> A; }")
        code, out, err = run(capsys, "dsep", str(bad), "--query", "A _||_ A")
        assert code == 2
        assert "self-loop" in err
        assert out == ""


class TestInternalError:
    def test_unexpected_exception_exits_4(self, capsys, monkeypatch):
        def crash(args):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli, "_cmd_lognormal", crash)
        code, out, err = run(capsys, "lognormal", "--mu1", "0", "--mu0", "0", "--sigma2", "1")
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err.splitlines() == ["internal error: ZeroDivisionError: division by zero"]
        assert "Traceback" not in err

    def test_engine_disagreement_exits_4(self, capsys, monkeypatch):
        real = dsep.d_separated_paths
        monkeypatch.setattr(dsep, "d_separated_paths", lambda dag, stmt: not real(dag, stmt))
        code, out, err = run(capsys, "dsep", str(CORPUS / "itt_ignorable.cadt"), "--query", "Y _||_ F_T | T")
        assert code == 4
        assert out == ""
        assert err == "internal error: RuntimeError: separation engines disagree\n"


SYMBOLIC_EXAMPLES = [
    ["dsep", "corpus/itt_ignorable.cadt", "--query", "Y _||_ T*, F_T | T"],
    ["derive", "corpus/contraction.eci", "--target", "X _||_ Y, W | Z"],
    ["augment", "corpus/two_stage_obs.cadt", "--itt"],
    ["project", "corpus/two_stage_itt.cadt", "--drop", "X0*,X1*"],
    ["identify", "corpus/two_stage_obs.cadt", "--y", "Y", "--x0", "X0", "--x1", "X1", "--z", "Z"],
    ["lognormal", "--mu1", "0.8", "--mu0", "0.2", "--sigma2", "0.5"],
    ["render", "corpus/instrument.cadt", "--dot", "-"],
]


def test_symbolic_commands_do_not_load_numpy(tmp_path):
    """The numpy-free README examples, and `ace` on a decision problem, leave
    numpy, the oracle and `dataclasses` (which loads `inspect` and `ast`)
    unimported; a numeric command then loads the oracle."""
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(TWO_ACTIONS))
    script = textwrap.dedent(
        f"""
        import contextlib, io, sys
        from dtcausal.cli import main

        for argv in {[*SYMBOLIC_EXAMPLES, ["ace", str(problem)]]!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
        loaded = sorted(m for m in ("numpy", "dtcausal.oracle", "dataclasses") if m in sys.modules)
        assert not loaded, loaded
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["verify", "corpus/models/itt_example.json", "--check", "ignorability",
                         "--y", "Y", "--action", "T"])
        assert code == 1, code
        assert "dtcausal.oracle" in sys.modules
        """
    )
    src = str(pathlib.Path(dtcausal.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=CORPUS.parent, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_unknown_name_errors_do_not_depend_on_the_hash_seed(hash_seed, tmp_path):
    """Of two unknown names, each error names the first in sorted order, and a
    graph with two faults lists them in one order, whatever order the
    process's string hashing puts them in."""
    two_faults = tmp_path / "two_faults.cadt"
    two_faults.write_text(
        "graph g {\n  node A;\n  node B;\n  node C;\n  node D;\n  edge A -> B dashed;\n  edge C -> D dashed;\n}\n"
    )
    commands = [
        ["dsep", "corpus/itt_ignorable.cadt", "--query", "Q _||_ R"],
        ["project", "corpus/two_stage_itt.cadt", "--drop", "Q,R"],
        ["verify", "corpus/models/two_stage.json", "--check", "eci", "--statement", "Y _||_ X0 | Q, R"],
        ["render", str(two_faults), "--dot", "-"],
    ]
    script = textwrap.dedent(
        f"""
        import contextlib, io
        from dtcausal.cli import main

        for argv in {commands!r}:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            print(code, err.getvalue().strip())
        """
    )
    src = str(pathlib.Path(dtcausal.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=CORPUS.parent, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "2 error: unknown node 'Q'",
        "2 error: unknown node 'Q'",
        "2 error: unknown variable 'Q'",
        "2 error: line 1, column 1: dashed edge into non-deterministic node 'B'; "
        "dashed edge into non-deterministic node 'D'",
    ]


def test_package_import_loads_no_submodule():
    """`import dtcausal` holds only the shared input helpers, so it loads no
    `dtcausal.*` module; each command imports the modules it runs."""
    script = "import dtcausal, sys; print(sorted(m for m in sys.modules if m.startswith('dtcausal')))"
    src = str(pathlib.Path(dtcausal.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['dtcausal']\n"


def test_readme_examples_print_one_json_document_each(capsys, monkeypatch):
    readme = (CORPUS.parent / "README.md").read_text()
    examples = [shlex.split(line)[1:] for line in readme.splitlines() if line.startswith("dtcausal ")]
    assert len(examples) == 11
    monkeypatch.chdir(CORPUS.parent)
    for argv in examples:
        code = main(["--json", *argv])
        out = capsys.readouterr().out
        assert code in (0, 1), argv
        assert isinstance(json.loads(out), dict), argv  # one document, nothing printed beside it
