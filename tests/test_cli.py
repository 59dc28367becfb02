import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import dtcausal
from dtcausal import cli, dsep
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


class TestVerify:
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
        code, _, err = run(capsys, "verify", str(MODELS / "itt_example.json"), "--check", "eci")
        assert code == 2
        assert "--statement" in err

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
            ("two_stage.json", lambda doc: doc["regimes"][0].update(name="Z"), "duplicate node name 'Z'"),
            ("itt_example.json", lambda doc: doc["cpts"][1].update(parents=["T", "Q"]), "dangling edge Q -> Y"),
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
        ],
        ids=[
            "target-with-cpt", "no-itt-source", "itt-not-a-variable", "itt-is-a-regime", "regime-named-like-variable",
            "dangling-cpt-parent", "two-regimes-one-target", "raw-two-regimes-one-target", "parentless-cpt-unknown-child",
            "deterministic-non-target",
        ],
    )
    def test_itt_structure_is_checked(self, capsys, tmp_path, model, mutate, message):
        doc = json.loads((MODELS / model).read_text())
        mutate(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        statement = {"two_stage.json": "X0 _||_ F_X0"}.get(model, "Y _||_ F_T | T")
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
        code, _, err = run(
            capsys, "verify", str(MODELS / "itt_example.json"), "--check", "consistency", "--vars", "Q", "--action", "T",
        )
        assert code == 2
        assert "unknown variable 'Q'" in err
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
            ("Y=7", "Z", "7 is not a state of 'Y'"),
            ("Y=1", "Q", "unknown variable 'Q'"),
            ("Y=1", "X1", "'X1' is also the second treatment"),  # z would overwrite x1's binding
            ("Y=1", "positivity", "unknown variable 'positivity'"),  # a name, not a positivity violation
        ],
    )
    def test_bad_lookup_is_named(self, capsys, y, z, message):
        code, _, err = run(
            capsys, "gformula", str(MODELS / "two_stage.json"), "--y", y, "--x0", "X0=1", "--x1", "X1=0", "--z", z,
        )
        assert code == 2
        assert message in err
        assert "Traceback" not in err


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

    def test_decision_problem_needs_two_actions(self, capsys, tmp_path):
        doc = {"actions": ["a"], "distributions": {"a": {"type": "table", "rows": [{"y": 1, "p": 1.0}]}}, "loss": []}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "ace", str(path))
        assert code == 2
        assert err == "error: ACE compares two actions; the problem has only 'a'\n"

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
        ],
        ids=["covariate-sum", "response-sum", "assignment-1.5", "treatment-2", "no-response-row", "no-assignment"],
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


class TestRender:
    def test_stdout(self, capsys):
        code, out, _ = run(capsys, "render", str(CORPUS / "simple_treatment.cadt"), "--dot", "-")
        assert code == 0
        assert out.startswith("digraph") and '"F_T" [shape=box]' in out

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


def test_symbolic_commands_do_not_load_numpy():
    """The numpy-free README examples leave numpy and the oracle unimported;
    a numeric command then loads the oracle."""
    script = textwrap.dedent(
        f"""
        import contextlib, io, sys
        from dtcausal.cli import main

        for argv in {SYMBOLIC_EXAMPLES!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
        loaded = sorted(m for m in ("numpy", "dtcausal.oracle") if m in sys.modules)
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
