"""Command-line front-end.

Exit codes: 0 = holds / derived / success; 1 = does-not-hold /
not-identified / not-projectable; 2 = usage or parse error; 3 =
not-derivable (the symbolic engine is sound but incomplete) or
positivity violation; 4 = internal error (an unexpected exception,
reported in one line).  Diagnostics go to standard error; `--json`
switches machine-readable output with stable key order.

Each command imports its own engine when it runs, so the symbolic
commands never load numpy or the numeric oracle.
"""

from __future__ import annotations

import argparse
import json
import sys

from dtcausal.graph import IDLE, to_dot
from dtcausal.statements import StatementError, format_statement, parse_premise_file, parse_statement

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3
EXIT_INTERNAL = 4


class _CliNo(Exception):
    """Negative-but-well-formed answer (exit 1)."""


class _CliIncomplete(Exception):
    """Not derivable / positivity violation (exit 3)."""


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif text:
        print(text)


def _parse_value(raw: str):
    if raw == IDLE:
        return IDLE
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _parse_binding(raw: str) -> tuple[str, object]:
    if "=" not in raw:
        raise StatementError(f"expected NAME=VALUE, got {raw!r}")
    name, value = raw.split("=", 1)
    return name.strip(), _parse_value(value.strip())


# -- subcommand handlers ---------------------------------------------------


def _cmd_dsep(args) -> None:
    from dtcausal import dsep, dsl

    doc = dsl.load_doc(args.file)
    stmt = parse_statement(args.query)
    moral = dsep.d_separated(doc.dag, stmt)
    paths = dsep.d_separated_paths(doc.dag, stmt)
    if moral != paths:  # cross-check of the two engines; must never trigger
        raise RuntimeError("separation engines disagree")
    _emit(args, {"statement": format_statement(stmt), "holds": moral}, "holds" if moral else "does not hold")
    if not moral:
        raise _CliNo


def _cmd_derive(args) -> None:
    from dtcausal import eci

    with open(args.premises) as fh:
        premises = parse_premise_file(fh.read())
    target = parse_statement(args.target)
    names = set().union(*(s.variables() for s in premises + [target]))
    regimes = set(args.regime or [])
    universe = eci.Universe.of(sorted(names - regimes), sorted(regimes & names))
    ok, trace = eci.derivable(premises, target, universe, regimes_as_stochastic=args.regimes_stochastic)
    if not ok:
        _emit(args, {"derived": False}, "not derivable")
        raise _CliIncomplete
    trace.replay(universe, premises=premises, regimes_as_stochastic=args.regimes_stochastic)
    steps = [
        {"axiom": st.axiom, "inputs": list(st.inputs), "statement": format_statement(st.output)}
        for st in trace.steps
    ]
    text = "\n".join(
        f"[{i}] {st.axiom}({', '.join(map(str, st.inputs))}): {format_statement(st.output)}"
        for i, st in enumerate(trace.steps)
    )
    _emit(args, {"derived": True, "trace": steps}, "derived\n" + text)


def _cmd_augment(args) -> None:
    from dtcausal import augment, dsl

    doc = dsl.load_doc(args.file)
    if args.plan:
        targets = tuple(t.strip() for t in args.plan.split(","))
    elif doc.plan is None:
        raise StatementError("file declares no plan; pass --plan")
    else:
        targets = doc.plan
    build = augment.build_itt_dag if args.itt else augment.build_augmented_dag
    out = build(doc.dag, augment.InterventionPlan(targets))
    text = dsl.canonical_graph_text(doc.name + ("_itt" if args.itt else "_aug"), out)
    _emit(args, {"graph": text}, text.rstrip("\n"))


def _cmd_project(args) -> None:
    from dtcausal import augment, dsl

    doc = dsl.load_doc(args.file)
    drop = frozenset(t.strip() for t in args.drop.split(","))
    try:
        out = augment.eliminate_nodes(doc.dag, drop)
    except augment.ProjectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise _CliNo from exc
    text = dsl.canonical_graph_text(doc.name + "_proj", out)
    _emit(args, {"graph": text}, text.rstrip("\n"))


def _cmd_verify(args) -> None:
    from dtcausal import oracle

    model = oracle.load_model(args.model)
    tol = oracle.DEFAULT_TOL if args.tol is None else args.tol
    if args.check == "eci":
        if not args.statement:
            raise StatementError("--check eci requires --statement")
        stmt = parse_statement(args.statement)
        ok = oracle.eci_holds(model, stmt, tol=tol)
    elif args.check == "consistency":
        if not args.action:
            raise StatementError("--check consistency requires --action")
        vars_ = [v.strip() for v in args.vars.split(",")] if args.vars else [args.y] if args.y else None
        if not vars_:
            raise StatementError("--check consistency requires --vars or --y")
        ok = oracle.check_distributional_consistency(model, vars_, args.action, tol=tol)
    elif args.check == "ignorability":
        if not (args.y and args.action):
            raise StatementError("--check ignorability requires --y and --action")
        ok = oracle.check_ignorability(model, args.y, args.action, tol=tol)
    else:  # sufficient-covariate, the last choice argparse allows
        if not (args.x and args.y and args.action):
            raise StatementError("--check sufficient-covariate requires --x, --y and --action")
        ok = oracle.check_sufficient_covariate(model, args.x, args.y, args.action, tol=tol)
    _emit(args, {"check": args.check, "holds": ok}, "holds" if ok else "does not hold")
    if not ok:
        raise _CliNo


def _cmd_identify(args) -> None:
    from dtcausal import augment, dsl

    doc = dsl.load_doc(args.file)
    cert = augment.identify_two_stage(doc.dag, args.x0, args.x1, args.z, args.y)
    payload = {
        "identified": cert.identified,
        "estimand": cert.estimand,
        "checks": [
            {
                "name": c.name,
                "rule": c.rule,
                "remove_incoming": list(c.remove_incoming),
                "remove_outgoing": list(c.remove_outgoing),
                "statement": format_statement(c.statement),
                "holds": c.holds,
            }
            for c in cert.checks
        ],
    }
    _emit(args, payload, cert.report())
    if not cert.identified:
        raise _CliNo


def _cmd_gformula(args) -> None:
    from dtcausal import oracle

    model = oracle.load_model(args.model)
    y = _parse_binding(args.y)
    x0 = _parse_binding(args.x0)
    x1 = _parse_binding(args.x1)
    try:
        value = oracle.gformula_eval(model, y, x0, x1, args.z)
    except oracle.PositivityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise _CliIncomplete from exc
    _emit(args, {"probability": value}, f"{value:.12g}")


def _cmd_ace(args) -> None:
    from dtcausal import decision

    with open(args.file) as fh:
        doc = json.load(fh)
    if "actions" in doc:
        problem = decision.problem_from_json(doc)
        a1 = args.a1 or problem.actions[0]
        a0 = args.a0 or problem.actions[1]
        value = decision.ace(problem.hypothetical[a1], problem.hypothetical[a0])
    else:
        from dtcausal import oracle

        model = oracle.model_from_json(doc)
        if not (args.y and args.action):
            raise StatementError("model input requires --y and --action")
        value = oracle.ace(model, args.y, args.action)
    _emit(args, {"ace": value}, f"{value:.12g}")


def _cmd_lognormal(args) -> None:
    from dtcausal import decision

    eff = decision.lognormal_effects(decision.NormalPair(args.mu1, args.mu0, args.sigma2))
    payload = {
        "ace_y": eff.ace_y,
        "ace_z": eff.ace_z,
        "ratio": eff.ratio,
        "var_z_1": eff.var_z_1,
        "var_z_0": eff.var_z_0,
    }
    text = "\n".join(f"{k} = {v:.12g}" for k, v in payload.items())
    _emit(args, payload, text)


def _cmd_simulate(args) -> None:
    from dtcausal import oracle

    with open(args.spec) as fh:
        spec = oracle.study_spec_from_json(json.load(fh))
    result = oracle.simulate_study(spec, args.n, args.seed)
    payload = {
        "n": result.n,
        "treated_mean": result.treated_mean,
        "control_mean": result.control_mean,
        "treated_se": result.treated_se,
        "control_se": result.control_se,
        "interventional_means": {str(k): v for k, v in result.interventional_means.items()},
    }
    lines = [f"n = {result.n}"]
    for label, mean, se in (
        ("treated", result.treated_mean, result.treated_se),
        ("control", result.control_mean, result.control_se),
    ):
        if mean is None:
            lines.append(f"{label}: empty arm")
        else:
            lines.append(f"{label}: mean = {mean:.6g}" + (f", se = {se:.6g}" if se is not None else ""))
    for t, m in sorted(result.interventional_means.items()):
        lines.append(f"interventional mean (t={t}) = {m:.6g}")
    _emit(args, payload, "\n".join(lines))


def _cmd_render(args) -> None:
    from dtcausal import dsl

    doc = dsl.load_doc(args.file)
    dot = to_dot(doc.dag, doc.name)
    if args.dot == "-":
        sys.stdout.write(dot)
    else:
        with open(args.dot, "w") as fh:
            fh.write(dot)
    if getattr(args, "json", False):
        print(json.dumps({"dot": dot}, indent=2, sort_keys=True))


# -- argument parsing ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="dtcausal", description=__doc__)
    top.add_argument("--json", action="store_true", help="machine-readable output")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dsep", help="graphical separation query on a graph file")
    p.add_argument("file")
    p.add_argument("--query", required=True, help='e.g. "Y _||_ F_T | T"')
    p.set_defaults(func=_cmd_dsep)

    p = sub.add_parser("derive", help="symbolic derivation from a premise file")
    p.add_argument("premises")
    p.add_argument("--target", required=True)
    p.add_argument("--regimes-stochastic", action="store_true", dest="regimes_stochastic")
    p.add_argument("--regime", action="append", help="declare a variable as a regime indicator")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("augment", help="add regime founders (or full ITT trios with --itt)")
    p.add_argument("file")
    p.add_argument("--itt", action="store_true")
    p.add_argument("--plan", help="comma-separated targets, overrides the file's plan")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("project", help="eliminate nodes, preserving separation structure")
    p.add_argument("file")
    p.add_argument("--drop", required=True, help="comma-separated node names")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("verify", help="numeric checks on a model file")
    p.add_argument("model")
    p.add_argument("--check", required=True, choices=["eci", "consistency", "ignorability", "sufficient-covariate"])
    p.add_argument("--statement")
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--action")
    p.add_argument("--vars")
    p.add_argument("--tol", type=float, help="numeric tolerance (default: oracle.DEFAULT_TOL)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("identify", help="two-stage identification certificate")
    p.add_argument("file")
    p.add_argument("--y", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--x1", required=True)
    p.add_argument("--z", required=True)
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("gformula", help="evaluate the two-stage adjustment formula")
    p.add_argument("model")
    p.add_argument("--y", required=True, help="NAME=VALUE")
    p.add_argument("--x0", required=True, help="NAME=VALUE")
    p.add_argument("--x1", required=True, help="NAME=VALUE")
    p.add_argument("--z", required=True, help="summed-over variable name")
    p.set_defaults(func=_cmd_gformula)

    p = sub.add_parser("ace", help="average causal effect from a model or decision problem")
    p.add_argument("file")
    p.add_argument("--y")
    p.add_argument("--action")
    p.add_argument("--a1", help="treated action name (decision problems)")
    p.add_argument("--a0", help="control action name (decision problems)")
    p.set_defaults(func=_cmd_ace)

    p = sub.add_parser("lognormal", help="closed-form lognormal effect suite")
    p.add_argument("--mu1", type=float, required=True)
    p.add_argument("--mu0", type=float, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.set_defaults(func=_cmd_lognormal)

    p = sub.add_parser("simulate", help="draw an observational study from a spec file")
    p.add_argument("spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("render", help="DOT export")
    p.add_argument("file")
    p.add_argument("--dot", required=True, help="output path, or - for stdout")
    p.set_defaults(func=_cmd_render)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        args.func(args)
    except _CliNo:
        return EXIT_NO
    except _CliIncomplete:
        return EXIT_INCOMPLETE
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a crash must not exit 1, which means "does not hold"
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
