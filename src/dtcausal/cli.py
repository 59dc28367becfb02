"""Command-line front-end.

Exit codes: 0 = holds / derived / success; 1 = does-not-hold /
not-identified / not-projectable; 2 = usage or parse error; 3 =
not-derivable (the symbolic engine is sound but incomplete) or
positivity violation; 4 = internal error (an unexpected exception,
reported in one line).  Error messages go to standard error; `--json`
switches machine-readable output with stable key order.

Each command imports its own engine when it runs, so the symbolic
commands never load numpy or the numeric oracle.  Handlers return their
answer; `main` alone prints it and picks the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from dtcausal import load_json
from dtcausal.graph import to_dot
from dtcausal.statements import StatementError, format_statement, parse_premise_file, parse_statement

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3
EXIT_INTERNAL = 4

# The exit code of an exception, by the name of the first class in its MRO
# listed here; names rather than classes, so that no engine is imported
# before a command runs.  Any other exception is an internal error.
_EXIT_OF_ERROR = {
    "ProjectionError": EXIT_NO,
    "PositivityError": EXIT_INCOMPLETE,
    **dict.fromkeys(("ValueError", "OSError", "KeyError", "TypeError"), EXIT_USAGE),
}

Answer = tuple[int, dict, str]  # exit code, `--json` payload, text


def _tolerance(raw: str) -> float:
    """`--tol`: a finite number >= 0.  With NaN or inf no difference exceeds
    it, so every check would hold."""
    try:
        value = float(raw)
    except ValueError:
        value = float("nan")
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, not {raw!r}")
    return value


def _parse_binding(raw: str) -> tuple[str, str]:
    if "=" not in raw:
        raise StatementError(f"expected NAME=VALUE, got {raw!r}")
    name, value = raw.split("=", 1)
    return name.strip(), value.strip()


# -- subcommand handlers ---------------------------------------------------


def _cmd_dsep(args) -> Answer:
    from dtcausal import dsep, dsl

    doc = dsl.load_doc(args.file)
    stmt = parse_statement(args.query)
    moral = dsep.d_separated(doc.dag, stmt)
    paths = dsep.d_separated_paths(doc.dag, stmt)
    if moral != paths:  # cross-check of the two engines; must never trigger
        raise RuntimeError("separation engines disagree")
    payload = {"statement": format_statement(stmt), "holds": moral}
    return (EXIT_OK if moral else EXIT_NO), payload, "holds" if moral else "does not hold"


def _cmd_derive(args) -> Answer:
    from dtcausal import eci

    with open(args.premises) as fh:
        premises = parse_premise_file(fh.read())
    target = parse_statement(args.target)
    names = set().union(*(s.variables() for s in premises + [target]))
    regimes = set(args.regime or [])
    unknown = sorted(regimes - names)
    if unknown:
        raise StatementError(f"--regime {unknown[0]!r} names no variable of the premises or the target")
    universe = eci.Universe.of(sorted(names - regimes), sorted(regimes))
    ok, trace = eci.derivable(premises, target, universe, regimes_as_stochastic=args.regimes_stochastic)
    if not ok:
        return EXIT_INCOMPLETE, {"derived": False}, "not derivable"
    trace.replay(universe, premises=premises, regimes_as_stochastic=args.regimes_stochastic)
    steps = [
        {"axiom": st.axiom, "inputs": list(st.inputs), "statement": format_statement(st.output)}
        for st in trace.steps
    ]
    text = "\n".join(
        f"[{i}] {st.axiom}({', '.join(map(str, st.inputs))}): {format_statement(st.output)}"
        for i, st in enumerate(trace.steps)
    )
    return EXIT_OK, {"derived": True, "trace": steps}, "derived\n" + text


def _cmd_augment(args) -> Answer:
    from dtcausal import augment, dsl

    doc = dsl.load_doc(args.file)
    if args.plan is not None:
        targets = tuple(t.strip() for t in args.plan.split(","))
    elif doc.plan is None:
        raise StatementError("file declares no plan; pass --plan")
    else:
        targets = doc.plan
    build = augment.build_itt_dag if args.itt else augment.build_augmented_dag
    out = build(doc.dag, augment.InterventionPlan(targets))
    text = dsl.canonical_graph_text(doc.name + ("_itt" if args.itt else "_aug"), out)
    return EXIT_OK, {"graph": text}, text.rstrip("\n")


def _cmd_project(args) -> Answer:
    from dtcausal import augment, dsl

    doc = dsl.load_doc(args.file)
    drop = frozenset(t.strip() for t in args.drop.split(","))
    text = dsl.canonical_graph_text(doc.name + "_proj", augment.eliminate_nodes(doc.dag, drop))
    return EXIT_OK, {"graph": text}, text.rstrip("\n")


def _cmd_verify(args) -> Answer:
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
    return (EXIT_OK if ok else EXIT_NO), {"check": args.check, "holds": ok}, "holds" if ok else "does not hold"


def _cmd_identify(args) -> Answer:
    from dtcausal import augment, dsl

    doc = dsl.load_doc(args.file)
    cert = augment.identify_two_stage(doc.dag, args.x0, args.x1, args.z, args.y)
    payload = {
        "identified": cert.identified,
        "estimand": cert.estimand,
        "checks": [{**c._asdict(), "statement": format_statement(c.statement)} for c in cert.checks],
    }
    return (EXIT_OK if cert.identified else EXIT_NO), payload, cert.report()


def _cmd_gformula(args) -> Answer:
    from dtcausal import oracle

    model = oracle.load_model(args.model)
    y = _parse_binding(args.y)
    x0 = _parse_binding(args.x0)
    x1 = _parse_binding(args.x1)
    value = oracle.gformula_eval(model, y, x0, x1, args.z)
    return EXIT_OK, {"probability": value}, f"{value:.12g}"


def _cmd_ace(args) -> Answer:
    from dtcausal import decision

    doc = load_json(args.file)
    if "actions" in doc:
        problem = decision.problem_from_json(doc)
        if len(problem.actions) < 2:
            raise decision.DecisionError(f"ACE compares two actions; the problem has only {problem.actions[0]!r}")
        # A missing side is the first action that differs from the other side.
        a1 = args.a1 or next(a for a in problem.actions if a != args.a0)
        a0 = args.a0 or next(a for a in problem.actions if a != a1)
        for a in (a1, a0):
            if a not in problem.actions:
                raise decision.DecisionError(f"unknown action {a!r}; the problem's actions are {list(problem.actions)}")
        if a1 == a0:
            raise decision.DecisionError(f"ACE compares two different actions; --a1 and --a0 both name {a1!r}")
        value = decision.ace(problem.hypothetical[a1], problem.hypothetical[a0])
    else:
        from dtcausal import oracle

        model = oracle.model_from_json(doc)
        if not (args.y and args.action):
            raise StatementError("model input requires --y and --action")
        value = oracle.ace(model, args.y, args.action)
    return EXIT_OK, {"ace": value}, f"{value:.12g}"


def _cmd_lognormal(args) -> Answer:
    from dtcausal import decision

    payload = decision.lognormal_effects(decision.NormalPair(args.mu1, args.mu0, args.sigma2))._asdict()
    text = "\n".join(f"{k} = {v:.12g}" for k, v in payload.items())
    return EXIT_OK, payload, text


def _cmd_simulate(args) -> Answer:
    from dtcausal import oracle

    result = oracle.simulate_study(oracle.study_from_json(load_json(args.spec)), args.n, args.seed)
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
    return EXIT_OK, vars(result), "\n".join(lines)


def _cmd_render(args) -> Answer:
    from dtcausal import dsl

    doc = dsl.load_doc(args.file)
    dot = to_dot(doc.dag, doc.name)
    if args.dot == "-":
        return EXIT_OK, {"dot": dot}, dot.rstrip("\n")
    with open(args.dot, "w") as fh:
        fh.write(dot)
    return EXIT_OK, {"dot": dot}, ""


# -- argument parsing ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # The help shows the summary and exit codes; the notes after them are for readers of the code.
    top = argparse.ArgumentParser(prog="dtcausal", description="\n\n".join(__doc__.split("\n\n")[:2]))
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
    p.add_argument("--tol", type=_tolerance, help="numeric tolerance (default: oracle.DEFAULT_TOL)")
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
        code, payload, text = args.func(args)
    except Exception as exc:  # a crash must not exit 1, which means "does not hold"
        code = next((_EXIT_OF_ERROR[c.__name__] for c in type(exc).__mro__ if c.__name__ in _EXIT_OF_ERROR), None)
        if code is None:
            message = " ".join(str(exc).split())
            print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
            return EXIT_INTERNAL
        print(f"error: {exc}", file=sys.stderr)
        return code
    try:
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        elif text:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:  # a reader that closed stdout does not change the answer
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit writes nowhere
    return code


if __name__ == "__main__":
    sys.exit(main())
