"""Spans around dtcausal's public functions, recorded only in the traced run.

`Tracer.install` replaces each public function listed in `WRAPPED` by a
wrapper in every loaded dtcausal module that holds it, and on its class for
methods, so calls between modules are seen too.  A wrapper records a span
(name, start, end, parent span, request id) only while a request is open, so
set-up and answer checks leave no spans.  Spans stay in memory until the run
writes them out.  `layer_metrics` turns them into per-layer figures, with
self time = span time minus the part of it that child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(os.path.dirname(HERE), ".bench_out")

# Public functions and methods wrapped per module.
WRAPPED = {
    "dsl": ("parse", "load_doc", "canonical_graph_text", "print_doc"),
    "statements": ("parse_statement", "parse_premise_file", "format_statement"),
    "graph": ("Dag.of", "topological_order", "restrict_to_regime", "moral_graph", "surgery", "to_dot"),
    "dsep": ("d_separated", "separated", "d_separated_paths", "implied_statements"),
    "augment": (
        "build_itt_dag", "build_augmented_dag", "eliminate_nodes", "identify_two_stage", "rule_applicability",
    ),
    "eci": ("closure", "derivable", "ProofTrace.replay"),
    "oracle": (
        "model_from_json", "load_model", "MultiRegimeModel.joint", "eci_holds", "check_distributional_consistency",
        "check_ignorability", "check_sufficient_covariate", "interventional_query", "gformula_eval", "ett",
        "simulate_study",
    ),
    "decision": (
        "solve", "ace", "lognormal_effects", "prior_predictive", "plugin_estimate", "plugin_mean",
        "problem_from_json", "load_problem",
    ),
}
LAYERS = tuple(WRAPPED)
DSEP_QUERIES = ("dsep.d_separated", "dsep.separated", "dsep.d_separated_paths")
ORACLE_CHECKS = (
    "oracle.check_distributional_consistency", "oracle.check_ignorability", "oracle.check_sufficient_covariate",
)

# Span record fields.
ID, PARENT, REQUEST, NAME, START, END, ERROR = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._request = None
        self._patches: list[tuple[object, str, object, object]] = []  # owner, attr, original, wrapper
        self._built: dict[int, tuple[weakref.ref, set]] = {}

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, self._request, name, time.perf_counter(), None, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int, error: str | None = None) -> None:
        span = self.spans[sid]
        span[END] = time.perf_counter()
        span[ERROR] = error
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        except BaseException as exc:
            self.close(sid, type(exc).__name__)
            raise
        self.close(sid)

    @contextmanager
    def request(self, rid: int, root: str | None = "request"):
        """Record spans for request `rid`, under one root span unless `root` is None."""
        self._request = rid
        try:
            if root is None:
                yield
            else:
                with self.span(root):
                    yield
        finally:
            self._request = None

    def adopt(self, doc: dict) -> None:
        """Graft spans and counts recorded by a child process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for span in doc["spans"]:
            span = list(span)
            span[ID] += base
            span[PARENT] = parent if span[PARENT] is None else span[PARENT] + base
            span[REQUEST] = self._request
            self.spans.append(span)
        self.counts.update(doc["counts"])

    def run_traced_cli(self, workload, argv: list[str]):
        """One CLI request in a child that records its own spans (see cli_traced.py)."""
        out = os.path.join(OUT_DIR, f"cli-spans-{os.getpid()}.json")
        proc = workload.run_cli(argv, prefix=[os.path.join(HERE, "cli_traced.py"), out])
        if os.path.exists(out):
            with open(out) as fh:
                self.adopt(json.load(fh))
            os.remove(out)
        return proc

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["id", "parent", "request", "name", "start", "end", "error"],
                       "counts": self.counts, "spans": self.spans}, fh)

    # -- instrumentation -----------------------------------------------

    def install(self) -> None:
        """Wrap the listed functions of every dtcausal module already imported."""
        if not self._patches:
            self._find_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _find_patches(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "dtcausal" or n.startswith("dtcausal.")]
        for layer, names in WRAPPED.items():
            module = sys.modules.get("dtcausal." + layer)
            if module is None:
                continue
            for dotted in names:
                span = f"{layer}.{dotted}"
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    cls = getattr(module, cls_name)
                    raw = vars(cls)[attr]
                    if isinstance(raw, staticmethod):
                        wrapper = staticmethod(self._wrap(span, raw.__func__))
                    else:
                        wrapper = self._wrap(span, raw)
                    self._patches.append((cls, attr, raw, wrapper))
                    continue
                original = getattr(module, dotted)
                wrapper = self._wrap(span, original)
                for mod in modules:
                    for key, value in vars(mod).items():
                        if value is original:
                            self._patches.append((mod, key, original, wrapper))

    def _wrap(self, span: str, fn):
        before = getattr(self, "_before_" + span.replace(".", "_"), None)
        after = getattr(self, "_after_" + span.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._request is None:
                return fn(*args, **kwargs)
            name = before(*args, **kwargs) if before else None
            sid = self.open(name or span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(sid, type(exc).__name__)
                self.counts[f"{span}!{type(exc).__name__}"] += 1
                raise
            self.close(sid)
            if after:
                after(result, *args, **kwargs)
            return result

        return wrapper

    # Hooks named after the span they serve; they count work the span alone cannot show.

    def _after_dsep_d_separated(self, result, *args, **kwargs) -> None:
        self.counts["dsep.certified"] += bool(result)

    _after_dsep_separated = _after_dsep_d_separated
    _after_dsep_d_separated_paths = _after_dsep_d_separated

    def _after_eci_derivable(self, result, *args, **kwargs) -> None:
        ok, trace = result
        if ok:
            self.counts["eci.derived"] += 1
            self.counts["eci.trace_steps"] += len(trace.steps)

    def mark_built(self, model, regime) -> None:
        """Record a joint table built before tracing began (in set-up)."""
        self._joint_seen(model).add(tuple(sorted(dict(regime).items())))

    def _joint_seen(self, model) -> set:
        ref, seen = self._built.get(id(model), (None, None))
        if ref is None or ref() is not model:
            ref, seen = weakref.ref(model), set()
            self._built[id(model)] = (ref, seen)
        return seen

    def _before_oracle_MultiRegimeModel_joint(self, model, regime) -> str:
        # A build is the first call for a given model and regime assignment.
        seen = self._joint_seen(model)
        key = tuple(sorted(dict(regime).items()))
        if key in seen:
            return "oracle.joint_hit"
        seen.add(key)
        states = 1
        for v in model.variables:
            states *= len(model.states[v])
        self.counts["oracle.states_enumerated"] += states
        return "oracle.joint_build"

    def _before_oracle_eci_holds(self, model, stmt, *args, **kwargs) -> None:
        # Context x given x right cells, counted from the domains as eci_holds walks them.
        regimes = set(model.regime_names)
        pins = {name for name, _ in stmt.pinned}
        right = stmt.right - stmt.given - pins
        cells = 1
        for r in regimes - right:
            cells *= 1 if r in pins else len(model.regime_domain(r))
        for r in right & regimes:
            cells *= len(model.regime_domain(r))
        for v in (stmt.given | right) - regimes:
            cells *= len(model.states[v])
        self.counts["oracle.eci_cells"] += cells



def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals within it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for s in spans:
        start, end = s[START], s[END]
        covered, run_start, run_end = 0.0, None, None
        for a, b in sorted(children.get(s[ID], ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures over everything the tracer recorded."""
    spans, c = tracer.spans, tracer.counts
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    total_s = 0.0
    for span, own in zip(spans, selfs):
        calls[span[NAME]] += 1
        self_s[span[NAME]] += own
        if span[PARENT] is None and span[NAME] == "request":
            total_s += span[END] - span[START]

    def ms(*names: str) -> float:
        return 1000.0 * sum(self_s[n] for n in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def share(seconds: float) -> float:
        return 100.0 * ratio(seconds, total_s)

    def layer_s(layer: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    query_calls = sum(calls[n] for n in DSEP_QUERIES)
    joint_calls = calls["oracle.joint_build"] + calls["oracle.joint_hit"]
    build_ms = ms("oracle.joint_build")
    m = {
        "dsl.load_doc_calls": calls["dsl.load_doc"],
        "dsl.parse_ms": ms("dsl.parse"),
        "statements.parse_ms": ms("statements.parse_statement", "statements.parse_premise_file"),
        "graph.dag_of_calls": calls["graph.Dag.of"],
        "graph.dag_of_ms": ms("graph.Dag.of"),
        "graph.restrict_calls": calls["graph.restrict_to_regime"],
        "graph.topo_calls": calls["graph.topological_order"],
        "dsep.query_calls": query_calls,
        "dsep.query_ms": ms(*DSEP_QUERIES),
        "dsep.implied_calls": calls["dsep.implied_statements"],
        "dsep.implied_ms": ms("dsep.implied_statements"),
        "dsep.certified_ratio": ratio(c["dsep.certified"], query_calls),
        "augment.eliminate_calls": calls["augment.eliminate_nodes"],
        "augment.eliminate_ms": ms("augment.eliminate_nodes"),
        "augment.refused_ratio": ratio(
            c["augment.eliminate_nodes!ProjectionError"], calls["augment.eliminate_nodes"]
        ),
        "augment.build_itt_ms": ms("augment.build_itt_dag"),
        "eci.derivable_calls": calls["eci.derivable"],
        "eci.derivable_ms": ms("eci.derivable"),
        "eci.derived_ratio": ratio(c["eci.derived"], calls["eci.derivable"]),
        "eci.trace_steps": c["eci.trace_steps"],
        "eci.replay_ms": ms("eci.ProofTrace.replay"),
        "oracle.load_model_ms": ms("oracle.model_from_json", "oracle.load_model"),
        "oracle.joint_calls": joint_calls,
        "oracle.joint_builds": calls["oracle.joint_build"],
        "oracle.joint_hit_ratio": ratio(calls["oracle.joint_hit"], joint_calls),
        "oracle.joint_build_ms": build_ms,
        "oracle.states_enumerated": c["oracle.states_enumerated"],
        "oracle.states_per_s": ratio(c["oracle.states_enumerated"], build_ms / 1000.0),
        "oracle.eci_holds_calls": calls["oracle.eci_holds"],
        "oracle.eci_holds_ms": ms("oracle.eci_holds"),
        "oracle.eci_cells": c["oracle.eci_cells"],
        "oracle.check_ms": ms(*ORACLE_CHECKS),
        "oracle.gformula_ms": ms("oracle.gformula_eval"),
        "oracle.joint_build_share_pct": share(self_s["oracle.joint_build"]),
        "oracle.eci_holds_share_pct": share(self_s["oracle.eci_holds"]),
        "cli.import_share_pct": share(self_s["cli.import"]),
        "request.self_share_pct": share(self_s["request"] + self_s["cli.main"]),
    }
    for layer in LAYERS:
        m[f"{layer}.share_pct"] = share(layer_s(layer))
    return m
