"""The four benchmark workloads: seeded inputs, one request, and its checks.

Each workload is an object with the same pieces:

* ``inputs(seed)``: the request pool as plain JSON data, made only from
  the seed (no dtcausal code runs while inputs are made);
* ``setup(pool)``: imports what the requests need and builds shared state;
* ``request(state, i)``: one request, the only part that is timed;
* ``check(state, i, answer)``: raises ``CheckFailed`` when the answer is wrong;
* ``digest(state, i, answer)``: the answer's short form, kept in the
  expected-answers record for the default seed.

Every pool follows a fixed schedule of request kinds and sizes; the seed
fills in graph structure, probabilities, names and order.  A fixed schedule
keeps the mix of request costs the same from seed to seed, so a run's
medians move with the program rather than with the draw.

The requests call dtcausal through module attributes (``state.dsep.x``),
never through names bound here, so the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import heapq
import importlib
import itertools
import os
import random
import subprocess
import sys
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IDLE = "~"
TOL = 1e-9


class CheckFailed(AssertionError):
    """An answer that is wrong, or a request that ended the wrong way."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _import(*names: str) -> SimpleNamespace:
    return SimpleNamespace(**{n: importlib.import_module("dtcausal." + n) for n in names})


def _rng(seed: int, workload: str) -> random.Random:
    # String seeding hashes with SHA-512, so it does not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}")


def _dirichlet(rng: random.Random, k: int) -> list[float]:
    w = [rng.gammavariate(1.0, 1.0) for _ in range(k)]
    total = sum(w)
    return [x / total for x in w]


def _model_doc(rng: random.Random, spec: list[tuple], regimes: list[tuple[str, str, str]]) -> dict:
    """ITT model document from ``(name, n_states, parents, latent)`` rows in
    topological order; deterministic targets carry no CPT."""
    targets = {t for _, t, _ in regimes}
    sizes: dict[str, int] = {}
    variables, cpts = [], []
    for name, n, parents, latent in spec:
        sizes[name] = n
        entry = {"name": name, "states": list(range(n))}
        if latent:
            entry["latent"] = True
        if name in targets:
            entry["deterministic"] = True
            variables.append(entry)
            continue
        variables.append(entry)
        rows = [
            {"parents": list(combo), "probs": _dirichlet(rng, n)}
            for combo in itertools.product(*(range(sizes[p]) for p in parents))
        ]
        cpts.append({"child": name, "parents": list(parents), "rows": rows})
    return {
        "mode": "itt",
        "variables": variables,
        "regimes": [{"name": r, "target": t, "itt": s} for r, t, s in regimes],
        "cpts": cpts,
    }


def two_stage_doc(rng, k: int = 2, n_treat: int = 2, n_pad: int = 0, confounded: bool = False) -> dict:
    """Sequential treatments T0 -> Z -> T1 -> Y (H a latent confounder of Z
    and T1*), an optional third treatment T2 downstream of Y, and a chain of
    padding descendants that set the joint size without touching Y."""
    spec = [
        ("H", 2, (), True),
        ("T0*", k, (), True),
        ("T0", k, (), False),
        ("Z", 2, ("T0", "H"), False),
        ("T1*", k, ("H", "Z"), True),
        ("T1", k, (), False),
        ("Y", 2, ("Z", "T1", "H") if confounded else ("Z", "T1"), False),
    ]
    regimes = [("F_T0", "T0", "T0*"), ("F_T1", "T1", "T1*")]
    last = "Y"
    if n_treat == 3:
        spec += [("T2*", k, ("Y",), True), ("T2", k, (), False), ("Y2", 2, ("T2", "Y"), False)]
        regimes.append(("F_T2", "T2", "T2*"))
        last = "Y2"
    for i in range(n_pad):
        spec.append((f"P{i}", 2, (last,), False))
        last = f"P{i}"
    return _model_doc(rng, spec, regimes)


def trio_doc(rng, ignorable: bool) -> dict:
    spec = [("T*", 2, (), True), ("T", 2, (), False), ("Y", 2, ("T",) if ignorable else ("T", "T*"), False)]
    return _model_doc(rng, spec, [("F_T", "T", "T*")])


def suffcov_doc(rng) -> dict:
    spec = [("X", 2, (), False), ("T*", 2, ("X",), True), ("T", 2, (), False), ("Y", 2, ("X", "T"), False)]
    return _model_doc(rng, spec, [("F_T", "T", "T*")])


# -- host-speed probes ---------------------------------------------------------
#
# A probe is fixed work that no change to dtcausal touches.  The end-to-end
# run times one between requests, and reports each request's time as a
# multiple of the probes on either side of it, in probe reference times.  On
# a shared host the same code runs 15-70% slower for stretches of seconds to
# whole minutes; a request and the probes next to it see the same host, so
# their ratio moves far less.


def python_probe() -> None:
    """Pure-Python work of the kind the in-process requests do: tuples,
    dicts, frozensets and a sort, over a working set of a few thousand
    objects, so that it feels cache and memory contention as they do."""
    rng = random.Random(7)
    counts: dict[tuple[int, int], int] = {}
    pairs = set()
    for _ in range(6000):
        key = (rng.randrange(200), rng.randrange(200))
        counts[key] = counts.get(key, 0) + 1
        pairs.add(frozenset(key))
    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def process_probe() -> None:
    """A fresh interpreter that imports numpy: process start and library
    loading, as in a CLI call, without dtcausal."""
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, check=True, capture_output=True, timeout=120)


# The unit in which probe-relative times are reported: a round figure near
# each probe's time on a 2-core x86-64 host, in seconds.
PYTHON_PROBE_S = 0.020
PROCESS_PROBE_S = 0.120
# In-process workloads probe after a request once this many seconds have
# passed since the last probe, so that short requests are not mostly probe;
# cli_corpus probes after about every other request.
PROBE_EVERY_S = 0.1


def same_answer(a, b) -> bool:
    """Digest equality, with floats compared to within 1e-9."""
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and abs(a - b) <= TOL
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same_answer(x, y) for x, y in zip(a, b))
    return a == b


# -- cli_corpus ---------------------------------------------------------------


CLI_EXAMPLES = {
    # name: (argv after "dtcausal", expected exit code).  These are the README's
    # CLI examples; "verify ... ignorability" answers "does not hold" by design.
    "dsep": (["dsep", "corpus/itt_ignorable.cadt", "--query", "Y _||_ T*, F_T | T"], 0),
    "derive": (["derive", "corpus/contraction.eci", "--target", "X _||_ Y, W | Z"], 0),
    "augment": (["augment", "corpus/two_stage_obs.cadt", "--itt"], 0),
    "project": (["project", "corpus/two_stage_itt.cadt", "--drop", "X0*,X1*"], 0),
    "verify": (["verify", "corpus/models/itt_example.json", "--check", "ignorability", "--y", "Y", "--action", "T"], 1),
    "identify": (["identify", "corpus/two_stage_obs.cadt", "--y", "Y", "--x0", "X0", "--x1", "X1", "--z", "Z"], 0),
    "gformula": (["gformula", "corpus/models/two_stage.json", "--y", "Y=1", "--x0", "X0=1", "--x1", "X1=0", "--z", "Z"], 0),
    "ace": (["ace", "corpus/models/itt_example.json", "--y", "Y", "--action", "T"], 0),
    "lognormal": (["lognormal", "--mu1", "0.8", "--mu0", "0.2", "--sigma2", "0.5"], 0),
    "simulate": (["simulate", "corpus/models/study_confounded.json", "--n", "100000", "--seed", "7"], 0),
    "render": (["render", "corpus/instrument.cadt", "--dot", "-"], 0),
}


class CliCorpus:
    """Each request is a fresh ``python -m dtcausal.cli`` process."""

    name = "cli_corpus"
    probe, probe_s, probe_every_s = staticmethod(process_probe), PROCESS_PROBE_S, 0.25
    record_every_seed = True  # the inputs are the corpus, so answers do not depend on the seed

    def inputs(self, seed: int) -> list[str]:
        order = sorted(CLI_EXAMPLES)
        _rng(seed, self.name).shuffle(order)
        return order

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        return env

    def run_cli(self, argv: list[str], prefix: list[str] | None = None) -> subprocess.CompletedProcess:
        cmd = [sys.executable] + (prefix or ["-m", "dtcausal.cli"]) + argv
        return subprocess.run(cmd, cwd=ROOT, env=self.env(), capture_output=True, text=True, timeout=120)

    def setup(self, pool: list[str]) -> SimpleNamespace:
        # One untimed call compiles the package's bytecode and warms the file cache.
        warm = self.run_cli(["lognormal", "--mu1", "0", "--mu0", "0", "--sigma2", "1"])
        require(warm.returncode == 0, f"warm-up call failed: {warm.stderr.strip()[-300:]}")
        return SimpleNamespace(pool=pool, tracer=None)

    def request(self, state, i: int):
        argv = CLI_EXAMPLES[state.pool[i]][0]
        if state.tracer is None:
            return self.run_cli(argv)
        return state.tracer.run_traced_cli(self, argv)

    def check(self, state, i: int, answer) -> None:
        name = state.pool[i]
        want = CLI_EXAMPLES[name][1]
        require("Traceback" not in answer.stderr, f"{name}: traceback on stderr")
        require(answer.returncode == want, f"{name}: exit {answer.returncode}, expected {want}")
        require(answer.stdout.strip() != "", f"{name}: no output")

    def digest(self, state, i: int, answer):
        return [state.pool[i], answer.returncode, hashlib.sha256(answer.stdout.encode()).hexdigest()[:16]]


# -- oracle_build -------------------------------------------------------------


# Model shapes: (states per treatment, treatments, padding variables); the
# pool holds two models of each.  Joint states per regime assignment run
# 2^9..2^12 and regime assignments 9..27, so one request enumerates
# 4.6k..41k states.  A pass takes about 2 s, so each request repeats about
# ten times in a run; larger models would leave too few repetitions for a
# steady median.
BUILD_SHAPES = ((2, 2, 2), (2, 2, 3), (2, 2, 3), (2, 2, 4), (3, 2, 1), (3, 2, 2), (2, 3, 0), (2, 2, 5))


class OracleBuild:
    """Each request loads a fresh model document and builds every joint table."""

    name = "oracle_build"
    probe, probe_s, probe_every_s = staticmethod(python_probe), PYTHON_PROBE_S, PROBE_EVERY_S
    record_every_seed = False

    def inputs(self, seed: int) -> list[dict]:
        rng = _rng(seed, self.name)
        pool = []
        for k, n_treat, n_pad in BUILD_SHAPES * 2:
            doc = two_stage_doc(rng, k, n_treat, n_pad)
            query = {"y": rng.randrange(2), "x0": rng.randrange(k), "x1": rng.randrange(k)}
            pool.append({"model": doc, "query": query})
        rng.shuffle(pool)
        return pool

    def setup(self, pool: list[dict]) -> SimpleNamespace:
        return SimpleNamespace(pool=pool, tracer=None, **vars(_import("oracle")))

    def request(self, state, i: int):
        item = state.pool[i]
        model = state.oracle.model_from_json(item["model"])
        queries = [
            (a, state.oracle.interventional_query(model, "Y", a)) for a in model.all_regime_assignments()
        ]
        q = item["query"]
        g = state.oracle.gformula_eval(model, ("Y", q["y"]), ("T0", q["x0"]), ("T1", q["x1"]), "Z")
        return model, queries, g

    def check(self, state, i: int, answer) -> None:
        model, queries, g = answer
        for assignment, dist in queries:
            total = float(model.joint(assignment).probs.sum())
            require(abs(total - 1.0) <= TOL, f"joint table for {assignment} sums to {total}")
            require(abs(sum(dist.values()) - 1.0) <= TOL, f"query for {assignment} does not sum to 1")
        q = state.pool[i]["query"]
        regime = {r: IDLE for r in model.regime_names}
        regime.update({"F_T0": q["x0"], "F_T1": q["x1"]})
        want = state.oracle.interventional_query(model, "Y", regime)[q["y"]]
        require(abs(g - want) <= TOL, f"g-formula {g} differs from the interventional query {want}")

    def digest(self, state, i: int, answer):
        _, queries, g = answer
        return [len(queries), g, sum(dist[1] for _, dist in queries)]


# -- oracle_query -------------------------------------------------------------


# Query kinds, one slot each per cycle of the schedule.  "markov" statements
# hold by the two-stage graph's local Markov property, so eci_holds walks
# every cell; "eci" statements are drawn at random and mostly fail early.
QUERY_SCHEDULE = ("markov",) * 5 + ("eci",) * 5 + ("ignorability", "sufficient", "consistency", "ett", "gformula")
QUERY_POOL = 800
TWO_STAGE_STOCH = ("H", "T0*", "T0", "Z", "T1*", "T1", "Y")
TWO_STAGE_REGIMES = ("F_T0", "F_T1")
# Parents, and non-descendants that are not parents, in the two-stage graph.
TWO_STAGE_MARKOV = {
    "Y": (("Z", "T1"), ("H", "T0*", "T0", "T1*", "F_T0", "F_T1")),
    "Z": (("T0", "H"), ("T0*", "F_T0", "F_T1")),
    "T1*": (("H", "Z"), ("T0*", "T0", "F_T0", "F_T1")),
}


def _conditioning(rng: random.Random, names) -> str:
    """Conditioning terms; each regime is pinned to a value half the time."""
    terms = []
    for g in names:
        if g.startswith("F_") and rng.random() < 0.5:
            terms.append(f"{g}={rng.choice((IDLE, '0', '1'))}")
        else:
            terms.append(g)
    return ", ".join(terms)


def _eci_text(rng: random.Random) -> str:
    """Random statement over a two-stage model: one stochastic left variable,
    one or two right terms (regimes included), three or four conditioning terms."""
    pool = list(TWO_STAGE_STOCH + TWO_STAGE_REGIMES)
    left = rng.choice(TWO_STAGE_STOCH)
    pool.remove(left)
    rng.shuffle(pool)
    n_right = rng.choice((1, 1, 2))
    right, given = pool[:n_right], pool[n_right:n_right + rng.choice((3, 4))]
    return f"{left} _||_ {', '.join(right)} | {_conditioning(rng, given)}"


def _markov_text(rng: random.Random) -> str:
    """A variable independent of some non-descendants given its parents and
    others, three or four conditioning terms in all."""
    left = rng.choice(sorted(TWO_STAGE_MARKOV))
    parents, others = TWO_STAGE_MARKOV[left]
    others = rng.sample(others, len(others))
    n_given = rng.choice((3, 4)) - len(parents)
    right, extra = others[:max(1, min(2, len(others) - n_given))], others[-n_given:]
    return f"{left} _||_ {', '.join(right)} | {_conditioning(rng, list(parents) + extra)}"


def _query(rng: random.Random, kind: str) -> dict:
    if kind == "markov":
        return {"kind": "eci", "model": "two_stage", "statement": _markov_text(rng)}
    if kind == "eci":
        model = rng.choice(("two_stage", "two_stage_confounded"))
        return {"kind": kind, "model": model, "statement": _eci_text(rng)}
    if kind == "ignorability":
        return {"kind": kind, "model": rng.choice(("trio_ignorable", "trio_nonignorable"))}
    if kind == "sufficient":
        return {"kind": kind, "model": "suffcov"}
    if kind in ("consistency", "ett"):
        return {"kind": kind, "model": rng.choice(("trio_ignorable", "trio_nonignorable", "suffcov"))}
    return {"kind": kind, "model": "two_stage", "y": rng.randrange(2), "x0": rng.randrange(2), "x1": rng.randrange(2)}


class OracleQuery:
    """Queries against a few small models whose joints are all built in setup.

    Each query slot is drawn from its slot number alone; the seed draws the
    models' probabilities and orders the pool, so every seed's pool holds
    the same mix of work."""

    name = "oracle_query"
    probe, probe_s, probe_every_s = staticmethod(python_probe), PYTHON_PROBE_S, PROBE_EVERY_S
    record_every_seed = False

    def inputs(self, seed: int) -> dict:
        rng = _rng(seed, self.name)
        models = {
            "two_stage": two_stage_doc(rng),
            "two_stage_confounded": two_stage_doc(rng, confounded=True),
            "suffcov": suffcov_doc(rng),
            "trio_ignorable": trio_doc(rng, True),
            "trio_nonignorable": trio_doc(rng, False),
        }
        kinds = itertools.islice(itertools.cycle(QUERY_SCHEDULE), QUERY_POOL)
        queries = [_query(random.Random(f"{self.name}-slot:{k}"), kind) for k, kind in enumerate(kinds)]
        rng.shuffle(queries)
        return {"models": models, "queries": queries}

    def setup(self, pool: dict) -> SimpleNamespace:
        mods = _import("oracle", "statements", "dsep")
        models = {name: mods.oracle.model_from_json(doc) for name, doc in pool["models"].items()}
        warm = [(m, a) for m in models.values() for a in m.all_regime_assignments()]
        for model, assignment in warm:
            model.joint(assignment)
        stmts, certified = {}, {}
        for i, q in enumerate(pool["queries"]):
            if q["kind"] == "eci":
                stmt = mods.statements.parse_statement(q["statement"])
                stmts[i] = stmt
                certified[i] = mods.dsep.d_separated(models[q["model"]].dag, stmt)
        return SimpleNamespace(
            pool=pool["queries"], tracer=None, models=models, stmts=stmts, certified=certified, warm_joints=warm,
            **vars(mods),
        )

    def request(self, state, i: int):
        q = state.pool[i]
        model = state.models[q["model"]]
        orc = state.oracle
        kind = q["kind"]
        if kind == "eci":
            return orc.eci_holds(model, state.stmts[i])
        if kind == "ignorability":
            return orc.check_ignorability(model, "Y", "T")
        if kind == "sufficient":
            return orc.check_sufficient_covariate(model, "X", "Y", "T")
        if kind == "consistency":
            return orc.check_distributional_consistency(model, ["Y"], "T")
        if kind == "ett":
            return orc.ett(model, "Y", "T")
        return orc.gformula_eval(model, ("Y", q["y"]), ("T0", q["x0"]), ("T1", q["x1"]), "Z")

    def check(self, state, i: int, answer) -> None:
        q = state.pool[i]
        kind = q["kind"]
        model = state.models[q["model"]]
        orc = state.oracle
        if kind == "eci":
            if state.certified[i]:
                require(answer is True, f"graph-certified {q['statement']!r} fails numerically")
        elif kind in ("sufficient", "consistency") or (kind == "ignorability" and q["model"] == "trio_ignorable"):
            require(answer is True, f"{kind} check fails on {q['model']}")
        elif kind == "ett" and q["model"] == "trio_ignorable":
            do = [orc.interventional_query(model, "Y", {"F_T": t})[1] for t in (1, 0)]
            require(abs(answer - (do[0] - do[1])) <= TOL, "ETT differs from the ACE on an ignorable trio")
        elif kind == "gformula":
            want = orc.interventional_query(model, "Y", {"F_T0": q["x0"], "F_T1": q["x1"]})[q["y"]]
            require(abs(answer - want) <= TOL, f"g-formula {answer} differs from the interventional query {want}")

    def digest(self, state, i: int, answer):
        return answer


# -- symbolic -----------------------------------------------------------------


# The request pool, one entry per slot.  Projection: observed nodes, plan
# size, whether a shared latent parent is dropped too.  Enumeration: nodes.
# Derivation: premise family, variables, whether the target is d-separated.
# One pass over the pool takes about 2 s, so each request repeats about ten
# times in a 28-second run and its median probe-relative time is a steady
# figure on a noisy machine; that budget leaves out 11-node enumerations (0.9 s each)
# and the 7-variable chain (0.4-0.7 s).  Each slot's graph structure is drawn
# from the slot number alone; the seed relabels nodes, picks targets and
# orders the pool.  So every seed's pool has the same costs, and runs on
# different seeds differ in what they ask rather than in how much work they
# hold.
SYMBOLIC_SLOTS = (
    *[("projection", 6, 1, False)] * 2,
    *[("projection", 6, 1, True)] * 2,
    *[("projection", 6, 2, True)] * 2,
    *[("projection", 7, 1, True)] * 2,
    ("projection", 8, 1, True),
    *[("enumeration", 9)] * 3,
    ("enumeration", 10),
    ("derivation", "chain", 5, True),
    ("derivation", "seqrand", 5, False),
    ("derivation", "chain", 6, True),
    ("derivation", "chain", 6, False),
    ("derivation", "seqrand", 6, True),
    ("derivation", "seqrand", 6, False),
    ("derivation", "seqrand", 7, True),
)


def _cadt(name: str, nodes: list[str], edges: list[tuple[str, str]], latent=(), plan=None) -> str:
    lines = [f"graph {name} {{"]
    lines += [f"  node {v}{' latent' if v in latent else ''};" for v in nodes]
    lines += [f"  edge {a} -> {b};" for a, b in edges]
    lines.append("}")
    if plan:
        lines.append(f"plan: {', '.join(plan)};")
    return "\n".join(lines) + "\n"


def _random_edges(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    """A fixed number of forward edges between positions 0..n-1."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return rng.sample(pairs, round(density * len(pairs)))


def _topological(names: list[str], edges: list[tuple[str, str]]) -> list[str]:
    """Kahn's algorithm, smallest name first among the ready nodes."""
    indegree = {v: 0 for v in names}
    for _, b in edges:
        indegree[b] += 1
    ready = [v for v in names if not indegree[v]]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for a, b in edges:
            if a == v:
                indegree[b] -= 1
                if not indegree[b]:
                    heapq.heappush(ready, b)
    return order


def _labels(rng: random.Random, n: int) -> list[str]:
    """Node names for structural positions 0..n-1, permuted by the seed."""
    return [f"V{i}" for i in rng.sample(range(n), n)]


def _projection(rng: random.Random, shape: random.Random, n: int, n_targets: int, with_latent: bool) -> dict:
    names = _labels(rng, n)
    edges = [(names[a], names[b]) for a, b in _random_edges(shape, n, 0.35)]
    latent = []
    if with_latent:
        a, b = sorted(shape.sample(range(n), 2))
        edges += [("L", names[a]), ("L", names[b])]
        latent = ["L"]
    # A plan lists its targets in the order of the graph's topological sort,
    # which breaks ties by name.
    order = _topological(latent + names, edges)
    targets = sorted((names[t] for t in shape.sample(range(1, n), n_targets)), key=order.index)
    text = _cadt("obs", latent + sorted(names), sorted(edges), latent, targets)
    return {"kind": "projection", "cadt": text, "drop": [t + "*" for t in targets] + latent}


def _enumeration(rng: random.Random, shape: random.Random, n: int) -> dict:
    names = _labels(rng, n)
    edges = sorted((names[a], names[b]) for a, b in _random_edges(shape, n, 0.3))
    return {"kind": "enumeration", "cadt": _cadt("g", sorted(names), edges)}


def _derivation(rng: random.Random, family: str, n: int, derivable: bool) -> dict:
    """Premises are the ordered local Markov statements of a generating DAG;
    the target is d-separated in it (derivable) or d-connected (not)."""
    if family == "chain":
        v = [f"X{i}" for i in rng.sample(range(n), n)]
        premises = [f"{v[i + 1]} _||_ {', '.join(v[:i])} | {v[i]}" for i in range(1, n - 1)]
        edges = [(v[i], v[i + 1]) for i in range(n - 1)]
        i, k, j = sorted(rng.sample(range(n), 3))
        if derivable:
            tail = [v[m] for m in range(j + 1, n) if rng.random() < 0.5]
            target = f"{v[j]}{''.join(', ' + t for t in tail)} _||_ {v[i]} | {v[k]}"
        else:
            target = rng.choice((f"{v[i]} _||_ {v[j]}", f"{v[i]} _||_ {v[k]} | {v[j]}"))
        regimes: list[str] = []
    else:
        stages = 2 if n == 5 else 3
        f = [f"F{i}" for i in range(1, stages + 1)]
        w = [f"W{i}" for i in range(1, stages + 1)]
        premises = [f"{f[i]} _||_ {', '.join(f[:i])}" for i in range(1, stages)]
        for i in range(stages):
            others = [x for m, x in enumerate(f) if m != i] + w[:max(0, i - 1)]
            cond = [f[i]] + ([w[i - 1]] if i else [])
            premises.append(f"{w[i]} _||_ {', '.join(others)} | {', '.join(cond)}")
        edges = [(f[i], w[i]) for i in range(stages)] + [(w[i], w[i + 1]) for i in range(stages - 1)]
        v = f + w
        if n in (5, 7):
            premises.append(f"Y _||_ {', '.join(f + w[:-1])} | {w[-1]}")
            edges.append((w[-1], "Y"))
            v.append("Y")
        if derivable:
            target = rng.choice((
                f"{f[1]} _||_ {f[0]} | {w[0]}",
                f"{w[0]} _||_ {', '.join(f[1:])}",
                f"{v[-1]} _||_ {f[0]} | {w[-2]}",
            ))
        else:
            target = rng.choice((f"{w[1]} _||_ {f[0]}", f"{f[1]} _||_ {f[0]} | {w[1]}", f"{v[-1]} _||_ {w[0]}"))
        regimes = f
    order = list(range(len(premises)))
    rng.shuffle(order)
    return {
        "kind": "derivation",
        "eci": "".join(premises[m] + "\n" for m in order),
        "target": target,
        "regimes": regimes,
        "dag": _cadt("gen", v, edges),
    }


class Symbolic:
    """Projection, enumeration and derivation requests; never touches numpy."""

    name = "symbolic"
    probe, probe_s, probe_every_s = staticmethod(python_probe), PYTHON_PROBE_S, PROBE_EVERY_S
    record_every_seed = False

    def inputs(self, seed: int) -> list[dict]:
        rng = _rng(seed, self.name)
        pool = []
        for number, (kind, *size) in enumerate(SYMBOLIC_SLOTS):
            if kind == "derivation":
                pool.append(_derivation(rng, *size))
            else:
                make = _projection if kind == "projection" else _enumeration
                pool.append(make(rng, random.Random(f"{self.name}-slot:{number}"), *size))
        rng.shuffle(pool)
        return pool

    def setup(self, pool: list[dict]) -> SimpleNamespace:
        mods = _import("dsl", "statements", "graph", "dsep", "augment", "eci")
        # The generating DAGs serve only the derivation checks.
        dags = {i: mods.dsl.parse(item["dag"]).dag for i, item in enumerate(pool) if item["kind"] == "derivation"}
        return SimpleNamespace(pool=pool, tracer=None, dags=dags, **vars(mods))

    def request(self, state, i: int):
        item = state.pool[i]
        kind = item["kind"]
        if kind == "projection":
            doc = state.dsl.parse(item["cadt"])
            itt = state.augment.build_itt_dag(doc.dag, state.augment.InterventionPlan(doc.plan))
            try:
                return itt, state.augment.eliminate_nodes(itt, frozenset(item["drop"]))
            except state.augment.ProjectionError:
                return itt, None
        if kind == "enumeration":
            dag = state.dsl.parse(item["cadt"]).dag
            return dag, state.dsep.implied_statements(dag, dag.node_names)
        premises = state.statements.parse_premise_file(item["eci"])
        target = state.statements.parse_statement(item["target"])
        names = set().union(*(s.variables() for s in premises + [target]))
        regimes = set(item["regimes"])
        universe = state.eci.Universe.of(sorted(names - regimes), sorted(names & regimes))
        ok, trace = state.eci.derivable(premises, target, universe, regimes_as_stochastic=True)
        replayed = trace.replay(universe) if ok else None
        return target, ok, trace, replayed

    def _sample_statements(self, state, rng: random.Random, dag, over: list[str], count: int):
        """Random elementary statements over `over`: stochastic left, one right, any conditioning."""
        stoch = [v for v in over if dag.kind_of(v) == state.graph.STOCHASTIC]
        out = []
        for _ in range(count):
            a = rng.choice(stoch)
            b = rng.choice([v for v in over if v != a])
            rest = [v for v in over if v not in (a, b)]
            cond = [v for v in rest if rng.random() < 0.4]
            out.append(state.statements.EciStatement(frozenset({a}), frozenset({b}), frozenset(cond)))
        return out

    def check(self, state, i: int, answer) -> None:
        item = state.pool[i]
        kind = item["kind"]
        rng = random.Random(i)
        dsep = state.dsep
        if kind == "projection":
            itt, out = answer
            if out is None:
                require("L" in item["drop"], "dropping only the intention nodes was refused")
                return
            retained = sorted(out.node_names)
            for stmt in self._sample_statements(state, rng, itt, retained, 30):
                before = dsep.d_separated(itt, stmt)
                require(before == dsep.d_separated_paths(itt, stmt), f"separation engines disagree on {stmt}")
                require(before == dsep.d_separated(out, stmt), f"projection changes {stmt}")
        elif kind == "enumeration":
            dag, found = answer
            found_set = set(found)
            require(len(found_set) == len(found), "duplicate statements enumerated")
            for stmt in rng.sample(found, min(30, len(found))):
                require(dsep.d_separated_paths(dag, stmt), f"enumerated {stmt} is not separated")
            for stmt in self._sample_statements(state, rng, dag, sorted(dag.node_names), 30):
                canon = stmt if min(stmt.left) < min(stmt.right) else state.statements.EciStatement(
                    stmt.right, stmt.left, stmt.given)
                sep = dsep.d_separated(dag, stmt)
                require(sep == dsep.d_separated_paths(dag, stmt), f"separation engines disagree on {stmt}")
                require(sep == (canon in found_set), f"enumeration and query disagree on {stmt}")
        else:
            target, ok, trace, replayed = answer
            if ok:
                require(replayed == target, "proof trace does not replay to its target")
                require(dsep.d_separated(state.dags[i], target), f"derived {item['target']!r} is not d-separated")

    def digest(self, state, i: int, answer):
        kind = state.pool[i]["kind"]
        if kind == "projection":
            _, out = answer
            if out is None:
                return "refused"
            return state.dsl.canonical_graph_text("p", out)
        if kind == "enumeration":
            _, found = answer
            text = "\n".join(state.statements.format_statement(s) for s in found)
            return [len(found), hashlib.sha256(text.encode()).hexdigest()[:16]]
        _, ok, trace, _ = answer
        return [ok, len(trace.steps) if ok else 0]


WORKLOADS = {w.name: w for w in (CliCorpus(), OracleBuild(), OracleQuery(), Symbolic())}
