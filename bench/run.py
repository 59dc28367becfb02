"""dtcausal benchmark: four seeded closed-loop workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, both modes

Workloads: cli_corpus, oracle_build, oracle_query, symbolic (see
workloads.py).  One client sends each request after the previous one
completes; everything runs in this single-threaded process, except that
cli_corpus requests are child processes.  Every answer is checked; for
the default seed, answers are also compared with the expected-answers
record in bench/expected/.

--trace 0 measures the end-to-end metrics over S seconds of requests,
cycling the pool.  A fixed probe runs between requests (see workloads.py);
a request's latency is the median, over its repetitions, of its time
divided by that of the probes on either side, in units of the probe's
reference time.
--trace 1 runs whole passes over the request pool untraced for S/2
seconds, then one pass in which each request runs untraced and then with
spans recorded around dtcausal's public functions, and reports the
per-layer metrics from the traced requests.  Spans and the full result,
with the environment, are written to .bench_out/.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics ({name: {value, unit}}).
"""

import time

T0 = time.perf_counter()  # set-up time runs from here to the first timed request

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from importlib import metadata  # noqa: E402

# One thread per process: numpy's BLAS would otherwise start a thread per
# core in every process that imports it, and on a 2-core host that measures
# the scheduler rather than the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracing import OUT_DIR, Tracer, layer_metrics  # noqa: E402
from workloads import PROCESS_PROBE_S, WORKLOADS, CheckFailed, process_probe, same_answer  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 4  # extra set-ups in fresh processes; setup_s is the median with this run's own
EXPECTED_DIR = os.path.join(HERE, "expected")
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def expected_answers(workload, seed: int) -> dict:
    path = os.path.join(EXPECTED_DIR, workload.name + ".json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        record = json.load(fh)
    if seed != record["seed"] and not workload.record_every_seed:
        return {}
    return record["answers"]


def answer_key(workload, state, i: int) -> str:
    return state.pool[i] if workload.record_every_seed else str(i)


class Loop:
    """Closed loop over the request pool: each request starts when the last one ends."""

    def __init__(self, workload, state, expected: dict, record: bool = False):
        self.workload, self.state, self.expected, self.record = workload, state, expected, record
        self.probe = False  # time the workload's probe after requests, every workload.probe_every_s
        self.next_probe = 0.0
        # (pool index, seconds, failure, traced, probe seconds or None)
        self.done: list[tuple[int, float, str | None, bool, float | None]] = []
        self.digests: dict[str, object] = {}

    def one(self, i: int, tracer: Tracer | None = None) -> float:
        w, state = self.workload, self.state
        failure = None
        with tracer.request(i) if tracer else nullcontext():
            t = time.perf_counter()
            try:
                answer = w.request(state, i)
            except Exception as exc:  # a crash is a failed request, not the end of the run
                failure = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t
        if failure is None:
            try:
                w.check(state, i, answer)
                key = answer_key(w, state, i)
                if self.record or key in self.expected:
                    digest = json.loads(json.dumps(w.digest(state, i, answer)))
                    self.digests[key] = digest
                    if key in self.expected and not same_answer(digest, self.expected[key]):
                        raise CheckFailed(f"answer {digest!r} differs from the record {self.expected[key]!r}")
            except CheckFailed as exc:
                failure = str(exc)
        if failure is not None:
            print(f"request {i} failed: {failure}", file=sys.stderr)
        probe_dt = None
        if self.probe and time.perf_counter() >= self.next_probe:
            probe_dt = self.run_probe()
        self.done.append((i, dt, failure, tracer is not None, probe_dt))
        return dt

    def run_probe(self) -> float:
        t = time.perf_counter()
        self.workload.probe()
        end = time.perf_counter()
        self.next_probe = end + self.workload.probe_every_s
        return end - t

    def for_seconds(self, seconds: float, whole_passes: bool = False) -> None:
        """Requests for `seconds` of wall time, cycling the pool; with
        `whole_passes`, only stop at the end of a pass, after at least one."""
        n, k, end = len(self.state.pool), 0, time.perf_counter() + seconds
        while time.perf_counter() < end or (whole_passes and k % n):
            self.one(k % n)
            k += 1
        if self.probe and self.done[-1][4] is None:  # every request has a probe after it
            i, dt, failure, traced, _ = self.done[-1]
            self.done[-1] = (i, dt, failure, traced, self.run_probe())

    def one_pass(self) -> None:
        for i in range(len(self.state.pool)):
            self.one(i)

    def summary(self, part: slice = slice(None)) -> tuple[int, int, float]:
        done = self.done[part]
        failed = sum(1 for _, _, f, *_ in done if f is not None)
        return len(done), failed, sum(dt for _, dt, *_ in done)


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


def probe_seconds() -> float:
    t = time.perf_counter()
    process_probe()
    return time.perf_counter() - t


def setup_seconds(workload: str, seed: int, own: float, own_probe: float) -> float:
    """Median set-up time over this run's own and SETUP_REPEATS fresh
    processes, each divided by a process probe timed next to it, in probe
    reference times (set-up is mostly import, as in the process probe)."""
    ratios = [own / own_probe]
    for _ in range(SETUP_REPEATS):
        proc = run_child(["--workload", workload, "--seed", str(seed), "--setup-only"])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        ratios.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"] / probe_seconds())
    return statistics.median(ratios) * PROCESS_PROBE_S


def peak_rss_mb(children: bool) -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024.0  # kilobytes on Linux


def end_to_end(loop: Loop, workload, seed: int, setup_s: float, setup_probe: float) -> dict:
    """Latency and throughput from probe-relative request times.

    Each repetition's time is divided by the mean time of the last probe
    before it and the first probe after it.  A distinct request's latency
    is the median of these ratios over its repetitions, in units of the
    probe's reference time; the percentiles are over distinct requests, and
    req_per_s counts each distinct request once.  On the shared 2-core host
    this was made on, a request's raw time moved by up to 40% from one
    process to the next while its probe-relative time moved by 4%.  Peak
    memory is read before the set-up processes run, so on cli_corpus it is
    the largest request or probe process."""
    attempted, failed, _ = loop.summary()
    probes_after, probe = [], None
    for row in reversed(loop.done):
        probe = row[4] or probe
        probes_after.append(probe)
    probes_after.reverse()
    ratios: dict[int, list[float]] = {}
    bad: set[int] = set()
    before = probes_after[0]
    for (i, dt, failure, _, probe_dt), after in zip(loop.done, probes_after):
        ratios.setdefault(i, []).append(dt / ((before + after) / 2))
        before = probe_dt or before
        if failure is not None:
            bad.add(i)
    lat = [statistics.median(r) * workload.probe_s for r in ratios.values()]
    lat_ms = sorted(1000.0 * dt for dt in lat)
    return {
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) > 1 else lat_ms[0],
        "req_per_s": (len(lat) - len(bad)) / sum(lat),
        "correct_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb(children=workload.name == "cli_corpus"),
        "setup_s": setup_seconds(workload.name, seed, setup_s, setup_probe),
    }


def median_ms(cmd: list[str], env: dict, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, check=True, timeout=120)
        times.append(1000.0 * (time.perf_counter() - t))
    return statistics.median(times)


def import_times_ms(env: dict, repeats: int = 5) -> tuple[float, float]:
    """Median cumulative import time of dtcausal.cli and of numpy, from -X importtime."""
    cli, numpy = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import dtcausal.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1000.0
        cli.append(cumulative["dtcausal.cli"])
        numpy.append(cumulative.get("numpy", 0.0))
    return statistics.median(cli), statistics.median(numpy)


def cli_metrics(loop: Loop, workload) -> dict:
    env = workload.env()
    import_ms, numpy_ms = import_times_ms(env)
    m = {
        "cli.interp_start_ms": median_ms([sys.executable, "-c", "pass"], env),
        "cli.import_ms": import_ms,
        "cli.import_numpy_ms": numpy_ms,
    }
    per_cmd: dict[str, list[float]] = {}
    for i, dt, _, with_spans, _ in loop.done:
        if not with_spans:
            per_cmd.setdefault(loop.state.pool[i], []).append(1000.0 * dt)
    for cmd, times in per_cmd.items():
        m[f"cli.{cmd}.p50_ms"] = statistics.median(times)
    return m


def traced(loop: Loop, workload, seconds: float, tracer: Tracer) -> dict:
    """Untraced whole passes for `seconds`/2, then one pass in which each
    request runs untraced and at once again traced, so the two times it
    takes see the same machine and their difference is the tracing overhead."""
    loop.for_seconds(seconds / 2, whole_passes=True)
    state = loop.state
    for model, assignment in getattr(state, "warm_joints", ()):
        tracer.mark_built(model, assignment)
    plain = with_spans = 0.0
    for i in range(len(state.pool)):
        plain += loop.one(i)
        state.tracer = tracer
        tracer.install()
        try:
            with_spans += loop.one(i, tracer)
        finally:
            tracer.uninstall()
            state.tracer = None
    m = {name: 0.0 for name, *_ in PER_LAYER}
    m.update(layer_metrics(tracer))
    if workload.name == "cli_corpus":
        m.update(cli_metrics(loop, workload))
    m["trace.overhead_pct"] = 100.0 * (1.0 - plain / with_spans)
    return m


def environment(workload: str, seed: int, requests: int, pool: int) -> dict:
    sha, dirty = "unknown", None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        git = ["git", "-C", ROOT]
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True).stdout
        dirty = bool(status.strip())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "requests": requests,
        "pool_size": pool,
    }


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    pool = workload.inputs(args.seed)
    state = workload.setup(pool)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    expected = {} if args.write_expected else expected_answers(workload, args.seed)
    loop = Loop(workload, state, expected, record=args.write_expected)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.write_expected:
        loop.one_pass()
        os.makedirs(EXPECTED_DIR, exist_ok=True)
        with open(os.path.join(EXPECTED_DIR, workload.name + ".json"), "w") as fh:
            json.dump({"seed": args.seed, "answers": loop.digests}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    elif args.trace:
        tracer = Tracer()
        metrics = traced(loop, workload, args.seconds, tracer)
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.json.gz"))
    else:
        setup_probe = probe_seconds()
        loop.probe = True
        loop.for_seconds(args.seconds)
        metrics = end_to_end(loop, workload, args.seed, setup_s, setup_probe)
    attempted, failed, _ = loop.summary()
    if args.write_expected:
        print(f"wrote the expected answers of {attempted} requests ({failed} failed)")
        return 1 if failed else 0
    env = environment(workload.name, args.seed, attempted, len(state.pool))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"environment": env, **result, "counts": tracer.counts if args.trace else {},
                   "requests": {"fields": ["index", "seconds", "failure", "traced", "probe_seconds"],
                                "rows": loop.done}}, fh)
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {UNITS[name]}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, end to end and traced."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = run_child(["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(trace)])
            sys.stdout.write(f"== {name} trace={trace}\n" + proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-expected", action="store_true",
                        help="run one pass and write its answers as the expected-answers record")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "dtcausal", "__init__.py")):
        print(f"error: no dtcausal sources under {ROOT}/src", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
