"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, NAME_RE, PER_LAYER  # noqa: E402
from tracing import self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(*args: str, env: dict | None = None, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name):
    workload = WORKLOADS[name]
    dump = lambda seed: json.dumps(workload.inputs(seed), sort_keys=True)  # noqa: E731
    assert dump(7) == dump(7)
    assert dump(7) != dump(8)


def test_metric_names_are_well_formed_and_unique():
    names = [m[0] for m in END_TO_END + PER_LAYER]
    assert all(NAME_RE.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)


def test_benchmark_json_lists_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
    ]
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER]


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping) and [8, 12]
    # (clipped to 10); the first child has its own child [2, 3].
    spans = [
        [0, None, 0, "request", 0.0, 10.0, None],
        [1, 0, 0, "a", 1.0, 4.0, None],
        [2, 0, 0, "b", 3.0, 6.0, None],
        [3, 0, 0, "c", 8.0, 12.0, None],
        [4, 1, 0, "d", 2.0, 3.0, None],
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 2, 3 - 1, 3, 4, 1])


def test_symbolic_requests_never_import_numpy():
    code = (
        "import sys; sys.path[:0] = ['bench', 'src']\n"
        "from workloads import WORKLOADS\n"
        "w = WORKLOADS['symbolic']; state = w.setup(w.inputs(1))\n"
        "kinds = {}\n"
        "for i, item in enumerate(state.pool): kinds.setdefault(item['kind'], i)\n"
        "for i in kinds.values(): w.check(state, i, w.request(state, i))\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "symbolic", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# Work counts named by the benchmark's definition; each must repeat exactly
# for one workload seed, whatever the string hash seed.
REPEATING_COUNTS = {
    "symbolic": ("dsep.query_calls", "eci.trace_steps", "augment.refused_ratio"),
    "oracle_build": ("oracle.states_enumerated", "oracle.joint_builds"),
}


@pytest.mark.parametrize("name", sorted(REPEATING_COUNTS))
def test_work_counts_do_not_depend_on_the_hash_seed(name):
    results = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = run_bench("--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", "1", env=env)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1])["metrics"])
    for metric in REPEATING_COUNTS[name]:
        assert results[0][metric]["value"] == results[1][metric]["value"], metric
        assert results[0][metric]["value"] > 0, metric
