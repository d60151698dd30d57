"""Tests of the benchmark itself: negative controls, the reference kernel's
independence from the package, repeatable trace counts and the metric
names in BENCHMARK.json.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import ast
import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

CROSS7_TRIPLE_365 = ("xi3*xi6*pi5", "xi5*xi6*pi3", "xi3*xi5*pi6")


def _run_ops(wl, ops, seed=0):
    wl.ops = ops
    tally = run.Tally()
    run.run_pass(wl, random.Random(seed), tally)
    return tally


def _op(wl, instance, arg):
    (op,) = [op for op in wl.ops if op.instance == instance and op.arg == arg]
    return op


def test_op_lists_and_left_out_ops():
    sizes = {}
    for name in workloads.WORKLOADS:
        _, wl = workloads.setup(ROOT, name)
        sizes[name] = len(wl.ops)
        keys = {(name, op.instance, op.arg) for op in wl.ops}
        assert not keys & workloads.LEFT_OUT
    assert sizes == {"check": 48, "differential": 49, "lift": 49}


def test_dropped_cross7_triple_fails_the_check_op(tmp_path):
    with open(os.path.join(ROOT, "src", "superpoisson", "data",
                           "cross7.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    terms = doc["potential"].replace(" - ", " + -").split(" + ")
    kept = [t for t in terms if t.lstrip("-") not in CROSS7_TRIPLE_365]
    assert len(kept) == len(terms) - 3
    doc["potential"] = " + ".join(kept).replace("+ -", "- ")
    bad = tmp_path / "cross7.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")

    _, wl = workloads.setup(ROOT, "check")
    good = _op(wl, "cross7", 0)
    assert _run_ops(wl, [good]).failed == 0
    tally = _run_ops(wl, [workloads.Op("cross7", str(bad), 0)])
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)


def test_lift_compared_at_the_wrong_k_fails_the_lift_op():
    class WrongK(workloads.LiftWorkload):
        def call(self, inputs):
            low, k, want = inputs
            return super().call((low, k + 1, want))

    pkg, wl = workloads.setup(ROOT, "lift")
    op = _op(wl, "cross3", 2)
    assert _run_ops(wl, [op]).failed == 0
    tally = _run_ops(WrongK(pkg, {}), [op])
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)


def test_reference_kernel_imports_nothing_from_the_package():
    with open(os.path.join(HERE, "refkernel.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    assert imported <= sys.stdlib_module_names
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, %r); import refkernel; "
         "refkernel.run(); print(sorted(m for m in sys.modules "
         "if m.startswith('superpoisson')))" % HERE],
        stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


TRACE_SCRIPT = """
import json, random, sys
sys.path[:0] = [%(here)r, %(src)r]
import run, tracer, workloads
picks = {"check": [("cross3", 0), ("rflux", 1)],
         "differential": [("cross3", 1), ("rflux", 1)],
         "lift": [("quasi_poisson", 2), ("rflux", 3)]}
out = {}
for name, wanted in sorted(picks.items()):
    pkg, wl = workloads.setup(%(root)r, name)
    wl.ops = [op for op in wl.ops if (op.instance, op.arg) in wanted]
    trace = tracer.Tracer(pkg)
    trace.install()
    try:
        records = run.run_pass(wl, random.Random(7), run.Tally(), trace)
    finally:
        trace.uninstall()
    totals = run.pass_totals(records)
    out[name] = {layer: {f: v for f, v in row.items() if f != "self_ms"}
                 for layer, row in totals.items()}
print(json.dumps(out, sort_keys=True))
"""


def _traced_counts(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    script = TRACE_SCRIPT % {"here": HERE, "src": os.path.join(ROOT, "src"),
                             "root": ROOT}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=300)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_two_traced_runs_report_identical_counts_and_ratios():
    first = _traced_counts(1)
    second = _traced_counts(2)
    assert first == second
    assert first["differential"]["courant.pre_bracket"]["calls"] > 0
    assert first["lift"]["lifts.lift_component"]["kept_ratio"] > 0
    assert first["check"]["cli.main"]["calls"] == 2


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == run.per_layer_names()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lift", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
