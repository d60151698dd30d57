"""Reference-speed benchmark of superpoisson: one command, three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload differential --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload lift --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --steadiness 10 --seconds 20

A run sets the package up several times, then makes whole passes over the
workload's ops in shuffled order until ``--seconds`` have gone by (at least
three passes).  Every timed interval is scaled to reference speed by the
reference kernel's runs just before, during and just after it (see
``refkernel.measure``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line
before it holds the raw (unscaled) figures, and a readable table goes to
standard error.  ``--trace 1`` prints the per-layer metrics instead of the
end-to-end ones and writes per-op records under ``perfbench/results/``.
``--steadiness N`` runs each workload N times in child processes and
prints each end-to-end metric's median and quartiles.
"""

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import refkernel
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

SETUP_REPEATS = 9
MIN_PASSES = 3
TAIL_BEYOND = 10

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# (layer, fields printed by a traced run); see README.md for what each
# field should move.
PER_LAYER = (
    ("superpoly.mul", ("calls", "self_ms", "terms_max")),
    ("superpoly.add", ("calls", "self_ms")),
    ("superpoly.left_partial", ("calls", "self_ms")),
    ("superpoly.parse_expr", ("self_ms",)),
    ("superpoly.substitute", ("self_ms",)),
    ("poisson.bracket", ("calls", "self_ms", "distinct_ratio")),
    ("courant.pre_bracket", ("calls", "distinct_ratio")),
    ("courant.anchor_apply", ("calls",)),
    ("courant.classify", ("calls", "self_ms")),
    ("complexes.classical_naive_differential", ("self_ms",)),
    ("complexes.naive_membership", ("self_ms",)),
    ("lifts.complete_lift", ("self_ms",)),
    ("lifts.lift_component", ("kept_ratio",)),
    ("dirac.tangency_residual", ("self_ms",)),
    ("linalg.nullspace", ("self_ms",)),
    ("sampling.random_section", ("self_ms",)),
    ("gallery.check_instance", ("self_ms",)),
    ("gallery.instance_from_json", ("self_ms",)),
    ("charts.chart_from_json", ("self_ms",)),
    ("charts.validate_chart", ("self_ms",)),
    ("cli.identity_sweep", ("self_ms",)),
    ("cli.main", ("self_ms",)),
)
FIELD_UNITS = {"calls": "count", "self_ms": "ms", "terms_max": "count",
               "distinct_ratio": "ratio", "kept_ratio": "ratio"}
OVERHEAD = ("trace.overhead_pct", "%")


def per_layer_names():
    return [("%s.%s" % (layer, field), FIELD_UNITS[field])
            for layer, fields in PER_LAYER for field in fields] + [OVERHEAD]


class Tally:
    """Per-op times of a set of passes, raw and at reference speed."""

    def __init__(self):
        self.ref = {}
        self.raw = {}
        self.kernels = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def summary(self, times):
        meds = sorted(statistics.median(v) for v in times.values())
        n = len(meds)
        return {"ops_per_s": n / sum(meds),
                "op_p50_ms": statistics.median(meds) * 1e3,
                "op_tail_ms": meds[n - 1 - TAIL_BEYOND] * 1e3}


def run_pass(wl, rng, tally, trace=None):
    """One pass over the workload's ops in shuffled order; returns the
    traced per-op layer records, if any."""
    order = list(wl.ops)
    rng.shuffle(order)
    records = []
    on_probe = trace.exclude if trace is not None else None
    for op in order:
        inputs = wl.prepare(op, rng)
        gc.collect()
        if trace is not None:
            trace.begin_op()
        tally.attempted += 1
        try:
            out, elapsed, scale, speeds = refkernel.measure(
                wl.call, inputs, on_probe=on_probe)
        except Exception:
            traceback.print_exc()
            tally.failed += 1
            continue
        finally:
            stats = trace.end_op() if trace is not None else None
        tally.kernels.extend(speeds)
        try:
            ok = wl.check(inputs, out)
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            print("wrong output: %s %s" % (wl.name, op.key), file=sys.stderr)
            tally.failed += 1
            tally.wrong += 1
        tally.ref.setdefault(op.key, []).append(elapsed * scale)
        tally.raw.setdefault(op.key, []).append(elapsed)
        if stats is not None:
            records.append((op.key, scale, stats))
    return records


def timed_setup(workload):
    """Set the workload up SETUP_REPEATS times; returns the last set-up
    and the median set-up time, at reference speed and raw."""
    ref, raw = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        (pkg, wl), elapsed, scale, _ = refkernel.measure(
            workloads.setup, ROOT, workload)
        ref.append(elapsed * scale)
        raw.append(elapsed)
    return pkg, wl, statistics.median(ref), statistics.median(raw)


def pass_totals(records):
    """Per-layer totals of one traced pass; self times at reference
    speed."""
    out = {}
    for layer, _, _ in tracer.LAYERS:
        calls = self_ms = terms_max = distinct = t_in = t_out = 0
        for _, scale, stats in records:
            st = stats[layer]
            calls += st.calls
            self_ms += st.self_s * scale * 1e3
            terms_max = max(terms_max, st.terms_max)
            distinct += len(st.keys)
            t_in += st.terms_in
            t_out += st.terms_out
        out[layer] = {
            "calls": calls, "self_ms": self_ms, "terms_max": terms_max,
            "distinct_ratio": distinct / calls if calls else 0.0,
            "kept_ratio": t_out / t_in if t_in else 0.0,
        }
    return out


def layer_metrics(traced_passes, overhead_pct):
    """Counts and ratios from the first traced pass, which the seed fixes;
    self times as the median over traced passes."""
    first = traced_passes[0]
    metrics = {}
    for layer, fields in PER_LAYER:
        for field in fields:
            if field == "self_ms":
                value = statistics.median(p[layer]["self_ms"]
                                          for p in traced_passes)
            else:
                value = first[layer][field]
            metrics["%s.%s" % (layer, field)] = {"value": value,
                                                 "unit": FIELD_UNITS[field]}
    metrics[OVERHEAD[0]] = {"value": overhead_pct, "unit": OVERHEAD[1]}
    return metrics


def write_trace_file(workload, seed, traced_passes, first_records):
    os.makedirs(RESULTS, exist_ok=True)
    ops = []
    for key, scale, stats in first_records:
        layers = {layer: {"calls": st.calls, "self_ms": st.self_s * scale * 1e3,
                          "terms_max": st.terms_max, "distinct": len(st.keys),
                          "terms_in": st.terms_in, "terms_out": st.terms_out}
                  for layer, st in stats.items() if st.calls}
        ops.append({"op": key, "scale": scale, "layers": layers})
    path = os.path.join(RESULTS, "trace-%s-seed%d.json" % (workload, seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "passes": traced_passes, "first_pass_ops": ops},
                  fh, indent=1, sort_keys=True)
    return path


def measure(args):
    pkg, wl, setup_ref, setup_raw = timed_setup(args.workload)
    rng = random.Random(args.seed)
    plain = Tally()
    traced = Tally()
    traced_passes = []
    first_records = None
    start = time.perf_counter()
    passes = 0
    while True:
        run_pass(wl, rng, plain)
        passes += 1
        if passes <= MIN_PASSES:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            trace = tracer.Tracer(pkg)
            trace.install()
            try:
                records = run_pass(wl, rng, traced, trace)
            finally:
                trace.uninstall()
            traced_passes.append(pass_totals(records))
            if first_records is None:
                first_records = records
        done = time.perf_counter() - start >= args.seconds
        if done and (args.trace or passes >= MIN_PASSES):
            break

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    correct = plain.wrong + traced.wrong == 0
    ref = plain.summary(plain.ref)
    raw = plain.summary(plain.raw)
    ref["setup_s"] = setup_ref
    raw["setup_s"] = setup_raw
    ref["peak_rss_mb"] = raw["peak_rss_mb"] = rss
    kernels = sorted(plain.kernels)
    drift = {"kernel_ms_min": kernels[0] * 1e3,
             "kernel_ms_median": statistics.median(kernels) * 1e3,
             "kernel_ms_max": kernels[-1] * 1e3}

    report = ["workload %s, seed %d: %d passes and %d traced, %d ops a pass,"
              " %d attempted, %d failed"
              % (args.workload, args.seed, passes, len(traced_passes),
                 len(wl.ops), attempted, failed),
              "reference kernel %.2f / %.2f / %.2f ms (min / median / max);"
              " nominal %.2f ms" % (drift["kernel_ms_min"],
                                    drift["kernel_ms_median"],
                                    drift["kernel_ms_max"],
                                    refkernel.NOMINAL_S * 1e3)]
    for name, unit in END_TO_END:
        report.append("  %-12s %12.4f %-4s  (raw %.4f)"
                      % (name, ref[name], unit, raw[name]))
    if args.trace:
        overhead = (ref["ops_per_s"] / traced.summary(traced.ref)["ops_per_s"]
                    - 1) * 100
        metrics = layer_metrics(traced_passes, overhead)
        path = write_trace_file(args.workload, args.seed, traced_passes,
                                first_records)
        report.append("tracing overhead %.1f%% of untraced ops_per_s; "
                      "%d traced passes; per-op records in %s"
                      % (overhead, len(traced_passes),
                         os.path.relpath(path, ROOT)))
        for name, unit in per_layer_names():
            report.append("  %-45s %14.4f %s"
                          % (name, metrics[name]["value"], unit))
    else:
        metrics = {name: {"value": ref[name], "unit": unit}
                   for name, unit in END_TO_END}
    print("\n".join(report), file=sys.stderr)
    print("raw: " + json.dumps(dict(raw, **drift), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def steadiness(args):
    """Run each workload N times in child processes, one at a time, and
    print each end-to-end metric's median, quartiles and spread (the
    interquartile distance as a share of the median), raw beside it."""
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    summary = {}
    for name in names:
        runs = []
        for i in range(args.steadiness):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed + i),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  timeout=600, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            raw = json.loads(lines[-2][len("raw: "):])
            runs.append({"seed": args.seed + i, "result": result, "raw": raw})
            print("%s seed %d: %s" % (name, args.seed + i, " ".join(
                "%s=%.4f" % (m, result["metrics"][m]["value"])
                for m, _ in END_TO_END)), file=sys.stderr)
        rows = {}
        for metric, unit in END_TO_END:
            rows[metric] = {
                "unit": unit,
                "reference": quartiles([r["result"]["metrics"][metric]["value"]
                                        for r in runs]),
                "raw": quartiles([r["raw"][metric] for r in runs]),
            }
        shares = sorted({r["result"]["failed"] / r["result"]["attempted"]
                         for r in runs})
        summary[name] = {"metrics": rows, "failed_shares": shares,
                         "runs": runs}
        print("%s (%d runs, failed shares %s)" % (name, len(runs), shares))
        for metric, row in rows.items():
            ref, raw = row["reference"], row["raw"]
            print("  %-12s median %10.4f q1 %10.4f q3 %10.4f spread %5.1f%%"
                  "   raw median %10.4f spread %5.1f%%"
                  % (metric, ref["median"], ref["q1"], ref["q3"],
                     ref["spread"] * 100, raw["median"], raw["spread"] * 100))
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "steadiness.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seconds": args.seconds, "summary": summary}, fh,
                  indent=1, sort_keys=True)
    print("written to %s" % os.path.relpath(path, ROOT))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="run each workload N times and print quartiles")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "superpoisson",
                                       "__init__.py")):
        print("error: no superpoisson sources under %s" % ROOT,
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.steadiness:
        return steadiness(args)
    if args.workload is None:
        parser.error("--workload is required unless --steadiness is given")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
