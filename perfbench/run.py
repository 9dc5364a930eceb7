"""zfolio benchmark: end-to-end and per-layer metrics for three workloads.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload train-runtime --seed 1 --seconds 30 --trace 0

Workloads, metrics and bounds are listed in BENCHMARK.json and explained in
perfbench/README.md. The program is imported from ./src of the checkout;
without it the benchmark exits with code 2 before measuring anything.

Output: one JSON line with the full report (machine fingerprint, settings,
portfolio choices, digests, named metrics, per-layer self times), then, as
the last line, {"correct", "attempted", "failed", "metrics"}. The report
and, for traced runs, every span are also written to .perfbench_out/.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread, no worker pool; numpy is imported only after this
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ZF_WORKERS", None)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3
SETUP_REFERENCE_LOOPS = 20
CHILD_TIMEOUT_S = 60


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="make the inputs, print when they were ready, and exit")
    return ap.parse_args(argv)


def make_inputs(wl, workload: str, seed: int, workdir: Path):
    """Returns (inputs, seconds spent in zfolio.synthetic.generate_benchmark)."""
    if workload == "features-cnf":
        return wl.make_cnf_inputs(seed, workdir), 0.0
    return wl.make_train_inputs(workload, seed)


def measure_setup(args) -> list[tuple[float, float]]:
    """Process start to inputs ready, in fresh interpreters (import included).

    Returns (seconds, speed scale) per interpreter; the scale comes from the
    reference loop the interpreter runs after its inputs are ready.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
        spawned = time.time()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        child = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((child["ready_wall"] - spawned, child["speed_scale"]))
    return samples


def fingerprint() -> dict:
    import numpy
    import scipy

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(), "cpus_usable": affinity,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "system": platform.system(),
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(round(q / 100 * len(ordered) + 0.5)) - 1))
    return ordered[k]


def run_rounds(wl, args, inputs, tracer, workdir, log, parse_stats):
    """Closed loop of rounds until --seconds is used up.

    Untraced runs: at least one round. Traced runs: pairs of one traced
    and one untraced round, at least one pair; tracing wrappers are
    installed only for the traced round. Returns per-round (traced,
    snapshot) pairs.
    """
    from tracer import install_zfolio_tracing

    def one_round():
        if args.workload == "features-cnf":
            wl.features_round(inputs, tracer, log, parse_stats)
        else:
            wl.train_round(args.workload, inputs, tracer, workdir, log)

    start = time.perf_counter()
    rounds = []
    per_block = 2 if args.trace else 1
    while True:
        block_start = time.perf_counter()
        for i in range(per_block):
            traced = bool(args.trace) and i == 0
            parse_mark = len(parse_stats)
            if traced:
                tracer.reset()
                tracer.paused = False
                install_zfolio_tracing(tracer)
            try:
                one_round()
            finally:
                tracer.uninstall()
                tracer.paused = True
            snapshot = None
            if traced:
                snapshot = {
                    "span_totals": tracer.span_totals(),
                    "counters": {k: (c.calls, c.seconds) for k, c in tracer.counters.items()},
                    "probe_durations": {n: tracer.durations(n) for n in
                                        ("probes.saps", "probes.gsat", "probes.dpll")},
                    "parse": parse_stats[parse_mark:],
                    "doc": tracer.to_doc() if not any(t for t, _ in rounds) else None,
                }
            rounds.append((traced, snapshot))
        block = time.perf_counter() - block_start
        if time.perf_counter() - start + block > args.seconds:
            return rounds


def layer_metrics(wl, snapshot, inputs_generate_s, log, overhead_s) -> dict:
    spans = snapshot["span_totals"]
    counters = snapshot["counters"]

    def span_s(name):
        return spans.get(name, {}).get("seconds", 0.0)

    def span_n(name):
        return spans.get(name, {}).get("calls", 0)

    def count_n(name):
        return counters.get(name, (0, 0.0))[0]

    def count_s(name):
        return counters.get(name, (0, 0.0))[1]

    budget = wl.FEATURE_BUDGET
    steps_per_call = budget.ls_runs * max(1, budget.max_ls_steps // budget.ls_runs)
    gsat_s, saps_s = span_s("probes.gsat"), span_s("probes.saps")
    parse_s = sum(t for t, _ in snapshot["parse"])
    parse_bytes = sum(b for _, b in snapshot["parse"])
    over_budget = sum(
        1 for durations in snapshot["probe_durations"].values()
        for d in durations if d > budget.per_probe_seconds
    )
    q = log.quality
    return {
        "learning.censored_fit_s": span_s("learning.censored_fit"),
        "learning.censored_fit_calls": span_n("learning.censored_fit"),
        "learning.truncated_normal_mean_calls": count_n("learning.truncated_normal_mean"),
        "learning.truncated_normal_mean_s": count_s("learning.truncated_normal_mean"),
        "learning.select_basis_s": span_s("learning.select_basis"),
        "learning.select_basis_calls": span_n("learning.select_basis"),
        "hierarchy.fit_gating_s": span_s("hierarchy.fit_gating"),
        "hierarchy.fit_gating_calls": span_n("hierarchy.fit_gating"),
        "learning.predict_s": count_s("learning.predict"),
        "learning.predict_calls": count_n("learning.predict"),
        "hierarchy.predict_s": count_s("hierarchy.predict"),
        "hierarchy.predict_calls": count_n("hierarchy.predict"),
        "scoring.virtual_total_calls": count_n("scoring.virtual_total"),
        "scoring.virtual_total_s": count_s("scoring.virtual_total"),
        "scoring.score_labels_s": span_s("scoring.score_labels"),
        "portfolio.build_s": span_s("portfolio.build_portfolio"),
        "portfolio.subset_search_s": span_s("portfolio.subset_search"),
        "portfolio.simulators": span_n("portfolio.simulator_init"),
        "portfolio.simulator_init_s": span_s("portfolio.simulator_init"),
        "portfolio.simulate_calls": count_n("portfolio.simulate"),
        "portfolio.choose_backup_s": span_s("portfolio.choose_backup"),
        "portfolio.solve_s": span_s("portfolio.solve"),
        "runtimes.get_calls": count_n("runtimes.get"),
        "runtimes.restrict_s": span_s("runtimes.restrict"),
        "runners.run_calls": count_n("runners.run"),
        "runners.features_calls": count_n("runners.features"),
        "probes.saps_s": saps_s,
        "probes.gsat_s": gsat_s,
        "probes.dpll_s": span_s("probes.dpll"),
        # computed from the step budget: an upper bound when a run stops early
        "probes.saps_steps_per_s": span_n("probes.saps") * steps_per_call / saps_s if saps_s else 0.0,
        "probes.gsat_steps_per_s": span_n("probes.gsat") * steps_per_call / gsat_s if gsat_s else 0.0,
        "probes.over_budget_calls": over_budget,
        "features.static_s": span_s("features.static"),
        "features.extract_s": span_s("features.extract_all"),
        "cnf.parse_s": parse_s,
        "cnf.mb_per_s": parse_bytes / 1e6 / parse_s if parse_s else 0.0,
        "synthetic.generate_s": inputs_generate_s,
        "trace.overhead_s": overhead_s,
        "evaluation.test_pct_solved": q.get("pct_solved", 0.0),
        "evaluation.test_avg_runtime_s": q.get("avg_runtime_s", 0.0),
        "evaluation.test_score": q.get("score", 0.0),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zfolio" / "__init__.py").is_file():
        print(f"zfolio sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads as wl
    from tracer import Tracer

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = WORK_ROOT / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            make_inputs(wl, args.workload, args.seed, workdir)
            ready = time.time()
            loops = [wl.reference_work() for _ in range(SETUP_REFERENCE_LOOPS)]
            scale = wl.REFERENCE_NOMINAL_S / statistics.fmean(loops)
            print(json.dumps({"ready_wall": ready, "speed_scale": scale}))
            return 0
        return measure(wl, Tracer, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def measure(wl, Tracer, args, workdir: Path) -> int:
    setup_samples = measure_setup(args)
    inputs, generate_s = make_inputs(wl, args.workload, args.seed, workdir)

    log = wl.RunLog()
    tracer = Tracer(paused=True)
    parse_stats = []
    rounds = run_rounds(wl, args, inputs, tracer, workdir, log, parse_stats)

    traced_flags = [t for t, _ in rounds]

    def untraced(values):
        return [v for v, t in zip(values, traced_flags) if not t]

    batch_untraced = untraced(log.batch_seconds)
    batch_traced = [b for b, t in zip(log.batch_seconds, traced_flags) if t]
    units = declared_units(args.trace)
    online = log.online_seconds
    correct = log.failed == 0 and log.deterministic and bool(online)
    is_train = args.workload != "features-cnf"

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "why": wl.WORKLOADS[args.workload],
        "fingerprint": fingerprint(), "settings": wl.describe_settings(args.workload),
        "closed_loop": "one caller, one thread, next call after the previous returned",
        "rounds": len(rounds), "traced_rounds": sum(traced_flags),
        "batch_seconds_per_round": log.batch_seconds,
        "batch_unit_seconds_per_round": log.batch_unit_seconds,
        "online_unit_seconds_per_round": log.online_unit_seconds,
        "setup_samples_s_and_scale": setup_samples,
        "speed_scale_per_round": log.speed_scale,
        "unscaled": {
            "setup_s": statistics.median(t for t, _ in setup_samples),
            "batch_unit_s": statistics.median(untraced(log.batch_unit_seconds) or [0.0]),
            "online_unit_ms": statistics.median(untraced(log.online_unit_seconds) or [0.0]) * 1e3,
        },
        "attempted": log.attempted, "failed": log.failed,
        "failed_pct": 100.0 * log.failed / log.attempted if log.attempted else 0.0,
        "errors": log.errors, "deterministic_across_rounds": log.deterministic,
        "outputs": log.round_records[0] if log.round_records else None,
        "online_samples": len(online),
    }
    if online:
        if is_train:
            p99 = percentile(online, 99)
            report["named"] = {
                "train_s": statistics.median(batch_untraced),
                "solve_p50_us": log.online_p50_seconds * 1e6,
                "solve_p99_us": p99 * 1e6,
                "solve_samples_beyond_p99": sum(1 for x in online if x > p99),
                "test_pct_solved": log.quality.get("pct_solved"),
                "test_avg_runtime_s": log.quality.get("avg_runtime_s"),
                "test_score": log.quality.get("score"),
            }
        else:
            report["named"] = {
                "features_per_s": len(inputs) / statistics.median(batch_untraced),
                "feature_p50_ms": log.online_p50_seconds * 1e3,
            }

    if args.trace:
        snapshots = [s for t, s in rounds if t]
        overhead = statistics.median(batch_traced) - statistics.median(batch_untraced)
        per_round = [layer_metrics(wl, s, generate_s, log, overhead) for s in snapshots]
        metrics = {}
        for name in per_round[0]:
            values = [m[name] for m in per_round]
            metrics[name] = values[0] if units[name] == "count" else statistics.median(values)
        # denominator of portfolio.simulators: 288 per build with 3 candidates per kind
        report["schedules_enumerated"] = snapshots[0]["counters"].get(
            "portfolio.schedules_enumerated", (0, 0.0))[0]
        report["trace_counts_repeat"] = all(
            m[k] == per_round[0][k] for m in per_round for k in m if units[k] == "count")
        report["self_seconds"] = {
            name: row["self_seconds"] for name, row in sorted(snapshots[0]["span_totals"].items())
        }
        trace_doc = next(s["doc"] for s in snapshots if s["doc"] is not None)
    else:
        # times at a fixed machine speed (see workloads.REFERENCE_NOMINAL_S);
        # 0.0 only when nothing completed, and such a run is not correct
        batch_scaled = untraced([v * k for v, k in zip(log.batch_unit_seconds, log.speed_scale)])
        online_scaled = untraced([v * k for v, k in zip(log.online_unit_seconds, log.speed_scale)])
        metrics = {
            "setup_s": statistics.median(t * k for t, k in setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "batch_unit_s": statistics.median(batch_scaled or [0.0]),
            "online_unit_ms": statistics.median(online_scaled or [0.0]) * 1e3,
        }
        trace_doc = None
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report["metrics"] = metrics
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    if trace_doc is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(trace_doc))

    print(json.dumps(report, default=str))
    result = {
        "correct": bool(correct),
        "attempted": int(log.attempted),
        "failed": int(log.failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
