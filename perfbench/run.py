"""glmavg benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload prostate_cv --seed 0 --seconds 12 --trace 0

Run it from the root of a checkout; glmavg is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics of one untraced pass
over the workload's plan; with ``--trace 1`` the per-layer metrics of two
traced passes, run between two untraced passes of the same plan so that
the tracing overhead shows.  The result line carries the metrics that
``BENCHMARK.json`` lists, with its units.  Readable lines come first;
the last line of standard output is the JSON result.  Exit status: 0
when every output check passed, 1 when one failed, 2 when the sources
or arguments are unusable.
"""

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported, here
# and, through the inherited environment, in every child process: the
# study workload's two harness workers must not each start a BLAS pool
# on a 2-core machine.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
N_PROBES = 5  # fresh processes whose median time-to-ready is setup_s
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_sha": git_sha(),
    }


def probe(name, seed, seconds, workdir, env) -> tuple[float, float]:
    """(time to ready, time to the end of ``import glmavg``) of one fresh interpreter."""
    workdir.mkdir()
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), name, str(seed), repr(seconds), str(workdir)]
    started_wall = time.time()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        _, stderr = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("set-up probe timed out") from None
    if proc.returncode != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up probe failed: {stderr.strip()[-500:]}")
    return ready, float(line.split()[1]) - started_wall


def show(name, value, unit, note=""):
    print(f"  {name:<32} {value:>14.6g} {unit:<6} {note}".rstrip())


def end_to_end(wl, out, setup_s, probes) -> dict:
    from tracer import median, tail_percentile

    rss_kb = out.child_peak_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kernel_ms = median(out.kernel_ms)
    metrics = {
        "setup_s": setup_s,
        "op_p50_kernels": median(out.op_ms) / kernel_ms,
        "ops_per_s": out.done / out.wall_s if out.wall_s > 0 else 0.0,
        "op_ms_p50": median(out.op_ms),
        "peak_rss_mb": rss_kb * 1024 / 1e6,
    }
    show("setup_s", setup_s, "s", f"median of {probes} fresh processes")
    show("op_p50_kernels", metrics["op_p50_kernels"], "kernel",
         f"op_ms_p50 / reference kernel {kernel_ms:.4g} ms (median of {len(out.kernel_ms)})")
    show("ops_per_s", metrics["ops_per_s"], "ops/s", f"{out.done} ops in {out.wall_s:.3f} s")
    show("op_ms_p50", metrics["op_ms_p50"], "ms", f"n={len(out.op_ms)}")
    tail = tail_percentile(out.op_ms)
    if tail is None:
        print(f"  {'op_ms_tail':<32} {'n/a':>14} {'ms':<6} n={len(out.op_ms)}: fewer than 10 ops beyond p50")
    else:
        show("op_ms_tail", tail[1], "ms", f"p{tail[0]:g}, n={tail[2]}, at least 10 ops beyond")
    show("failed_frac", out.failed / out.attempted, "ratio", f"{out.failed}/{out.attempted}")
    if wl.name == "prostate_cv":
        show("uncertified_frac", out.uncertified / max(out.done, 1), "ratio",
             f"{out.uncertified}/{out.done} solves with KKT residual above the certificate")
    show("peak_rss_mb", metrics["peak_rss_mb"], "MB")
    return metrics


def traced_passes(wl, inputs):
    """Untraced, traced, traced and untraced passes of the same plan (ABBA, so drift cancels)."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced = [], []
    for trace in (False, True, True, False):
        if not trace:
            plain.append(wl.run(inputs))
            continue
        if wl.in_process:
            tracer.install()
        try:
            traced.append(wl.run(inputs, tracer))
        finally:
            tracer.uninstall()
    return plain, traced, tracer


def per_layer(wl, seed, plain, traced, tracer, import_s, env_info, units) -> tuple[dict, list]:
    from tracer import flagged_solve_keys, layer_metrics, self_times
    from workloads import ROADMAP_FALLBACKS

    traced_s = sum(t.wall_s for t in traced)
    metrics = layer_metrics(tracer.spans, traced_s, sum(t.attempted for t in traced))
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_frac"] = traced_s / sum(p.wall_s for p in plain) - 1.0
    for name, value in metrics.items():
        show(name, value, units[name])

    problems = []
    keys = flagged_solve_keys(tracer.spans)
    if wl.name == "prostate_cv":
        print(f"  capped or uncertified solves (split, row): {keys}")
        if seed == 0:
            problems += [f"solve {k} flagged but not a known fallback instance" for k in keys
                         if k not in ROADMAP_FALLBACKS]

    own = self_times(tracer.spans)
    calls: dict = {}
    for s in tracer.spans:
        entry = calls.setdefault(f"{s.layer}/{s.name}", {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["total_ms"] += 1e3 * s.duration
        entry["self_ms"] += 1e3 * own[s.sid]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    report = {
        "workload": wl.name, "seed": seed, "env": env_info, "ops_per_pass": traced[0].attempted,
        "wall_s": {"untraced": [p.wall_s for p in plain], "traced": [t.wall_s for t in traced]},
        "metrics": metrics, "calls": calls, "flagged_solves": keys,
    }
    path = out_dir / f"trace-{wl.name}-seed{seed}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"  trace summary written to {path.relative_to(ROOT)}")
    return metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    bench = ROOT / "BENCHMARK.json"
    if not (src / "glmavg" / "__init__.py").is_file() or not bench.is_file():
        print(f"perfbench: {src}/glmavg or {bench} is missing; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(bench.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from workloads import WORKLOADS, pinned_env

    wl = WORKLOADS[args.workload]
    env_info = environment()
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  op: {json.loads((BENCH_DIR / 'spec.json').read_text())['workloads'][wl.name]['op']}")
    print(f"  env: {json.dumps(env_info)}")

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        env = pinned_env()
        probes = [probe(wl.name, args.seed, args.seconds, workdir / f"probe{i}", env) for i in range(N_PROBES)]
        setup_s = statistics.median(p[0] for p in probes)
        import_s = statistics.median(p[1] for p in probes)
        inputs_dir = workdir / "inputs"
        inputs_dir.mkdir()
        inputs = wl.build(args.seed, args.seconds, inputs_dir)
        if args.trace:
            plain, traced, tracer = traced_passes(wl, inputs)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values, problems = per_layer(wl, args.seed, plain, traced, tracer, import_s, env_info, units)
            passes = plain + traced
            attempted, failed = sum(p.attempted for p in passes), sum(p.failed for p in passes)
            problems = [why for p in passes for why in p.problems] + problems
            wanted = spec["per_layer"]
        else:
            out = wl.run(inputs)
            values = end_to_end(wl, out, setup_s, len(probes))
            attempted, failed, problems = out.attempted, out.failed, out.problems
            wanted = spec["end_to_end"]
        problems += wl.final_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  checks: {'all passed' if not problems else f'{len(problems)} failed'}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
