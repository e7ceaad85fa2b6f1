"""Benchmark of the micronet package.

    python3 perfbench/run.py --workload {infer_b1,infer_batch16,train_m0,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Runs one workload in this single-threaded process, or with ``all`` each
workload in a child process of its own, then checks the outputs. It
prints readable lines, one detail JSON line (environment, every measured
value, checks, and with --trace 1 the join of span times with the
count_costs records), and as the last line a JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics declared in BENCHMARK.json, measured untraced and
stated at the host's reference speed (the detail line also gives them in
wall-clock time); with --trace 1 they are its per-layer metrics. See
perfbench/README.md.

Exit status: 0 when every request and check succeeded, 1 when one failed,
2 when the benchmark cannot run (no micronet sources next to it, or BLAS
not pinned to one thread).
"""

import os
import sys

# BLAS and OpenMP read these once, when numpy loads them: set before any
# import of numpy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("infer_b1", "infer_batch16", "train_m0")
# Per-model latency and training-throughput names of each workload,
# printed next to the generic end-to-end names.
ALIASES = {"infer_b1": ("m0.latency_p50_ms", "m0.latency_p90_ms",
                        "m3.latency_p50_ms", "m3.latency_p90_ms"),
           "infer_batch16": (),
           "train_m0": ("train_img_s",)}
WAIT = ("not applicable: one single-threaded process per workload, "
        "no queue, no layer waits on another")


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def pinning_problem():
    """Why BLAS is not pinned to one thread, or None when it is."""
    wrong = {v: os.environ.get(v) for v in THREAD_VARS if os.environ.get(v) != "1"}
    if wrong:
        return f"thread variables are not 1: {wrong}"
    import numpy as np
    a = np.ones((256, 256))
    a @ a       # OpenBLAS starts its pool, if any, on first use
    tasks = Path("/proc/self/task")
    if tasks.is_dir():
        n = len(list(tasks.iterdir()))
        if n != 1:
            return f"{n} threads run after a BLAS call; expected 1"
    return None


def git_revision():
    # only a repository rooted here: git would otherwise search the parents
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"].get("blas"),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
    }


def declared(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import micronet
    if not Path(micronet.__file__).resolve().is_relative_to(SRC):
        return fail(f"micronet imported from {micronet.__file__}, not from {SRC}")
    problem = pinning_problem()
    if problem:
        return fail(f"refusing to run unpinned: {problem}")
    import workloads

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        result = workloads.run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass    # another run still uses it

    wanted = declared(bool(args.trace))
    metrics = {m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
               for m in wanted}
    fail_rate = result.failed / result.attempted
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for m in wanted:
        print(f"  {m['name']:<44} {result.metrics[m['name']]:>14.6g} {m['unit']}")
    if not args.trace:
        for name in ALIASES[args.workload]:
            print(f"  {name:<44} {result.metrics[name]:>14.6g}")
        probe = result.extra["probe_ms"]
        print(f"  times above are at the reference speed: speed probe "
              f"{probe['nominal']:.3f} ms nominal, {probe['p50']:.3f} ms measured (p50)")
        for name, value in result.extra["wall_clock"].items():
            print(f"  wall clock {name:<33} {value:>14.6g}")
    print(f"  {'fail_rate':<44} {fail_rate:>14.6g} "
          f"({result.failed} failed of {result.attempted} attempted)")
    print(f"  wait time: {WAIT}")
    if args.trace:
        print_join(result.extra["table"])
    bad = [r for r in result.checks.rows if not r[1]]
    print(f"  checks: {len(result.checks.rows) - len(bad)} of "
          f"{len(result.checks.rows)} passed")
    for name, _, detail in bad:
        print(f"  FAILED {name}: {detail}")
    detail = {
        "schema": "perfbench.detail/1",
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(),
        "all_metrics": result.metrics,
        "fail_rate": fail_rate, "wait": WAIT,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in result.checks.rows],
        **{k: v for k, v in result.extra.items() if k != "table"},
    }
    if args.trace:
        detail["join"] = result.extra["table"]
    print(json.dumps(detail, default=str))
    print(json.dumps({"correct": result.failed == 0, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if result.failed == 0 else 1


def print_join(table: dict):
    """The count_costs join: each record's time next to its multiply-adds."""
    for prefix, t in table.items():
        images = max(t["images"], 1)
        fwd = t["forward_ns"]
        print(f"  {prefix}: {images} images, forward {fwd / 1e6 / images:.3f} ms/img")
        print(f"    {'record':<22} {'kind':<6} {'madds':>10} {'ms/img':>8} "
              f"{'share':>6} {'GMAC/s':>7}  out_shape")
        for r in t["rows"]:
            ns = r["ns"]
            gmac = r["madds"] * images / ns if ns else 0.0
            shape = "x".join(map(str, r["out_shape"])) if r["out_shape"] else "-"
            flag = "" if r["timed"] else "  UNTIMED"
            if r["mismatch"]:
                flag += f"  MISMATCH traced {'x'.join(map(str, r['traced_shape']))}"
            print(f"    {r['name']:<22} {r['kind']:<6} {r['madds']:>10} "
                  f"{ns / 1e6 / images:>8.3f} {ns / fwd if fwd else 0:>6.3f} "
                  f"{gmac:>7.3f}  {shape}{flag}")
        out = t["outside_ns"]
        print(f"    {'outside':<22} {'':<6} {'':>10} {out / 1e6 / images:>8.3f} "
              f"{out / fwd if fwd else 0:>6.3f}")


def run_all(args) -> int:
    """Each workload in a child process of its own, one after another."""
    status, attempted, failed, metrics = 0, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode in (0, 1) and lines:
            last = json.loads(lines[-1])
            attempted += last["attempted"]
            failed += last["failed"]
            metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": status == 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not (SRC / "micronet" / "__init__.py").is_file():
        return fail(f"no micronet sources at {SRC}")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail(f"no BENCHMARK.json at {ROOT}")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
