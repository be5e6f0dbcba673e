#!/usr/bin/env python3
"""hiercurric benchmark: one closed-loop client driving the public CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload facilitated --seed 1 --seconds 30 --trace 0

Workloads are ``facilitated``, ``desk`` and ``prep-eval`` (see README.md);
``--workload all`` runs each in its own process, one after another. The
client calls ``hiercurric.cli.main`` in process, one command at a time, and
checks every command's output against an oracle. Inputs come from
``--seed`` alone.

``--trace 0`` times whole repetitions for ``--seconds`` seconds and reports
the end-to-end metrics. ``--trace 1`` runs one untraced repetition, then
one with every public hiercurric function wrapped in a span recorder, and
reports the per-layer metrics. The last line of standard output is a JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
All scratch files live under ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One BLAS thread: on the shared 2-vCPU reference machine the desk step is
# as fast as with two, and its run-to-run spread is half as wide. Set
# before numpy is first imported, here and in every child interpreter.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

WORKLOADS = ("facilitated", "desk", "prep-eval")
SETUP_REPEATS = 5
IMPORT_REPEATS = 9

# Reported by every workload, so each is measured on all of them.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}

# Per-layer metrics that every workload exercises. The traced run prints
# the rest (conv backward, checkpoint I/O, transfer, dedup, network layers)
# by name where the workload reaches them; see README.md. It prints
# trace.overhead_share too, but keeps it out of the result line: it sits
# near 0 and can be negative, so a relative change of it means nothing.
PER_LAYER = {
    "nnkernel.conv2d_forward.self_s": "s",
    "nnkernel.conv2d_forward.calls": "count",
    "nnkernel.conv2d_forward.gflop_per_s": "GFLOP/s",
    "nnkernel.maxpool_forward.self_s": "s",
    "nnkernel.maxpool_forward.calls": "count",
    "nnkernel.relu.self_s": "s",
    "nnkernel.relu.calls": "count",
    "nnkernel.fc.self_s": "s",
    "nnkernel.fc.calls": "count",
    "nnkernel.softmax_xent.self_s": "s",
    "nnkernel.softmax_xent.calls": "count",
    "nnkernel.sgd_step.self_s": "s",
    "nnkernel.sgd_step.calls": "count",
    "model.forward.self_s": "s",
    "model.forward.calls": "count",
    "dataprep.load_batch.s": "s",
    "dataprep.store_loads": "count",
    "dataprep.store_loads_per_image": "ratio",
    "dataprep.random_class_splits.s": "s",
    "taxonomy.validate_basic_marks.s": "s",
    "taxonomy.allocate_descendants.s": "s",
    "cli.self_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time per run; repetitions stop when "
                             "another would overrun it (at least one runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


IMPORT_SNIPPET = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                  "t = time.perf_counter(); import hiercurric.cli; "
                  "print(time.perf_counter() - t)")


def import_program() -> float:
    """Put the checkout's ``src`` first on the path and import hiercurric.

    Returns the import time. Exits with code 2 when the checkout holds no
    program, so no result is printed.
    """
    if not (SRC / "hiercurric" / "__init__.py").is_file():
        print(f"error: no hiercurric sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    start = time.perf_counter()
    import hiercurric.cli  # noqa: F401  (pulls in every module)
    return time.perf_counter() - start


def import_seconds(first: float) -> float:
    """Least import time over this process's import and fresh ones.

    The interpreter caches modules, so repeating the import means starting
    a new interpreter; only the import itself is timed there. Other
    tenants' load only ever adds time to a 0.3 s import, so the least of
    several samples is the steadiest estimate of its own cost."""
    times = [first]
    for _ in range(IMPORT_REPEATS - 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
                              capture_output=True, text=True, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return min(times)


def run_cli(argv) -> tuple[int | None, str]:
    """``hiercurric.cli.main(argv)`` with stdout captured.

    An exception escaping the CLI counts as a failed command (code None)."""
    from hiercurric import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:              # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = None
    return code, buf.getvalue()


def run_rep(workload, inputs, out: Path) -> dict:
    """One repetition: every command timed, then checked untimed."""
    seconds, failures = {}, []
    ops = workload.ops(inputs, out)
    for op in ops:
        start = time.perf_counter()
        code, _ = run_cli(op.argv)
        seconds[op.name] = time.perf_counter() - start
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            try:
                problems = op.check()
            except (OSError, KeyError, ValueError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            failures.append({"op": op.name, "problems": problems})
    return {"seconds": seconds, "wall_s": sum(seconds.values()),
            "attempted": len(ops), "failures": failures, "dir": out}


def tree_differences(a: Path, b: Path) -> list[str]:
    """Relative paths whose presence or bytes differ between two trees."""
    def digests(root):
        return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.rglob("*")) if p.is_file()}
    da, db = digests(a), digests(b)
    return sorted(k for k in da.keys() | db.keys() if da.get(k) != db.get(k))


def environment() -> dict:
    import numpy as np
    from hiercurric import nnkernel as nk

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
        blas_config = " ".join(str(blas.get("openblas configuration", "")).split())
    except (TypeError, KeyError):
        blas_build = blas_config = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_config": blas_config,
        "dtype": "float64",
        "checked_mode": nk.checked_enabled(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def _median_extras(workload, reps, inputs) -> dict:
    per_rep = [workload.extras(r["seconds"], inputs) for r in reps]
    return {name: (median(p[name][0] for p in per_rep), unit)
            for name, (_, unit) in per_rep[0].items()}


def measure(workload, inputs, work: Path, seconds: float) -> tuple[dict, list]:
    """Untraced repetitions until another would overrun ``seconds``."""
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(run_rep(workload, inputs, work / f"rep{len(reps)}"))
        if len(reps) == 1:
            # later repetitions add only allocator fragmentation, so the
            # peak is read here to keep it independent of their number
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - start
        if elapsed + median(r["wall_s"] for r in reps) > seconds:
            break
    metrics = {"wall_s": (median(r["wall_s"] for r in reps), "s"),
               "peak_rss_mb": (peak, "MiB")}
    metrics.update(_median_extras(workload, reps, inputs))
    return metrics, reps


def measure_traced(workload, inputs, work: Path, report: Path):
    """One untraced and one traced repetition of the same inputs."""
    from breakdown import install, layer_metrics
    from spans import Tracer

    plain = run_rep(workload, inputs, work / "rep0")
    tracer = Tracer()
    try:
        install(tracer)
        traced = run_rep(workload, inputs, work / "rep1")
    finally:
        tracer.restore()
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_share"] = (traced["wall_s"] / plain["wall_s"] - 1.0,
                                       "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    _write_spans(tracer, report.with_suffix(".spans.csv.gz"))
    return metrics, [plain, traced]


def _write_spans(tracer, path: Path) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("index,name,start_s,end_s,parent\n")
        t0 = tracer.spans[0].start if tracer.spans else 0.0
        for i, s in enumerate(tracer.spans):
            fh.write(f"{i},{s.name},{s.start - t0!r},{s.end - t0!r},{s.parent}\n")


def run_workload(args) -> int:
    import_s = import_program()
    import workloads as wl

    import_s = import_seconds(import_s)

    workload = wl.WORKLOADS[args.workload]
    work = WORK / f"run-{args.workload}-seed{args.seed}-pid{os.getpid()}"
    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    report = reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = workload.setup(work / f"setup{i}", args.seed, run_cli)
            setup_times.append(time.perf_counter() - start)
        if args.trace:
            metrics, reps = measure_traced(workload, inputs, work, report)
        else:
            metrics, reps = measure(workload, inputs, work, args.seconds)
            metrics["setup_s"] = (import_s + median(setup_times), "s")
        nondeterministic = {str(r["dir"].name): tree_differences(reps[0]["dir"], r["dir"])
                            for r in reps[1:]}
        nondeterministic = {k: v for k, v in nondeterministic.items() if v}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    metrics["ops_attempted"] = (attempted, "count")
    metrics["ops_failed"] = (len(failures), "count")
    metrics["ops_failed_share"] = (len(failures) / attempted, "ratio")
    env = environment()
    for failure in failures:
        print(f"FAILED {failure['op']}: {'; '.join(failure['problems'])}",
              file=sys.stderr)
    for name, paths in nondeterministic.items():
        print(f"FAILED rerun {name} differs from rep0 in {paths[:5]}",
              file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}  setup runs {SETUP_REPEATS}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:44s} {value:>16.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    report.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "op_seconds": [r["seconds"] for r in reps], "failures": failures,
        "setup_seconds": setup_times, "import_s": import_s, "env": env,
    }, indent=2, sort_keys=True) + "\n")

    wanted = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not failures and not nondeterministic,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v
                                  for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
