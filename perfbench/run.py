"""convattn benchmark: training and analysis workloads on synthetic data.

Run from the repository root:

    python3 perfbench/run.py --workload desk-linear --seed 0 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 22 --trace 0

Each operation is one process: a ``convattn train`` run (through
``convattn.cli.main``) or one read-only analysis pass. Operations repeat
until ``--seconds`` have passed; timings are medians over them. With
``--trace 1`` the operations alternate between untraced and traced (the
tracer wraps convattn's public functions from ``tracer.py``), and an
isolated per-step sweep runs at the end; the last line then carries the
per-layer metrics instead of the end-to-end ones.

Every operation's outputs are checked; a failed check counts in
``failed`` and makes the command exit 1. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Full records, with the environment block, go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from layers import E2E_UNITS, layer_units, moves

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SYNTHETIC = ["--set", "data.dataset=synthetic"]

# Run lengths (epochs) are set so one operation takes a few seconds on two
# cores and a run holds several operations to take medians over.
WORKLOADS = {
    "desk-linear": {"epochs": 6, "argv": ["train", "--preset", "desk", "--set", "schedule.kind=linear"]},
    "interp-switched": {"epochs": 6, "argv": ["train", "--preset", "interp", "--set", "schedule.kind=uniform",
                                              "--set", "schedule.e_switch=1"]},
    "interp-fresh-sa": {"epochs": 6, "argv": ["train", "--preset", "interp", "--set", "schedule.kind=all-sa",
                                              "--set", "schedule.e_switch=none"]},
    "analyze": {"epochs": None, "argv": None},
}

SWITCH_REL_TOL = 1e-4
REPARAM_TOL = 1e-5
SWEEP_ROUNDS = 5
DEADLINE_S = 165.0  # per workload; an operation still running then is killed


# --------------------------------------------------------------------------
# environment


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpus = len(os.sched_getaffinity(0))
    threads, source = cpus, "OpenBLAS default (one per usable CPU)"
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var, "").strip():
            threads, source = int(os.environ[var]), var
            break
    return {
        "nproc": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_threads_source": source,
        "numba": importlib.util.find_spec("numba") is not None,
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "commit": _git_commit(),
    }


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


# --------------------------------------------------------------------------
# one operation = one process


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap ``proc``, killing it at ``deadline``; returns (exit code or None
    if killed, rusage, monotonic exit time). Blocks in wait4 rather than
    polling, so the wait costs the measured process no CPU time."""
    killed = []

    def on_alarm(signum, frame):
        killed.append(True)
        proc.kill()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.001))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        exit_time = time.monotonic()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if killed else proc.returncode), usage, exit_time


def run_process(spec: dict, op_dir: str, deadline: float) -> dict:
    """Run child.py on ``spec``; returns its result plus launch-to-exit facts."""
    os.makedirs(op_dir, exist_ok=True)
    spec = dict(spec, result=os.path.join(op_dir, "result.json"))
    spec_path = os.path.join(op_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(os.path.join(op_dir, "output.log"), "w") as log:
        launch = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        code, usage, exit_time = _wait(proc, deadline)
    result = {}
    if code == 0:
        with open(spec["result"]) as fh:
            result = json.load(fh)
    result.update(process_exit=code, launch=launch, run_s=exit_time - launch,
                  cpu_s=usage.ru_utime + usage.ru_stime, peak_rss_mb=usage.ru_maxrss / 1024.0)
    if code != 0:
        with open(os.path.join(op_dir, "output.log")) as fh:
            result["log_tail"] = fh.read()[-2000:]
    return result


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _mode_class(modes: list[str]) -> str:
    if all(m == "conv" for m in modes):
        return "conv"
    if all(m == "sa" for m in modes):
        return "sa"
    return "mixed"


def train_op(workload: str, seed: int, traced: bool, op_dir: str, deadline: float) -> dict:
    wl = WORKLOADS[workload]
    argv = wl["argv"] + SYNTHETIC + ["--set", f"data.seed={seed}",
                                     "--set", f"schedule.total_epochs={wl['epochs']}", "--out", op_dir]
    res = run_process({"kind": "train", "argv": argv, "trace": traced}, op_dir, deadline)
    op = {"traced": traced, "run_s": res["run_s"], "cpu_s": res["cpu_s"], "peak_rss_mb": res["peak_rss_mb"],
          "failures": []}
    fail = op["failures"].append
    if res["process_exit"] != 0 or res.get("exit_code") != 0:
        fail(f"exit code {res['process_exit']}/{res.get('exit_code')}: {res.get('log_tail', '')}")
        return op
    manifest = _read_json(os.path.join(op_dir, "manifest.json")) or {}
    if manifest.get("status") != "completed":
        fail(f"manifest status {manifest.get('status')!r}")
    try:
        with open(os.path.join(op_dir, "metrics.jsonl")) as fh:
            epochs = [json.loads(line) for line in fh]
    except (OSError, ValueError) as exc:
        fail(f"metrics.jsonl unreadable: {exc}")
        return op
    if len(epochs) != wl["epochs"]:
        fail(f"{len(epochs)} epochs in metrics.jsonl, expected {wl['epochs']}")
        return op
    for m in epochs:
        for ev in m["switches"]:
            rel = abs(ev["loss_after"] - ev["loss_before"]) / ev["loss_before"]
            if not rel < SWITCH_REL_TOL:
                fail(f"switch at epoch {ev['epoch']} layer {ev['layer']} moved the probe loss by {rel:.3g}")
    final = epochs[-1]["train_loss"]
    if not math.isfinite(final):
        fail(f"final train loss {final}")
    loop_s = sum(m["epoch_seconds"] for m in epochs)
    op.update(
        setup_s=res["first_epoch"] - res["launch"],
        final_train_loss=final,
        images_per_s=res["train_images"] * len(epochs) / loop_s,
        switches=sum(len(m["switches"]) for m in epochs),
        epochs=[(_mode_class(m["modes"]), m["epoch_seconds"]) for m in epochs],
        layers=res.get("layers"),
    )
    _check_trace(res, op)
    return op


def _check_trace(res: dict, op: dict) -> None:
    """A traced operation must close every span, and its self times must add
    up to the traced wall time."""
    if "layers" not in res:
        return
    if res["open_spans"]:
        op["failures"].append(f"{res['open_spans']} spans left open")
    gap = abs(res["trace_wall_s"] - res["trace_self_total_s"])
    if gap > 1e-6 * res["trace_wall_s"]:
        op["failures"].append(f"self times miss the traced wall time by {gap:.3g} s")


def analyze_op(workload: str, seed: int, traced: bool, op_dir: str, deadline: float) -> dict:
    res = run_process({"kind": "analyze", "seed": seed, "out_dir": op_dir, "trace": traced}, op_dir, deadline)
    op = {"traced": traced, "run_s": res["run_s"], "cpu_s": res["cpu_s"], "peak_rss_mb": res["peak_rss_mb"],
          "failures": []}
    fail = op["failures"].append
    if res["process_exit"] != 0:
        fail(f"exit code {res['process_exit']}: {res.get('log_tail', '')}")
        return op
    ev = res["evaluate"]
    if ev["n"] < 1 or not math.isfinite(ev["top1"]):
        fail(f"evaluate returned {ev}")
    if res["fourier_exit_code"] != 0:
        fail(f"fourier exit code {res['fourier_exit_code']}")
    if (_read_json(os.path.join(op_dir, "manifest.json")) or {}).get("status") != "completed":
        fail("fourier manifest not completed")
    profile = _read_json(os.path.join(op_dir, "depth_profile.json")) or {}
    deltas = profile.get("deltas") or []
    if len(profile.get("targets", [])) != 3 or not deltas or not all(
            len(row) == 3 and all(math.isfinite(v) for v in row) for row in deltas):
        fail(f"depth profile lacks three finite target frequencies: {profile}")
    diff = res["reparam_report"]["max_abs_diff"]
    if res["reparam_exit_code"] != 0 or not diff < REPARAM_TOL:
        fail(f"reparam-check exit {res['reparam_exit_code']}, max_abs_diff {diff}")
    op.update(
        setup_s=res["timed_start"] - res["launch"],
        images_per_s=ev["n"] / res["eval_s"],
        analyze_s=res["analyze_s"],
        eval_s=res["eval_s"],
        fourier_s=res["fourier_s"],
        reparam_check_s=res["reparam_check_s"],
        top1=ev["top1"],
        max_abs_diff=diff,
        layers=res.get("layers"),
    )
    _check_trace(res, op)
    return op


# --------------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> tuple[int, float] | None:
    """(percentile, value) of the highest percentile with at least ten samples
    above it, when that percentile lies above the median."""
    n = len(values)
    pct = math.floor(100 * (n - 10) / n)
    if pct <= 50:
        return None
    rank = max(1, math.ceil(pct / 100 * n))
    return pct, sorted(values)[rank - 1]


def median_of(ops: list[dict], key: str) -> float:
    return statistics.median(op[key] for op in ops)


# --------------------------------------------------------------------------
# a workload run


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    kind_op = analyze_op if workload == "analyze" else train_op
    run_dir = os.path.join(WORK, "ops", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    ops: list[dict] = []
    while True:
        traced = trace and len(ops) % 2 == 1  # with tracing, untraced and traced alternate
        op_dir = os.path.join(run_dir, str(len(ops)))
        ops.append(kind_op(workload, seed, traced, op_dir, deadline))
        shutil.rmtree(op_dir, ignore_errors=True)
        enough = len(ops) >= 2 if trace else True
        if time.monotonic() >= deadline or (enough and time.monotonic() - start >= seconds):
            break
    sweep = None
    if trace and time.monotonic() < deadline:
        res = run_process({"kind": "sweep", "seed": seed, "rounds": SWEEP_ROUNDS},
                          os.path.join(run_dir, "sweep"), deadline)
        sweep = {"step_ms": res.get("step_ms"), "failures": []}
        if res["process_exit"] != 0:
            sweep["failures"].append(f"sweep exit code {res['process_exit']}: {res.get('log_tail', '')}")
        elif not all(math.isfinite(v) for v in res["losses"].values()):
            sweep["failures"].append(f"sweep losses not finite: {res['losses']}")
    shutil.rmtree(run_dir, ignore_errors=True)
    _check_repeatable(ops, "final_train_loss" if kind_op is train_op else "max_abs_diff")
    return {"ops": ops, "sweep": sweep}


def _check_repeatable(ops: list[dict], key: str) -> None:
    """Same seed, same arithmetic: every run must give bitwise the same value,
    traced or not, which also shows the tracer leaves the program unchanged."""
    done = [op for op in ops if key in op]
    for op in done[1:]:
        if op[key] != done[0][key]:
            op["failures"].append(f"{key} {op[key]!r} differs from the first run's {done[0][key]!r}")


def measured(ops: list[dict], traced: bool) -> list[dict]:
    return [op for op in ops if op["traced"] == traced and not op["failures"]]


def end_to_end(ops: list[dict]) -> dict[str, float]:
    plain = measured(ops, False)
    if not plain:
        return {}
    return {name: median_of(plain, name) for name in E2E_UNITS}


def details(workload: str, ops: list[dict]) -> list[tuple[str, float, str]]:
    """Numbers printed beside the gated ones: the per-mode epoch split and
    workload-specific rates."""
    plain = measured(ops, False)
    rows: list[tuple[str, float, str]] = []
    if not plain:
        return rows
    if workload == "analyze":
        rows.append(("infer_images_per_s", median_of(plain, "images_per_s"), "1/s"))
        for key in ("analyze_s", "eval_s", "fourier_s", "reparam_check_s"):
            rows.append((key, median_of(plain, key), "s"))
    else:
        rows.append(("train_samples_per_s", median_of(plain, "images_per_s"), "1/s"))
        rows.append(("cpu_s", median_of(plain, "cpu_s"), "s"))
        rows.append(("final_train_loss", median_of(plain, "final_train_loss"), "nats"))
        for mode in ("conv", "mixed", "sa"):
            times = [t for op in plain for m, t in op["epochs"] if m == mode]
            if not times:
                continue
            rows.append((f"epoch_s.{mode}", statistics.median(times), "s"))
            rows.append((f"epoch_s.{mode}.n", len(times), "count"))
            high = tail(times)
            if high:
                rows.append((f"epoch_s.{mode}.p{high[0]}", high[1], "s"))
    failed = sum(1 for op in ops if op["failures"])
    rows.append(("failed_frac", failed / len(ops), "frac"))
    rows.append(("measured_operations", len(plain), "count"))
    return rows


def per_layer(ops: list[dict], sweep: dict | None) -> dict[str, float]:
    traced = measured(ops, True)
    plain = measured(ops, False)
    out: dict[str, float] = {}
    if traced:
        for name in traced[0]["layers"]:
            out[name] = statistics.median(op["layers"][name] for op in traced)
    if traced and plain:
        out["trace_overhead_frac"] = median_of(traced, "run_s") / median_of(plain, "run_s") - 1.0
    if sweep and sweep["step_ms"]:
        for case, values in sweep["step_ms"].items():
            q1, q2, q3 = statistics.quantiles(values, n=4)
            out[f"step_ms.{case}"] = statistics.median(values)
            out[f"step_ms.{case}.q1"] = q1
            out[f"step_ms.{case}.q3"] = q3
    return out


# --------------------------------------------------------------------------
# command line


def _emit(workload_prefix: str, metrics: dict[str, float], units: dict[str, str], shown: dict) -> None:
    for name, value in metrics.items():
        unit = units[name]
        why = moves(name)
        print(f"{workload_prefix}{name} = {value!r} {unit}" + (f"  # moves {why[0]} on {why[1]}" if why else ""))
        shown[f"{workload_prefix}{name}"] = {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "convattn", "__init__.py")):
        print(f"no convattn sources under {SRC}; run from a convattn checkout", file=sys.stderr)
        return 2

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    prefix = args.workload == "all"
    shown: dict = {}
    attempted = failed = 0
    record = {"environment": env, "args": vars(args), "workloads": {}}
    for workload in names:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        ops, sweep = result["ops"], result["sweep"]
        units = E2E_UNITS if not args.trace else layer_units()
        gated = per_layer(ops, sweep) if args.trace else end_to_end(ops)
        rows = details(workload, ops)
        print(f"== {workload} (seed {args.seed}, {len(ops)} operations)")
        for name, value, unit in rows:
            print(f"   {name} = {value!r} {unit}")
        _emit(f"{workload}." if prefix else "", gated, units, shown)
        problems = [f for op in ops for f in op["failures"]] + (sweep["failures"] if sweep else [])
        for problem in problems:
            print(f"CHECK FAILED [{workload}]: {problem}")
        attempted += len(ops) + (1 if sweep else 0)
        failed += sum(1 for op in ops if op["failures"]) + (1 if sweep and sweep["failures"] else 0)
        missing = set(units) - set(gated)
        if missing:
            print(f"CHECK FAILED [{workload}]: no value for {sorted(missing)}")
            failed += 1
            attempted += 1
        record["workloads"][workload] = {"metrics": gated, "details": rows, **result}

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(WORK, "results", f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": shown}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
