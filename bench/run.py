"""cavidyn benchmark: times the `cavidyn` CLI from outside, one job at a time.

    python3 bench/run.py --workload tc-ensemble --seed 1 --seconds 50 --trace 0

Run from the repository root.  The benchmark writes the workload's config
from the seed, computes its exact reference once, times `cavidyn validate`
(set-up), then runs the experiment back to back (closed loop, one client)
while the next job should end within `--seconds`, and at least MIN_JOBS.
Every job is checked: exit code, manifest checksums equal across jobs and
equal to the files, and accuracy against the reference within the
workload's tolerance.  A workload with an exact case (a variant the engine
solves exactly) also runs one untimed job of it, judged against its own
exact reference by a tight tolerance.  With `--trace 1` it also runs one untraced and one
traced job with `--workers 1` and reports per-layer figures from the spans.

Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  Scratch
files go to `.bench_work/` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent

#: BLAS threads per CLI process; workers x BLAS threads stays <= nproc
BLAS_THREADS = 1
#: jobs per run at the least, so that every run compares checksums
MIN_JOBS = 3
#: `cavidyn validate` timings per run; setup_s is their median
SETUP_REPEATS = 5
#: a run ends within this many seconds; jobs still running then are killed
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CHECK_UNITS = {"check.oracle_dev": "1", "check.failed_frac": "1"}


@dataclass
class Job:
    """One CLI process and the verdict on its outputs."""

    label: str
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    out_dir: Path
    problems: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def blas_info() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']}-{blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


class Runner:
    """Runs CLI processes through bench/launcher.py and times them.

    Create it before importing numpy: the launcher forks every job, and a
    job's peak RSS starts from the size of the process it was forked from.
    """

    def __init__(self, work: Path, deadline: float):
        self.deadline = deadline
        tmp = work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        blas = str(BLAS_THREADS)
        self.env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp),
                        OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas,
                        MKL_NUM_THREADS=blas)
        self._launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._launcher.stdin.close()
        self._launcher.wait()

    def launch(self, label: str, args: list, out_dir: Path) -> Job:
        """Run `python3 <args>` to completion: wall time from spawn to reap,
        peak RSS over the process and every child it waited for."""
        out_dir.mkdir(parents=True, exist_ok=True)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return Job(label, -1, 0.0, 0.0, out_dir, ["no time left"])
        request = {"args": [sys.executable] + args, "cwd": str(ROOT),
                   "env": self.env, "log": str(out_dir / "log.txt"),
                   "timeout": remaining}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = json.loads(self._launcher.stdout.readline())
        job = Job(label, reply["exit_code"], reply["wall_s"],
                  reply["maxrss_kb"] / 1024.0, out_dir)
        if job.exit_code != 0:
            job.problems.append(f"exit code {job.exit_code}")
        return job


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_job(job: Job, workload, reference: dict, expected: dict) -> None:
    """Record problems with a finished experiment job.

    expected: checksums every job must reproduce; filled from the first job
    that produced a manifest.
    """
    if job.exit_code != 0:
        return
    try:
        manifest = json.loads((job.out_dir / "run_manifest.json").read_text())
        checksums = manifest["outputs"]
    except (OSError, ValueError, KeyError) as exc:
        job.problems.append(f"no readable manifest: {exc}")
        return
    for name, digest in checksums.items():
        path = job.out_dir / name
        if not path.is_file() or _sha256(path) != digest:
            job.problems.append(f"{name} does not match its manifest checksum")
    if not expected:
        expected.update(checksums)
    elif checksums != expected:
        job.problems.append("checksums differ from the first job")
    try:
        job.figures = workload.check(job.out_dir, reference)
    except (OSError, ValueError, IndexError) as exc:
        job.problems.append(f"outputs unreadable: {exc}")
        return
    for name, value in job.figures.items():
        tol = workload.tolerances[name]
        if not value <= tol:
            job.problems.append(f"{name} {value:.3e} exceeds {tol:.1e}")


def _cli(command: str, config: Path, out_dir: Path | None = None,
         workers: int = 1) -> list:
    args = [command, "--config", str(config)]
    if out_dir is not None:
        args += ["--out", str(out_dir), "--workers", str(workers)]
    return args


def measure(workload, seed: int, seconds: float, trace: bool, work: Path,
            runner: Runner, log=print) -> dict:
    """Run the benchmark on one workload in the scratch directory `work`;
    returns the result record."""
    from cavidyn.config import validate
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    workers = min(workload.workers, nproc)
    config = work / "config.ini"
    config.write_text(workload.config(seed), encoding="utf-8")
    cfg = validate(config.read_text(encoding="utf-8"))
    env = {"nproc": nproc, "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "blas": blas_info(), "blas_threads": BLAS_THREADS,
           "workers": workers, "seed": seed}
    log("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    t0 = time.perf_counter()
    reference = workload.reference(cfg)
    log(f"reference computed in {time.perf_counter() - t0:.2f} s"
        + (f" (Fock cutoff check {reference['cutoff_dev']:.2e})"
           if "cutoff_dev" in reference else ""))

    jobs: list[Job] = []
    setup = []
    for i in range(SETUP_REPEATS):
        job = runner.launch(f"validate{i}",
                            ["-m", "cavidyn.cli"] + _cli("validate", config),
                            work / f"validate{i}")
        setup.append(job.wall_s)
        jobs.append(job)

    expected: dict = {}
    timed: list[Job] = []
    loop_start = time.perf_counter()
    # start another job only while it should end within `seconds`
    while (len(timed) < MIN_JOBS or time.perf_counter() - loop_start
           + timed[-1].wall_s <= seconds):
        i = len(timed)
        job = runner.launch(f"job{i}", ["-m", "cavidyn.cli"] + _cli(
            "run", config, work / f"job{i}", workers), work / f"job{i}")
        check_job(job, workload, reference, expected)
        timed.append(job)
        if job.exit_code < 0:
            break
    jobs += timed

    tolerances = dict(workload.tolerances)
    exact = workload.exact_case
    if exact is not None:
        exact_dir = work / "exact_case"
        exact_dir.mkdir(parents=True, exist_ok=True)
        exact_config = exact_dir / "config.ini"
        exact_config.write_text(exact.config(seed), encoding="utf-8")
        t0 = time.perf_counter()
        exact_ref = exact.reference(validate(exact.config(seed)))
        log(f"{exact.name} reference computed in "
            f"{time.perf_counter() - t0:.2f} s")
        job = runner.launch(exact.name, ["-m", "cavidyn.cli"] + _cli(
            "run", exact_config, exact_dir / "out"), exact_dir / "out")
        check_job(job, exact, exact_ref, {})
        jobs.append(job)
        tolerances.update(exact.tolerances)

    result = {"workload": workload.name, "env": env, "trace": trace}
    walls = [j.wall_s for j in timed]
    result["end_to_end"] = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(j.peak_rss_mb for j in timed),
    }
    result["samples"] = {"wall_s": walls, "setup_s": setup}

    if trace:
        serial_wall = statistics.median(walls)
        if workers > 1:
            serial = runner.launch("serial", ["-m", "cavidyn.cli"] + _cli(
                "run", config, work / "serial"), work / "serial")
            check_job(serial, workload, reference, expected)
            jobs.append(serial)
            serial_wall = serial.wall_s
        spans_path = work / "spans.json"
        traced = runner.launch("traced", [str(BENCH / "tracing.py"),
                                          str(spans_path)] + _cli(
            "run", config, work / "traced"), work / "traced")
        check_job(traced, workload, reference, expected)
        jobs.append(traced)
        result["traced"] = {
            "wall_s": traced.wall_s, "untraced_wall_s": serial_wall,
            "untraced_from": f"median of {len(walls)} timed jobs"
            if workers == 1 else "one untimed job"}
        if traced.exit_code == 0:
            from tracing import layer_metrics, root_time, self_table

            spans = json.loads(spans_path.read_text())["spans"]
            result["layers"] = layer_metrics(spans)
            result["traced"]["attributed_s"] = root_time(spans)
            result["self_table"] = self_table(spans)

    figures = {}
    for job in jobs:
        for name, value in job.figures.items():
            figures[name] = max(figures.get(name, 0.0), value)
    result["figures"] = figures
    result["tolerances"] = tolerances
    result["jobs"] = [{"label": j.label, "exit_code": j.exit_code,
                       "wall_s": j.wall_s, "peak_rss_mb": j.peak_rss_mb,
                       "problems": j.problems, **j.figures} for j in jobs]
    result["attempted"] = len(jobs)
    result["failed"] = sum(j.failed for j in jobs)
    return result


def per_layer(result: dict) -> dict:
    """Per-layer figures of a traced result, including the checks."""
    out = dict(result.get("layers", {}))
    traced = result.get("traced", {})
    if "attributed_s" in traced:
        out["trace.wall_s"] = traced["wall_s"]
        out["trace.overhead_s"] = traced["wall_s"] - traced["untraced_wall_s"]
        out["trace.unattributed_s"] = traced["wall_s"] - traced["attributed_s"]
    out["check.oracle_dev"] = result["figures"].get("oracle_dev", 0.0)
    out["check.failed_frac"] = result["failed"] / result["attempted"]
    return out


def layer_unit(name: str) -> str:
    if name in CHECK_UNITS:
        return CHECK_UNITS[name]
    if name.endswith("_ms_per_call") or name.endswith("_ms_per_leg"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


def report(result: dict, log=print) -> dict:
    """Print every figure with its unit; return the final JSON record."""
    for job in result["jobs"]:
        status = "FAILED " + "; ".join(job["problems"]) if job["problems"] \
            else "ok"
        log(f"job {job['label']}: exit {job['exit_code']} "
            f"wall {job['wall_s']:.3f} s rss {job['peak_rss_mb']:.1f} MB "
            f"{status}")
    n = len(result["samples"]["wall_s"])
    for name, value in result["end_to_end"].items():
        how = {"wall_s": f"median of {n} jobs",
               "setup_s": f"median of {SETUP_REPEATS} validate runs",
               "peak_rss_mb": f"largest of {n} jobs"}[name]
        log(f"metric {name} = {value:.6g} {END_TO_END_UNITS[name]} ({how})")
    for name, value in sorted(result["figures"].items()):
        log(f"accuracy {name} = {value:.3e} "
            f"(tolerance {result['tolerances'][name]:.1e})")
    log(f"failed_frac = {result['failed']}/{result['attempted']}")
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in result["end_to_end"].items()}
    if result["trace"]:
        log("traced run: --workers 1, so every span is in one process")
        for name, calls, incl, own in result.get("self_table", []):
            log(f"span {name}: {calls} calls, {incl:.4f} s inclusive, "
                f"{own:.4f} s self")
        layers = per_layer(result)
        for name, value in layers.items():
            log(f"layer {name} = {value:.6g} {layer_unit(name)}")
        if "trace.overhead_s" in layers:
            log("trace.overhead_s is one traced job minus the --workers 1 "
                f"wall time ({result['traced']['untraced_from']}): "
                "indicative only, within run-to-run noise it may be < 0")
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    return {"correct": result["failed"] == 0 and bool(metrics),
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cavidyn" / "cli.py").is_file():
        print(f"error: no cavidyn sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not re.fullmatch(r"[a-z0-9][a-z0-9-]*", args.workload):
        print(f"error: bad workload name {args.workload!r}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    with Runner(work, time.monotonic() + DEADLINE_S) as runner:
        sys.path.insert(0, str(ROOT / "src"))
        from workloads import WORKLOADS

        workload = WORKLOADS.get(args.workload)
        if workload is None:
            print(f"error: unknown workload {args.workload!r}; choose from "
                  f"{', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
        print(f"# cavidyn benchmark: workload {workload.name}, "
              f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}",
              flush=True)
        result = measure(workload, args.seed, args.seconds, bool(args.trace),
                         work, runner, log=lambda line: print(line, flush=True))
    record = report(result)
    (work / "result.json").write_text(json.dumps(
        dict(result, record=record), indent=1, default=str))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
