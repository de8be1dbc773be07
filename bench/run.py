"""qocc benchmark: one workload, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads, their metrics and why each
exists are described in bench/README.md.  With ``--trace 0`` the run measures
the end-to-end metrics with tracing off; with ``--trace 1`` it makes the
separate traced run that gives the per-layer metrics.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.  Lines
before it give the run's metadata, sample counts and any failures.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import inputs
import workloads

WORKLOADS = workloads.WORKLOADS
IN_PROCESS = ("corpus-sweep", "analyze-batch")
# an in-process run is split over this many worker processes, so that one
# process that stays slow for its whole life cannot set every key's figure
WORKERS = 3
SETUP_SAMPLES = 10  # half before and half after the measured stretch, to span the host's speed swings
MIN_CALLS = 128  # per CLI run: at least eight calls of each of the 16 argvs
IMPORT_SAMPLES = 7
CHILD_TIMEOUT_S = 60.0
BENCH_DIR = Path(__file__).resolve().parent


class Child:
    """Runs one child process at a time and reaps it with its resource usage.

    stdout and stderr go to files, not pipes, so a child can never block on
    a full pipe while the parent waits for it; a child that outlives its
    timeout is killed.
    """

    def __init__(self, scratch: Path, env: dict) -> None:
        scratch.mkdir(parents=True, exist_ok=True)
        self.scratch = scratch
        self.env = env
        self.out = open(scratch / "stdout", "w+b")
        self.err = open(scratch / "stderr", "w+b")
        self.proc: subprocess.Popen | None = None
        signal.signal(signal.SIGALRM, self._expire)

    def _expire(self, *_) -> None:
        if self.proc is not None:
            self.proc.kill()

    def run(self, argv: list[str], timeout: float = CHILD_TIMEOUT_S):
        """(seconds from spawn to exit, exit code, stdout, stderr, peak RSS in KiB, start time)."""
        for handle in (self.out, self.err):
            handle.seek(0)
            handle.truncate()
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=self.out, stderr=self.err, env=self.env)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        self.proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.proc = None
        self.out.seek(0)
        self.err.seek(0)
        out = self.out.read().decode("utf-8", "replace")
        err = self.err.read().decode("utf-8", "replace")
        return elapsed, code, out, err, usage.ru_maxrss, start

    def close(self) -> None:
        self.out.close()
        self.err.close()
        shutil.rmtree(self.scratch, ignore_errors=True)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # cold-start figures assume warm bytecode caches
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def metadata_line(args) -> dict:
    commit = "unknown"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.split()
        if len(top) == 2 and Path(top[0]).resolve() == Path.cwd().resolve():
            commit = top[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(Path("src/qocc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": commit, "src_sha256": digest.hexdigest()[:16], "python": platform.python_version(),
        "numpy": numpy_version, "nproc": os.cpu_count(), "machine": platform.machine(),
    }


def setup_times(child: Child, workload: str, seed: int, count: int) -> list[float]:
    """Seconds from spawning a workload process to its being ready for the
    first timed operation (``workloads.setup``), ``count`` times."""
    samples = []
    for _ in range(count):
        _, code, out, err, _, start = child.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), "setup", workload, str(seed)])
        if code != 0:
            raise RuntimeError(f"{workload} set-up failed: {err.strip()[-2000:]}")
        samples.append(float(out) - start)
    return samples


def import_metrics(child: Child) -> dict:
    """python.startup_ms, cli.import_ms and cli.import_numpy_ms (medians)."""
    startup, cli, numpy = [], [], []
    for _ in range(IMPORT_SAMPLES):
        elapsed, *_ = child.run([sys.executable, "-c", "pass"])
        startup.append(elapsed * 1e3)
        _, code, _, err, _, _ = child.run([sys.executable, "-X", "importtime", "-c", "import qocc.cli"])
        if code != 0:
            raise RuntimeError(f"import qocc.cli failed: {err.strip()[-500:]}")
        cumulative = {}
        for line in err.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line.split("|")
                if cum.strip().isdigit():
                    cumulative.setdefault(name.strip(), int(cum) / 1e3)
        cli.append(cumulative["qocc.cli"])
        numpy.append(cumulative.get("numpy", 0.0))
    return {"python.startup_ms": statistics.median(startup), "cli.import_ms": statistics.median(cli),
            "cli.import_numpy_ms": statistics.median(numpy)}


def cold_calls(child: Child, replay: workloads.CliReplay, seconds: float):
    """Spawn `python -m qocc.cli ARGV` one at a time, cycling through the
    replay's argvs, for ``seconds`` and at least MIN_CALLS calls."""
    argvs = replay.argvs
    rec = workloads.Recorder()
    peak_kib = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or rec.attempted < MIN_CALLS:
        index = i % len(argvs)
        argv = argvs[index]
        rec.attempted += 1
        elapsed, code, out, err, maxrss, _ = child.run([sys.executable, "-m", "qocc.cli", *argv])
        peak_kib = max(peak_kib, maxrss)
        rec.timed(index, elapsed)
        if (code, out, err) != replay.expected[index]:
            rec.fail([f"{argv}: exit {code}, stdout {out[:200]!r}, stderr {err.strip()[-300:]!r}"])
        elif replay.problems:
            rec.fail(replay.problems[:5])
        else:
            rec.ok(index)
        i += 1
        if i % len(argvs) == 0:
            rec.sweep_done()
    return rec.summary(), peak_kib


def in_process(child: Child, workload: str, seed: int, seconds: float):
    """Run the workload in WORKERS worker processes, one after the other,
    each for an equal share of ``seconds``, and merge their timings."""
    rec = workloads.Recorder()
    peak_kib = 0
    for _ in range(WORKERS):
        _, code, out, err, maxrss, _ = child.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), "run", workload, str(seed), str(seconds / WORKERS)],
            timeout=seconds + 120)
        if code != 0:
            raise RuntimeError(f"{workload} worker exited {code}: {err.strip()[-2000:]}")
        rec.merge(json.loads(out.splitlines()[-1]))
        peak_kib = max(peak_kib, maxrss)
    return rec.summary(), peak_kib


def prepare(workload: str, seed: int) -> None:
    """Generate (or find cached) inputs for a workload; not timed."""
    if workload == "corpus-sweep":
        inputs.sweep_corpus(seed)
    elif workload == "count-cold":
        inputs.dir_corpus(seed)
    elif workload == "analyze-batch":
        inputs.batch_inputs(seed)
    else:
        workloads.cli_argvs(seed)


def end_to_end(args, child: Child) -> tuple[dict, dict]:
    if args.workload in IN_PROCESS:
        summary, peak_kib = in_process(child, args.workload, args.seed, args.seconds)
    else:
        replay, _ = workloads.setup(args.workload, args.seed)
        summary, peak_kib = cold_calls(child, replay, args.seconds)
    if not summary["ops"] or not summary["sweeps"]:
        raise RuntimeError(f"no verified operation or complete sweep in {args.seconds} s: {summary}")
    metrics = {
        "wall_s": summary["wall"],
        "p50_ms": summary["p50"] * 1e3,
        "p90_ms": summary["p90"] * 1e3,
        "peak_rss_mb": peak_kib / 1024,
    }
    return summary, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/qocc/__init__.py").is_file():
        print("run.py: no src/qocc here; run from the root of a qocc checkout", file=sys.stderr)
        return 2
    # the CLI workloads compute their expected outputs with qocc in-process
    sys.path.insert(0, str(Path("src").resolve()))
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    print("meta " + json.dumps(metadata_line(args)))
    child = Child(inputs.CACHE_ROOT / f"tmp-{os.getpid()}", child_env())
    try:
        for name in (WORKLOADS if args.trace else (args.workload,)):
            prepare(name, args.seed)
        # warm the bytecode caches of qocc and of the benchmark's worker
        child.run([sys.executable, str(BENCH_DIR / "worker.py"), "import", "qocc.cli", "workloads", "layers"])

        if args.trace:
            layer = import_metrics(child)
            _, code, out, err, _, _ = child.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), "trace", args.workload, str(args.seed),
                 str(args.seconds)], timeout=args.seconds + 120)
            if code != 0:
                raise RuntimeError(f"traced worker exited {code}: {err.strip()[-2000:]}")
            summary = json.loads(out.splitlines()[-1])
            metrics = {**layer, **summary.pop("layers")}
            print(f"traced run: {summary['attempted']} operations; {summary['overhead_pairs']} "
                  f"untraced/traced sweep pairs of {args.workload} for trace.overhead_pct")
        else:
            setup_times(child, args.workload, args.seed, 1)  # untimed: warms the file cache
            setups = setup_times(child, args.workload, args.seed, SETUP_SAMPLES // 2)
            summary, metrics = end_to_end(args, child)
            setups += setup_times(child, args.workload, args.seed, SETUP_SAMPLES - len(setups))
            metrics["setup_s"] = statistics.median(setups)
            # printed for reading but not listed in BENCHMARK.json
            # (see "End-to-end metrics" in bench/README.md)
            print(f"{args.workload}: {summary['ops']} verified operations, {summary['sweeps']} sweeps, "
                  f"{SETUP_SAMPLES} set-ups; error_rate = {summary['failed']}/{summary['attempted']}"
                  f" = {summary['failed'] / max(1, summary['attempted']):.4f}; not gated: "
                  f"ops_per_s = {summary['keys'] / summary['wall']:.6g}, "
                  f"mean sweep = {summary['busy'] / summary['sweeps']:.6g} s")
    finally:
        child.close()

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>14.6g} {units[name]}")
    for error, count in summary["errors"].items():
        print(f"  failed: {count} x {error}")
    for problem in summary["wrong"]:
        print(f"  WRONG: {problem}")
    result = {
        "correct": not summary["wrong"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
