"""ddlab benchmark: time the CLI commands users wait on, per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stats --seed 3 --seconds 30 --trace 0

Set-up compiles ddlab's bytecode and writes the workload's inputs (made by
``ddlab gen`` from the seed) into perfbench/.work/, from scratch, SETUPS
times; setup_s is the median. The timed part then repeats the workload's
operations in rounds, each a separate ``python3 -m ddlab.cli`` process, one
at a time, until the next round would overrun --seconds. Every operation's output is
gated: exit 0, no traceback, stdout and written files equal to the digests
in expected.json, and the workload's identities (workloads.py).

--trace 0 reports the end-to-end metrics of BENCHMARK.json, from untraced
processes only. --trace 1 alternates untraced rounds with traced ones, in
which tracer.py replays each command in-process with spans around every
layer, and reports the per-layer metrics; the traced rounds never feed the
end-to-end numbers. The last stdout line is the result JSON; the line
before it holds the details (seeds, sample counts, per-op medians, failures).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import POOL, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 3
OP_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, broken set-up)."""


def child_env(work: Path) -> dict:
    """The fixed environment of every ddlab process: no DDLAB_THREADS, no user settings."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONPYCACHEPREFIX": str(work / "pycache"),
        "PYTHONHASHSEED": "0",
        "PYTHONIOENCODING": "utf-8",
        "LC_ALL": "C.UTF-8",
    }


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(argv: list[str], work: Path) -> Child:
    """Run one process in the work directory and wait for it, with its rusage."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=work, env=child_env(work), stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Child(
        code=code,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def ddlab_argv(args) -> list[str]:
    return [sys.executable, "-m", "ddlab.cli", *args]


def tail(data: bytes) -> str:
    lines = data.decode("utf-8", "replace").strip().splitlines()
    return lines[-1] if lines else ""


def set_up(wl: Workload, work: Path) -> float:
    """Wipe the work directory, warm bytecode, write the inputs; return the seconds taken."""
    start = time.perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    gen_argvs = []
    for inp in wl.inputs:
        if inp.text is not None:
            (work / inp.name).write_text(inp.text, encoding="utf-8")
        else:
            gen_argvs.append([*inp.gen, "--output", inp.name])
    child = run_child([sys.executable, str(HERE / "setup_inputs.py"), str(SRC), json.dumps(gen_argvs)], work)
    if child.code != 0:
        raise BenchError(f"set-up exited {child.code}: {tail(child.stderr)}")
    return time.perf_counter() - start


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class OpResult:
    name: str
    child: Child
    status: str  # "ok", "failed" (crashed) or "wrong" (a check or digest disagrees)
    problems: list[str]
    digests: dict


class Gate:
    """Checks operation outputs against recorded digests and identities."""

    def __init__(self, work: Path, expected: dict) -> None:
        self.work = work
        self.expected = expected
        self._companions: dict = {}

    def companion(self, args) -> str:
        """Stdout of an untimed ddlab command, run once per run; ValueError if it fails."""
        if args not in self._companions:
            child = run_child(ddlab_argv(args), self.work)
            if child.code != 0:
                raise ValueError(f"ddlab {' '.join(args)} exited {child.code}")
            self._companions[args] = child.stdout.decode("utf-8")
        return self._companions[args]

    def check(self, op, child: Child) -> OpResult:
        stdout = child.stdout.decode("utf-8", "replace")
        files = {name: (self.work / name).read_bytes() for name in op.outputs if (self.work / name).exists()}
        digests = {"stdout": sha256(child.stdout), "files": {name: sha256(data) for name, data in files.items()}}
        if child.code != 0 or b"Traceback" in child.stderr:
            problems = [f"identity failed: {ln}" for ln in stdout.splitlines() if ln.startswith("FAIL ")]
            status = "wrong" if problems else "failed"
            problems.append(f"exit {child.code}: {tail(child.stderr)}")
            return OpResult(op.name, child, status, problems, digests)
        problems = []
        want = self.expected.get(op.name)
        if want is not None and want != digests:
            problems.append("output differs from the recorded digests")
        if set(files) != set(op.outputs):
            problems.append(f"missing output files {sorted(set(op.outputs) - set(files))}")
        else:
            try:
                problems += op.check(stdout, files, self.companion)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        return OpResult(op.name, child, "wrong" if problems else "ok", problems, digests)

    def is_known_broken(self, name: str) -> bool:
        """True when the recording commit had no correct output for this op."""
        return name not in self.expected


def run_op(op, argv: list[str], work: Path, gate: Gate) -> OpResult:
    for name in op.outputs:
        (work / name).unlink(missing_ok=True)
    return gate.check(op, run_child(argv, work))


def run_round(wl: Workload, work: Path, gate: Gate) -> list[OpResult]:
    return [run_op(op, ddlab_argv(op.argv), work, gate) for op in wl.ops]


def round_wall(results: list[OpResult]) -> float:
    return sum(r.child.wall for r in results)


# --- traced rounds -----------------------------------------------------------

SELF_LAYERS = (
    "cli", "io.load_source", "io.write_gamma_csv", "exact.validate_constraints", "configs.gen_random",
    "energy.energy_report", "energy.distance_classes", "energy.energy", "reduction.build_family",
    "reduction.incidences_hash", "reduction.incidences_naive", "reduction.intersection_count",
    "oracles.oracle_quadruples", "oracles.oracle_incidences", "sweep.run_sweep", "bounds",
)
COUNTS = (
    ("io.load_source", "bytes"), ("io.write_gamma_csv", "bytes"), ("exact.validate_constraints", "calls"),
    ("configs.gen_random", "calls"), ("energy.energy_report", "pairs"), ("energy.energy_report", "classes"),
    ("reduction.build_family", "curves"), ("reduction.incidences_hash", "probes"),
    ("reduction.incidences_naive", "evals"), ("reduction.intersection_count", "calls"),
    ("reduction.intersection_count", "errors"), ("oracles.oracle_quadruples", "skipped"),
    ("oracles.oracle_incidences", "skipped"), ("sweep.run_sweep", "rows"), ("sweep.run_sweep", "rows_error"),
)


def layer_of(span_name: str) -> str:
    return "bounds" if span_name.startswith("bounds.") else span_name


def span_profile(spans: list[dict]) -> tuple[dict, dict, float, float]:
    """Per-layer self seconds, per-layer counts, run_sweep waiting, and self-sum error.

    Self time is a span's duration minus its direct children's durations;
    the spans of one command nest, so the self times sum to the root's.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    self_s: dict = {}
    counts: dict = {}
    wait = 0.0
    for span, inner in zip(spans, child_time):
        layer = layer_of(span["name"])
        self_s[layer] = self_s.get(layer, 0.0) + (span["end"] - span["start"] - inner)
        for key, value in span["counts"].items():
            counts[(layer, key)] = counts.get((layer, key), 0) + value
        if layer == "sweep.run_sweep":
            wait += (span["end"] - span["start"]) - span["cpu"]
    root = spans[0]
    error = abs(sum(self_s.values()) - (root["end"] - root["start"]))
    return self_s, counts, wait, error


def traced_round(wl: Workload, work: Path, gate: Gate) -> tuple[list[OpResult], dict]:
    spans_path = work / "spans.json"
    profile: dict = {"self": {}, "counts": {}, "wait": 0.0, "selfsum_error": 0.0}
    results = []
    for op in wl.ops:
        spans_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--", *op.argv]
        results.append(run_op(op, argv, work, gate))
        if not spans_path.exists():
            raise BenchError(f"traced {op.name} wrote no spans: {tail(results[-1].child.stderr)}")
        self_s, counts, wait, error = span_profile(load_json(spans_path))
        if self_s["cli"] < 0:
            raise BenchError(f"negative cli self time in traced {op.name}")
        for key, value in self_s.items():
            profile["self"][key] = profile["self"].get(key, 0.0) + value
        for key, value in counts.items():
            profile["counts"][key] = profile["counts"].get(key, 0) + value
        profile["wait"] += wait
        profile["selfsum_error"] = max(profile["selfsum_error"], error)
    return results, profile


def layer_metrics(
    profiles: list[dict], startups: list[float], traced_walls: list[float], plain_walls: list[float]
) -> dict:
    """Per-round medians of the traced rounds' layer figures."""

    def med(fn):
        return statistics.median(fn(p) for p in profiles)

    metrics = {
        "cli.startup_s": statistics.median(startups),
        "trace.overhead_ratio": statistics.median(traced_walls) / statistics.median(plain_walls),
        "sweep.run_sweep.wait_s": med(lambda p: p["wait"]),
    }
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = med(lambda p: p["self"].get(layer, 0.0))
    for layer, key in COUNTS:
        metrics[f"{layer}.{key}"] = med(lambda p: p["counts"].get((layer, key), 0))
    hits = med(lambda p: p["counts"].get(("reduction.incidences_hash", "hits"), 0))
    probes = metrics["reduction.incidences_hash.probes"]
    metrics["reduction.incidences_hash.hit_ratio"] = hits / probes if probes else 0.0
    return metrics


# --- driver ----------------------------------------------------------------------


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, int, int, bool]:
    index = seed % POOL
    wl = WORKLOADS[workload](index)
    expected = load_json(HERE / "expected.json")["digests"][workload].get(str(index), {})
    work = HERE / ".work" / f"{workload}-{os.getpid()}"
    try:
        setups = [set_up(wl, work) for _ in range(SETUPS)]
        gate = Gate(work, expected)
        rounds: list[list[OpResult]] = []
        traced: list[list[OpResult]] = []
        profiles: list[dict] = []
        startups: list[float] = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            rounds.append(run_round(wl, work, gate))
            if trace:
                version = run_child(ddlab_argv(["--version"]), work)
                if version.code != 0:
                    raise BenchError(f"ddlab --version exited {version.code}")
                startups.append(version.wall)
                results, profile = traced_round(wl, work, gate)
                traced.append(results)
                profiles.append(profile)
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = [r for rnd in rounds + traced for r in rnd]
    failed = [r for r in every if r.status != "ok"]
    correct = not any(r.status == "wrong" or not gate.is_known_broken(r.name) for r in failed)
    plain = [r for rnd in rounds for r in rnd]
    if trace:
        metrics = layer_metrics(
            profiles, startups, [round_wall(t) for t in traced], [round_wall(r) for r in rounds]
        )
    else:
        metrics = {
            "wall_s": statistics.median(round_wall(rnd) for rnd in rounds),
            "cpu_s": statistics.median(sum(r.child.cpu for r in rnd) for rnd in rounds),
            "op_p50_s": statistics.median(r.child.wall for r in plain),
            "peak_rss_mb": max(r.child.rss_mb for r in plain),
            "setup_s": statistics.median(setups),
            "pass_frac": (len(plain) - sum(r.status != "ok" for r in plain)) / len(plain),
        }
    details = {
        "workload": workload,
        "seed": seed,
        "pool_index": index,
        "input_gen_argv": {inp.name: list(inp.gen) for inp in wl.inputs if inp.gen},
        "op_argv": {op.name: list(op.argv) for op in wl.ops},
        "rounds": len(rounds),
        "op_samples": len(plain),
        "op_median_s": {
            op.name: statistics.median(r.child.wall for r in plain if r.name == op.name) for op in wl.ops
        },
        "setup_runs_s": setups,
        "failures": sorted({f"{r.name} [{r.status}]: {'; '.join(r.problems)}" for r in failed}),
    }
    if trace:
        details["traced_rounds"] = len(traced)
        details["max_selfsum_error_s"] = max(p["selfsum_error"] for p in profiles)
    return metrics, details, len(every), len(failed), correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ddlab" / "cli.py").is_file():
        sys.stderr.write(f"error: no ddlab sources at {SRC}; run from a full checkout\n")
        return 2
    spec = load_json(ROOT / "BENCHMARK.json")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        metrics, details, attempted, failed, correct = measure(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    mismatch = set(metrics) ^ {m["name"] for m in wanted}
    if mismatch:
        sys.stderr.write(f"error: computed metrics differ from BENCHMARK.json: {sorted(mismatch)}\n")
        return 1
    if args.trace and details["max_selfsum_error_s"] > 1e-6:
        sys.stderr.write("error: span self times do not sum to the traced wall time\n")
        return 1
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
