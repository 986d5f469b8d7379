#!/usr/bin/env python3
"""colocal benchmark: seeded CLI jobs run in-process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/colocal``.  The jobs of the
workload (see ``workloads.py``) are written as JSON input files and fed one
at a time to ``colocal.cli.main`` in this process: one client, one thread.
Passes over the job list repeat until ``--seconds`` have been measured, and
at least three times.
The first pass is checked against the oracles, every later pass against the
first pass's output bytes.  Job latencies, and the pass times summed from
them, are corrected for the host's momentary speed (see ``CAL_REF_S``);
``setup_s`` and the per-layer seconds are raw.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans recorded around colocal's public functions (see
``tracer.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; earlier lines give
each job's output sha256 and latency.  Spans and per-job details are written
under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

# fresh interpreters timed for setup_s; the median is reported
SETUP_RUNS = 7
# per-job latency tail: the highest percentile with this many samples above
TAIL_BEYOND = 10
# timed passes per run at least, however long a pass takes, so that the
# medians and the tail always come from the same job classes
MIN_PASSES = 3

# Host-speed correction.  Shared hosts run the same code up to 1.6x slower
# for tens of seconds at a time, which swamps any bound worth having.  Every
# job latency is therefore scaled by CAL_REF_S over the time ``calibrate``
# took around it: it reads as it would on a host where that loop takes
# CAL_REF_S (about its median on the 2-vCPU host the benchmark was defined
# on).  A change to colocal moves the latency and not the loop, so it shows
# in full.
CAL_REF_S = 0.001

END_TO_END = [("setup_s", "s"), ("pass_s", "s"), ("job_p50_s", "s"),
              ("job_tail_s", "s"), ("peak_rss_mib", "MiB")]


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of exact-rational and container
    work, the best of three, with the collector off so that the program's
    heap does not enter."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = perf_counter()
            acc, seen = Fraction(0), {}
            for i in range(1, 200):
                acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(2, 3)
                key = (i % 97, i % 13)
                seen[key] = seen.get(key, 0) + 1
            best = min(best, perf_counter() - start)
        return best
    finally:
        if was_enabled:
            gc.enable()


def corrected(seconds: float, cal_before: float, cal_after: float) -> float:
    """A timing scaled to the reference host speed, by the mean of the
    calibrations taken just before and just after it."""
    return seconds * CAL_REF_S * 2 / (cal_before + cal_after)


def measure_setup(runs: int = SETUP_RUNS) -> float:
    """Median wall time from a fresh interpreter to ``colocal`` and
    ``colocal.cli`` imported.  One untimed run first writes bytecode.  Not
    corrected: the calibration in this process does not track the child's
    start-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import colocal, colocal.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(runs):
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def import_cli():
    sys.path.insert(0, str(SRC))
    import colocal.cli
    where = Path(colocal.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"colocal imported from {where}, not from {SRC}")
    return colocal.cli


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile that
    leaves TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), len(ordered)


class Bench:
    """Runs passes over one workload's jobs and keeps the failure count."""

    def __init__(self, jobs, cli, corrupt=None):
        self.jobs = jobs
        self.cli = cli                  # looked up per call: tracing rebinds it
        self.corrupt = corrupt          # self-test hook: (job, text) -> text
        self.inputs = []
        self.first = []                 # (exit code, sha256) per job
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def write_inputs(self, workdir: Path):
        indir = workdir / "inputs"
        indir.mkdir(parents=True, exist_ok=True)
        for job in self.jobs:
            path = indir / f"{job.name}.json"
            path.write_text(json.dumps(job.payload, sort_keys=True),
                            encoding="utf-8")
            self.inputs.append(str(path))

    def run_pass(self, span_tracer=None):
        """One pass; returns (wall seconds, per-job latencies, the same
        latencies corrected to the reference host speed)."""
        latencies, fixed, outputs = [], [], []
        start = perf_counter()
        cal = calibrate()
        for job, path in zip(self.jobs, self.inputs):
            if span_tracer is not None:
                span_tracer.job = job.name
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                t0 = perf_counter()
                try:
                    code = self.cli.main([job.subcommand, "--input", path])
                except SystemExit as exc:       # argparse usage error
                    code = exc.code
                except Exception:               # a crash is a failed job
                    code = None
                    buf.write(traceback.format_exc())
                t1 = perf_counter()
            cal_after = calibrate()
            latencies.append(t1 - t0)
            fixed.append(corrected(t1 - t0, cal, cal_after))
            cal = cal_after
            outputs.append((code, buf.getvalue()))
        wall = perf_counter() - start
        self._check(outputs)
        return wall, latencies, fixed

    def _check(self, outputs):
        first_pass = not self.first
        for k, (job, (code, text)) in enumerate(zip(self.jobs, outputs)):
            self.attempted += 1
            if first_pass and self.corrupt is not None:
                text = self.corrupt(job, text)
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if first_pass:
                self.first.append((code, digest))
                problems = verify(job, code, text)
            elif (code, digest) != self.first[k]:
                problems = ["output differs from the first pass"]
            else:
                problems = []
            if problems:
                self.failed += 1
                self.problems += [f"{job.name}: {p}" for p in problems]


def verify(job, code, text: str) -> list[str]:
    if code is None:
        return [f"crashed: {text.strip().splitlines()[-1]}"]
    if code != job.expect_code:
        return [f"exit code {code}, expected {job.expect_code}"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if job.expect_error is not None:
        name = (report.get("error") or {}).get("name")
        if name != job.expect_error:
            return [f"error {name!r}, expected {job.expect_error!r}"]
        return []
    try:
        return job.check(report) if job.check else []
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"oracle could not read the report: {exc!r}"]


def measure(bench: Bench, seconds: float) -> dict:
    """End-to-end timings, tracing off.  A pass counts as the sum of its
    corrected job latencies; the calibrations between jobs are left out."""
    walls, latencies, fixed = [], [], []
    start = perf_counter()
    while len(walls) < MIN_PASSES or perf_counter() - start < seconds:
        wall, lat, fix = bench.run_pass()
        walls.append(wall)
        latencies.append(lat)
        fixed.append(fix)
    flat = [x for fix in fixed for x in fix]
    tail_value, tail_pct, samples = tail(flat)
    return {"walls": walls, "latencies": latencies, "fixed": fixed,
            "pass_s": statistics.median(sum(fix) for fix in fixed),
            "raw_pass_s": statistics.median(sum(lat) for lat in latencies),
            "job_p50_s": statistics.median(flat),
            "job_tail_s": tail_value, "tail_pct": tail_pct,
            "samples": samples}


def measure_layers(bench: Bench, seconds: float, workdir: Path, tag: str):
    """Alternate untraced and traced passes, then one count-only pass."""
    bench.run_pass()                    # verified against the oracles
    plain, traced, tracers = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        plain.append(sum(bench.run_pass()[2]))
        span_tracer = tracer.Tracer()
        span_tracer.install()
        try:
            traced.append(sum(bench.run_pass(span_tracer)[2]))
        finally:
            span_tracer.uninstall()
        tracers.append(span_tracer)
    counter = tracer.DecodeCounter()
    counter.install()
    try:
        bench.run_pass()
    finally:
        counter.uninstall()

    values, repeat = tracer.layer_values(
        [tracer.aggregate(t.spans()) for t in tracers])
    values["statespace.decode_calls"] = counter.calls
    values["trace.overhead_ratio"] = (statistics.median(traced)
                                      / statistics.median(plain))
    with open(workdir / f"spans-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": tracer.Tracer.FIELDS,
                   "passes": [t.spans() for t in tracers]}, fh)
    return values, repeat


def run(workload: str, seed: int, seconds: float, trace: int,
        tiny: bool = False, corrupt=None) -> dict:
    """One benchmark run; returns the result object printed last."""
    if not (SRC / "colocal" / "__init__.py").is_file():
        raise SystemExit(f"no colocal sources under {SRC}")
    setup_s = measure_setup() if not trace else None
    jobs = workloads.build(workload, seed, tiny)
    cli = import_cli()
    tag = f"{workload}-{seed}-trace{trace}"
    workdir = WORK / tag
    bench = Bench(jobs, cli, corrupt)
    bench.write_inputs(workdir)

    if trace:
        values, repeat = measure_layers(bench, seconds, workdir, tag)
        units = dict((m, u) for m, u, _k, _f in tracer.LAYER_METRICS)
        units.update(tracer.EXTRA_METRICS)
        metrics = {m: {"value": values[m], "unit": units[m]} for m in units}
        print(f"counts repeat across traced passes: {repeat}")
    else:
        timing = measure(bench, seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"setup_s": setup_s, "pass_s": timing["pass_s"],
                  "job_p50_s": timing["job_p50_s"],
                  "job_tail_s": timing["job_tail_s"], "peak_rss_mib": rss}
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
        per_job = zip(zip(*timing["latencies"]), zip(*timing["fixed"]))
        for job, (lat, fix), (code, digest) in zip(jobs, per_job,
                                                   bench.first):
            print(f"job {job.name} exit={code} sha256={digest} "
                  f"median_s={statistics.median(fix):.4f} "
                  f"raw_median_s={statistics.median(lat):.4f}")
        print(f"passes={len(timing['walls'])} job_tail_s at "
              f"p{timing['tail_pct']:.1f} of {timing['samples']} samples; "
              f"uncorrected pass_s={timing['raw_pass_s']:.4f}")
        with open(workdir / "jobs.json", "w", encoding="utf-8") as fh:
            json.dump({"jobs": [j.name for j in jobs],
                       "first_pass": bench.first,
                       "pass_walls": timing["walls"],
                       "latencies": timing["latencies"],
                       "corrected": timing["fixed"],
                       "tail_percentile": timing["tail_pct"],
                       "samples": timing["samples"]}, fh, indent=1)
    for problem in bench.problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"fail_ratio={bench.failed / bench.attempted:.6f} "
          f"({bench.failed} of {bench.attempted} jobs)")
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
