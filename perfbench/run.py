#!/usr/bin/env python3
"""Repository benchmark: seeded `pwcet run` campaigns, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
`pwcet` CLI and the traced replay (perfbench/CMakeLists.txt) into
.bench_build/; later calls only bring that build up to date.

For the workload and seed it generates campaign spec JSON (the only input
the program receives) and sets up: spec generation, the resweep prefill
and the store-off reference run, three times (`setup_s` is their median;
a traced run sets up once). Then:

  --trace 0  runs `pwcet run` as a separate process, again and again, for
             S seconds, with the host speed probe (host_probe.cpp) in
             between, and reports the medians of the end-to-end metrics,
             times scaled to the reference host speed (see HostProbe);
  --trace 1  runs the traced in-process replay (perfbench_trace) once and
             reports its per-layer metrics.

Every report is checked (see check_report and the byte comparisons), and
the last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
perfbench/README.md documents the workloads and metrics.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNS = ROOT / ".bench_run"
PWCET = BUILD / "repo" / "pwcet"
TRACER = BUILD / "perfbench_trace"
PROBE = BUILD / "perfbench_probe"

SETUP_REPEATS = 3
MIN_SAMPLES = 5
CHILD_TIMEOUT_S = 120

# Median wall time of one perfbench_probe run, per thread count, on the
# host the stability record in README.md was made on (4 vCPUs, x86-64).
# Times are reported as measured x PROBE_REFERENCE_S / the run's median
# probe time: seconds at that host's speed. The host is shared and its
# speed drifts by 15% and more over minutes, so raw times of runs made a
# few minutes apart differ by more than any change worth catching.
PROBE_REFERENCE_S = {1: 0.037, 4: 0.052}
# Share of a run's measured time spent on probes, spread over the run.
PROBE_SHARE = 0.1

# Relative CPU cost (crc = 100) of one suite task (`pwcet list`) in each
# workload's spec shape, with pfails at the middle of their decades. Each
# entry is the median of three ratios to crc runs made right before and
# after the task's run (Release build, 4-core x86-64 host); ratios, since
# the host's speed drifts too much for absolute times to compare. The
# draws use them so that every seed asks for about the same work while the
# task mix changes: tasks are redrawn until their summed cost is within
# DRAW_TOLERANCE of the mean draw's. For the same reason a pfail stays
# within PFAIL_JITTER decades of the middle of its decade, since analysis
# cost depends on where in a decade pfail falls.
SWEEP_COST = {
    "adpcm": 161, "compress": 54, "cover": 100, "nsichneu": 460,
    "fibcall": 43, "bs": 49, "prime": 49, "expint": 404, "janne_complex": 327,
    "insertsort": 279, "crc": 102, "fir": 1140, "edn": 675, "fdct": 109,
    "jfdctint": 155, "ndes": 74, "bsort100": 333, "cnt": 398, "matmult": 1299,
    "fft": 585, "ludcmp": 1062, "minver": 134, "ns": 895, "statemate": 417,
    "ud": 889,
}
MBPTA_COST = {
    "adpcm": 320, "compress": 121, "cover": 90, "nsichneu": 28, "fibcall": 12,
    "bs": 6, "prime": 17, "expint": 124, "janne_complex": 103,
    "insertsort": 102, "crc": 100, "fir": 420, "edn": 143, "fdct": 33,
    "jfdctint": 37, "ndes": 27, "bsort100": 339, "cnt": 114, "matmult": 607,
    "fft": 152, "ludcmp": 320, "minver": 29, "ns": 491, "statemate": 162,
    "ud": 147,
}
COMPOSE_COST = {
    "adpcm": 128, "compress": 52, "cover": 91, "nsichneu": 94, "fibcall": 9,
    "bs": 6, "prime": 14, "expint": 158, "janne_complex": 139,
    "insertsort": 117, "crc": 101, "fir": 266, "edn": 128, "fdct": 47,
    "jfdctint": 63, "ndes": 40, "bsort100": 245, "cnt": 138, "matmult": 330,
    "fft": 150, "ludcmp": 227, "minver": 54, "ns": 262, "statemate": 179,
    "ud": 186,
}
# The same for resweep_disk: CPU time of the extended run of a one-task
# spec against its prefilled cache, pfails at the middles of their decades,
# over the same for crc; the median of seven ratios, each to crc runs made
# right before and after. Disk-tier loads make the cost of a task here
# unlike its cold cost in SWEEP_COST.
RESWEEP_COST = {
    "adpcm": 105, "compress": 42, "cover": 58, "nsichneu": 206,
    "fibcall": 35, "bs": 30, "prime": 35, "expint": 188, "janne_complex": 201,
    "insertsort": 139, "crc": 100, "fir": 207, "edn": 236, "fdct": 111,
    "jfdctint": 137, "ndes": 84, "bsort100": 169, "cnt": 185, "matmult": 201,
    "fft": 228, "ludcmp": 243, "minver": 131, "ns": 216, "statemate": 171,
    "ud": 221,
}
SUITE = sorted(SWEEP_COST)
KERNELS = ["interp", "dispatch", "ringbuf"]
# Suite tasks whose compose_cold-shaped run alone peaks above 18 MB RSS
# (the others stay within 14-18 MB). The peak of a compose run follows the
# largest task in it, so drawing these would make peak_rss_mb measure the
# draw instead of the program; compose_cold draws from the rest.
COMPOSE_LARGE = {"adpcm", "bsort100", "fir", "ludcmp", "matmult", "ns"}
# Tasks each workload draws. A run reports the median over its timed
# processes, and the host's slow spells last a second or two: shorter
# processes give more samples for the median to sort out. So mbpta_sim and
# compose_cold draw fewer tasks than sweep_cold, whose processes are short.
# sweep_cold draws 16: with 4 workers its wall depends on which analyzer
# group the schedule leaves for last, and more tasks shrink that group's
# share of the run.
SWEEP_TASKS = 16
RESWEEP_TASKS = 8
MBPTA_TASKS = 3
COMPOSE_TASKS = 2
DRAW_TOLERANCE = 0.03
PFAIL_JITTER = 0.2
# Decades of the pfails resweep_disk adds to its base grid.
EXTRA_PFAIL_DECADES = [-8, -5]

SWEEP_GEOMETRIES = [
    {"sets": 16, "ways": 4, "line_bytes": 16},
    {"sets": 32, "ways": 2, "line_bytes": 16},
    {"sets": 8, "ways": 4, "line_bytes": 32},
]
PAPER_GEOMETRY = {"sets": 16, "ways": 4, "line_bytes": 16}
MECHANISMS = ["none", "SRB", "RW"]

# name: `pwcet run --threads` of the timed runs. resweep_disk is not
# listed in BENCHMARK.json: on the shared host the others were tuned on,
# the time of one of its processes wanders by 15% within a run, and the
# host speed probe does not follow it, so the seed-to-seed spread of its
# wall_s came to 0.1-0.2, too close to the 25% bound to gate on.
WORKLOADS = {
    "sweep_cold": 4,
    "resweep_disk": 1,
    "mbpta_sim": 1,
    "compose_cold": 1,
}

# Report columns that hold results rather than the job's axis values.
RESULT_COLUMNS = {
    "seed", "wcet_ff", "pwcet", "observed_max", "penalty_mean",
    "penalty_points", "fetches", "srb_hits", "sim_misses", "bound_misses",
    "sim_misses_1", "bound_misses_1",
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failure)."""


# ---------------------------------------------------------------- inputs


def sig3(value):
    return float(f"{value:.3g}")


def decade_pfails(rng, decades):
    """One pfail in each decade [10^d, 10^(d+1)), near its middle."""
    return [sig3(10 ** (d + 0.5 + rng.uniform(-PFAIL_JITTER, PFAIL_JITTER)))
            for d in decades]


def balanced_draw(rng, pool, k, cost):
    """k distinct tasks whose summed cost is close to the mean draw's."""
    target = k * statistics.fmean(cost[t] for t in pool)
    tolerance = DRAW_TOLERANCE
    while True:
        for _ in range(10000):
            pick = rng.sample(pool, k)
            if abs(sum(cost[t] for t in pick) - target) <= tolerance * target:
                return pick
        tolerance *= 2


def sweep_spec(rng, tasks, cost):
    pfails = decade_pfails(rng, range(-9, -3))
    return {
        "name": "perfbench SPTA sweep",
        "tasks": balanced_draw(rng, SUITE, tasks, cost),
        "geometries": SWEEP_GEOMETRIES,
        "pfails": pfails,
        "mechanisms": MECHANISMS,
        "base_seed": rng.randrange(1, 2**31),
    }


def make_specs(workload, seed):
    """Spec dicts of a workload: {"main": ..., ["base": ...]}."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep_cold":
        return {"main": sweep_spec(rng, SWEEP_TASKS, SWEEP_COST)}
    if workload == "resweep_disk":
        base = sweep_spec(rng, RESWEEP_TASKS, RESWEEP_COST)
        pfails = list(base["pfails"])
        for decade in EXTRA_PFAIL_DECADES:
            p = pfails[0]
            while p in pfails:
                p = decade_pfails(rng, [decade])[0]
            pfails.append(p)
        return {"base": base, "main": dict(base, pfails=pfails)}
    if workload == "mbpta_sim":
        return {"main": {
            "name": "perfbench MBPTA vs SPTA",
            "tasks": balanced_draw(rng, SUITE, MBPTA_TASKS, MBPTA_COST),
            "geometries": [PAPER_GEOMETRY],
            "pfails": [1e-3],
            "mechanisms": ["none", "RW", "SRB"],
            "kinds": ["spta", "mbpta"],
            "mbpta": {"chips": 400, "block_size": 20},
            "base_seed": rng.randrange(1, 2**31),
        }}
    if workload == "compose_cold":
        dcache = {"sets": 8, "ways": 4, "line_bytes": 16}
        return {"main": {
            "name": "perfbench multi-domain composition",
            "tasks": KERNELS + balanced_draw(
                rng, [t for t in SUITE if t not in COMPOSE_LARGE],
                COMPOSE_TASKS, COMPOSE_COST),
            "geometries": [PAPER_GEOMETRY],
            "dcaches": [dcache, dict(dcache, policy="write_back",
                                     writeback_penalty=40)],
            "tlbs": [None, {"entries": 16, "ways": 2, "page_bytes": 64}],
            "l2s": [None, {"sets": 64, "ways": 4, "line_bytes": 32,
                           "hit_latency": 0, "miss_penalty": 80}],
            "pfails": decade_pfails(rng, [-9, -4]),
            "mechanisms": MECHANISMS,
            "dcache_mechanisms": ["same", "SRB"],
            "base_seed": rng.randrange(1, 2**31),
        }}
    raise BenchError(f"unknown workload {workload!r}")


def job_count(spec):
    n = 1
    for axis in ("tasks", "geometries", "pfails", "mechanisms"):
        n *= len(spec[axis])
    for axis in ("kinds", "dcaches", "tlbs", "l2s", "dcache_mechanisms"):
        n *= len(spec.get(axis, [None]))
    return n


# ----------------------------------------------------------------- build


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no pwcet sources under {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD.parent / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", str(BUILD), "--target", "pwcet_cli",
            "perfbench_trace", "perfbench_probe", "-j", jobs]
    for attempt in range(2):
        with open(log, "w") as out:
            ok = ((BUILD / "CMakeCache.txt").exists() or
                  subprocess.call(configure, stdout=out, stderr=out) == 0)
            ok = ok and subprocess.call(make, stdout=out, stderr=out) == 0
        if ok and all(p.is_file() for p in (PWCET, TRACER, PROBE)):
            return
        if attempt == 0:  # a stale or broken build tree: start over once
            shutil.rmtree(BUILD, ignore_errors=True)
            BUILD.mkdir(parents=True)
    sys.stderr.write(log.read_text()[-4000:])
    raise BenchError("build failed")


# --------------------------------------------------------------- running


def child_env():
    # The PWCET_* overrides would change what `pwcet run` computes.
    return {k: v for k, v in os.environ.items() if not k.startswith("PWCET_")}


def wait_child(proc):
    """Reaps a child with wait4, killing it after CHILD_TIMEOUT_S; returns
    (exit code, rusage)."""
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_pwcet(spec_path, out_base, threads, store=True, cache_dir=None):
    """One `pwcet run` process; returns (ok, wall_s, cpu_s, maxrss_kb)."""
    cmd = [str(PWCET), "run", str(spec_path), "--threads", str(threads),
           "--output", str(out_base)]
    if not store:
        cmd += ["--store", "off"]
    if cache_dir is not None:
        cmd += ["--cache-dir", str(cache_dir)]
    with open(f"{out_base}.log", "w") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=log, env=child_env())
        code, usage = wait_child(proc)
        wall = time.perf_counter() - started
    return code == 0, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


class HostProbe:
    """Runs perfbench_probe with a workload's thread count, as often as
    keeps its time at PROBE_SHARE of the time measured so far."""

    def __init__(self, threads):
        self.threads = threads
        self.times = []
        self.checksum = None

    def once(self):
        out = subprocess.run([str(PROBE), "--threads", str(self.threads)],
                             capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
        fields = out.stdout.split()
        if out.returncode != 0 or len(fields) != 2:
            raise BenchError(f"perfbench_probe failed: {out.stderr[-500:]}")
        if self.checksum is None:
            self.checksum = fields[1]
        elif fields[1] != self.checksum:
            raise BenchError("perfbench_probe checksum changed")
        self.times.append(float(fields[0]))

    def keep_up(self, measured_s):
        while not self.times or sum(self.times) < PROBE_SHARE * measured_s:
            self.once()

    def scale(self):
        """Factor from this host's speed now to the reference host's."""
        return (PROBE_REFERENCE_S[self.threads] /
                statistics.median(self.times))


def report_bytes(out_base):
    try:
        return (Path(f"{out_base}.csv").read_bytes() +
                b"\0" + Path(f"{out_base}.jsonl").read_bytes())
    except OSError:
        return None


def tree_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


# ---------------------------------------------------------------- checks


def check_report(jsonl, expected_rows):
    """Paper invariants on one report; returns a list of problems."""
    try:
        rows = [json.loads(line) for line in jsonl.splitlines()]
    except ValueError as error:
        return [f"unreadable report: {error}"]
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} report rows, expected {expected_rows}")

    def cell(row, drop):
        return tuple((k, v) for k, v in row.items()
                     if k not in RESULT_COLUMNS and k not in drop)

    curves, spta = {}, {}
    for row in rows:
        if row["kind"] != "spta":
            continue
        if row["pwcet"] < row["wcet_ff"]:
            problems.append(f"pWCET below the fault-free WCET: {row}")
        curves.setdefault(cell(row, {"pfail"}), []).append(
            (row["pfail"], row["pwcet"]))
        spta[cell(row, {"kind"})] = row["pwcet"]
    for key, points in curves.items():
        points.sort()
        for (p0, w0), (p1, w1) in zip(points, points[1:]):
            if w1 < w0:
                problems.append(
                    f"pWCET falls from {w0} to {w1} as pfail rises from "
                    f"{p0} to {p1}: {dict(key)}")
    for row in rows:
        if row["kind"] != "mbpta":
            continue
        static = spta.get(cell(row, {"kind"}))
        if static is None:
            problems.append(f"no SPTA cell for MBPTA row {row}")
        elif static < row["observed_max"]:
            problems.append(
                f"SPTA pWCET {static} below the MBPTA observed maximum "
                f"{row['observed_max']}: {row}")
    return problems


# ----------------------------------------------------------------- setup


class Setup:
    """Spec files, the resweep prefill and the reference report."""

    def __init__(self, workload, seed, work, probe=None):
        self.workload = workload
        self.probe = probe
        self.seed = seed
        self.threads = WORKLOADS[workload]
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.times = []
        self.reference = None
        self.prefill = None

    def once(self, rep):
        started = time.perf_counter()
        specs = make_specs(self.workload, self.seed)
        paths = {}
        for role, spec in specs.items():
            paths[role] = self.work / f"{role}.json"
            paths[role].write_text(json.dumps(spec, indent=1) + "\n")
        self.spec_path = paths["main"]
        self.jobs = job_count(specs["main"])
        if "base" in paths:
            prefill = self.work / f"prefill{rep}"
            shutil.rmtree(prefill, ignore_errors=True)
            self.expect(run_pwcet(paths["base"], self.work / f"base{rep}", 1,
                                  cache_dir=prefill)[0], "prefill run failed")
            if self.prefill is not None:
                shutil.rmtree(self.prefill)
            self.prefill = prefill
        # The reference: a cold run with the store off on one worker.
        ref = self.work / f"ref{rep}"
        ok = run_pwcet(self.spec_path, ref, 1, store=False)[0]
        self.times.append(time.perf_counter() - started)
        got = report_bytes(ref) if ok else None
        self.expect(got is not None, "reference run failed")
        if got is not None and self.reference is None:
            self.reference = got
            violations = check_report(Path(f"{ref}.jsonl").read_text(),
                                      self.jobs)
            self.expect(not violations, f"{len(violations)} invariant "
                        f"violations: {'; '.join(violations[:5])}")
        elif got is not None:
            self.expect(got == self.reference,
                        "reference report bytes differ between set-ups")

    def run(self, repeats):
        for rep in range(repeats):
            self.once(rep)
            if self.probe is not None:
                self.probe.keep_up(sum(self.times))

    def expect(self, ok, problem):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


# ---------------------------------------------------------- measurements


def measure(setup, probe, seconds):
    """Timed `pwcet run` processes for `seconds`, with host probes in
    between; per-sample metrics."""
    samples = []
    measured = sum(setup.times)
    work = setup.work
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_SAMPLES or time.perf_counter() < deadline:
        i = len(samples)
        out = work / f"run{i}"
        cache = None
        if setup.prefill is not None:
            cache = work / "cache"
            shutil.rmtree(cache, ignore_errors=True)
            shutil.copytree(setup.prefill, cache)
            before = tree_bytes(cache)
        ok, wall, cpu, rss_kb = run_pwcet(setup.spec_path, out,
                                          setup.threads, cache_dir=cache)
        written = tree_bytes(cache) - before if cache is not None else 0
        got = report_bytes(out)
        setup.expect(ok and got is not None and got == setup.reference,
                     f"timed run {i}: exit or report bytes differ from the "
                     "store-off reference")
        for suffix in (".csv", ".jsonl", ".log"):
            Path(f"{out}{suffix}").unlink(missing_ok=True)
        samples.append({"wall_s": wall, "cpu_s": cpu,
                        "peak_rss_mb": rss_kb / 1024.0,
                        "disk_bytes_written": float(written)})
        measured += wall
        probe.keep_up(measured)
    return samples


def traced(setup):
    """One traced replay; returns the per-layer metrics."""
    work = setup.work
    out = work / "trace"
    cmd = [str(TRACER), "--spec", str(setup.spec_path), "--threads",
           str(setup.threads), "--out", str(out)]
    cache = None
    if setup.prefill is not None:
        cache = work / "cache"
        shutil.copytree(setup.prefill, cache)
        before = tree_bytes(cache)
        cmd += ["--cache-dir", str(cache), "--prefilled", str(setup.prefill)]
    with open(work / "trace.log", "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=log, env=child_env())
        code, _ = wait_child(proc)
    setup.expect(code == 0, f"perfbench_trace exited with {code}: " +
                 (work / "trace.log").read_text()[-2000:])
    if code != 0:
        return {}
    metrics = json.loads((out / "metrics.json").read_text())
    metrics["disk_bytes_written"] = (
        float(tree_bytes(cache) - before) if cache is not None else 0.0)
    shutil.rmtree(out / "artifacts", ignore_errors=True)

    setup.expect(report_bytes(out / "report") == setup.reference,
                 "in-process run_campaign report differs from the CLI's")
    for name in ("replay.penalty_mismatches", "replay.mbpta_mismatches",
                 "replay.artifact_failures"):
        setup.expect(metrics[name] == 0, f"{name} = {metrics[name]}")
    reference = [json.loads(line) for line in
                 setup.reference.split(b"\0")[1].decode().splitlines()]
    replayed = [json.loads(line) for line in
                (out / "replay.jsonl").read_text().splitlines()]
    setup.expect(len(replayed) == len(reference), "replay row count differs")
    for row, rep in zip(reference, replayed):
        field = "pwcet" if row["kind"] == "spta" else "observed_max"
        setup.expect(row[field] == rep[field],
                     f"replay {field} {rep[field]} != report {row[field]} "
                     f"for job {rep['index']}")
    return metrics


# ------------------------------------------------------------------ main


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    work = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        probe = None if args.trace else HostProbe(WORKLOADS[args.workload])
        setup = Setup(args.workload, args.seed, work, probe)
        setup.run(1 if args.trace else SETUP_REPEATS)
        if args.trace:
            layer = traced(setup)
            kept = RUNS / f"trace-{args.workload}-{args.seed}"
            shutil.rmtree(kept, ignore_errors=True)
            if (work / "trace").is_dir():
                shutil.move(str(work / "trace"), str(kept))
                print(f"{args.workload} spans and replay values: {kept}")
            metrics = {}
            for metric in json.loads(
                    (ROOT / "BENCHMARK.json").read_text())["per_layer"]:
                name = metric["name"]
                setup.expect(not layer or name in layer,
                             f"the traced run reports no {name}")
                metrics[name] = (float(layer.get(name, 0.0)), metric["unit"])
            for name, (value, unit) in metrics.items():
                print(f"{args.workload} {name} = {value:.6g} {unit}")
        else:
            samples = measure(setup, probe, args.seconds)
            med = {k: statistics.median(s[k] for s in samples)
                   for k in samples[0]}
            scale = probe.scale()
            wall = med["wall_s"] * scale
            metrics = {
                "setup_s": (statistics.median(setup.times) * scale, "s"),
                "wall_s": (wall, "s"),
                "jobs_per_s": (setup.jobs / wall, "1/s"),
                "cpu_s": (med["cpu_s"] * scale, "s"),
                "peak_rss_mb": (med["peak_rss_mb"], "MB"),
            }
            walls = sorted(s["wall_s"] for s in samples)
            print(f"{args.workload} seed {args.seed}: {setup.jobs} jobs, "
                  f"{setup.threads} worker(s), {len(samples)} timed runs, "
                  f"wall min/median/max {walls[0]:.4f}/{med['wall_s']:.4f}/"
                  f"{walls[-1]:.4f} s as measured; "
                  f"{len(probe.times)} probes, median "
                  f"{statistics.median(probe.times):.4f} s, "
                  f"times scaled by {scale:.4f}")
            shown = dict(metrics)
            shown["disk_bytes_written"] = (med["disk_bytes_written"], "bytes")
            shown["fail_ratio"] = (setup.failed / setup.attempted, "ratio")
            for name, (value, unit) in shown.items():
                print(f"{args.workload} {name} = {value:.6g} {unit}")
        for problem in setup.problems[:20]:
            print(f"{args.workload} CHECK FAILED: {problem}")
        print(result_line(setup.failed == 0, setup.attempted, setup.failed,
                          metrics))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    try:
        main()
    except BenchError as error:
        sys.stderr.write(f"perfbench: {error}\n")
        sys.exit(1)
