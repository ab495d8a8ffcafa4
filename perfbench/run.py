"""Benchmark runner for bellpoly.

    python3 perfbench/run.py --workload catalog-corr --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

Runs one workload in this process with one closed-loop client and no
threads: each job starts when the previous one has finished.  Jobs call
bellpoly's public surface in-process (``cli.main`` with stdout captured,
or the library facet pipeline).  The runner goes round the workload's
fixed job list, at least once, until --seconds have passed.  The first
output of each job is checked outside the timed region; every later
repeat must give the same sha256, and so must earlier runs of the same
job on the same input in this checkout.

The machine this was made on changes speed by up to 2x for seconds to
minutes at a time, and not by the same factor for every kind of work.  So
a run times the speed probes in PROBES, fixed pieces of benchmark code,
before the first job and after every job, and scales each job's latency
by the reference time of the probes named by the job (the kind of work it
mostly does) over their mean time on either side of it: latencies are
seconds at the speed at which every probe takes its reference time.  A
job's latency is the median of its scaled repeats.  README.md gives the
measurements behind this.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
reports the per-layer metrics: every repeat runs with bellpoly's coarse
entry points wrapped by ``spans.Tracer``, and the layer times are the
scaled self times of each job's median repeat.  Every repeat of a job must give
the same counters, and so must earlier traced runs of the same job on the
same input by the same bellpoly code (a hash of the package's files).
The tracing overhead is the wrapper cost measured on a no-op times the
number of spans.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A readable summary goes to stderr, and the
full record (environment, latencies, spans) to .perfbench-work/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SETUP_SAMPLES = 5
# Reference time of each speed probe: about its median on the machine the
# baseline in README.md was measured on.  It only sets the scale of the
# reported times.
REFERENCE_PROBE_S = {"rational": 0.008, "int64": 0.005}

# per-layer time metric -> span name whose self time it reports
LAYER_TIMES = {
    "lp.s": "lp",
    "facets.dd_s": "facets.dd",
    "facets.trivial_s": "facets.trivial",
    "facets.saturation_s": "facets.saturation",
    "symmetry.label_s": "symmetry.label",
    "symmetry.equivalent_s": "symmetry.equivalent",
    "membership.self_s": "membership",
    "linalg.rank_s": "linalg.rank",
    "linalg.elim_s": "linalg.elim",
    "cglmp.verify_s": "cglmp.verify",
    "cglmp.tightness_s": "cglmp.tightness",
    "cglmp.witness_s": "cglmp.witness",
    "scenario.s": "scenario",
    "correlators.s": "correlators",
    "cli.self_s": "cli",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def rational_probe() -> None:
    """A fixed sum of rational products: allocation-heavy big-integer work
    like bellpoly's exact LP, double description and pure-Python loops."""
    total = Fraction(0)
    for i in range(1, 1000):
        total += Fraction(i % 97 + 1, i % 89 + 1) * Fraction(i % 13 + 1, i % 7 + 1)


_INT64_BASE = None


def int64_probe() -> None:
    """Six steps of fraction-free numpy int64 elimination on a fixed
    1200 x 48 matrix, like bellpoly's rank kernel."""
    import numpy

    global _INT64_BASE
    if _INT64_BASE is None:
        _INT64_BASE = (numpy.arange(1200 * 48, dtype=numpy.int64).reshape(1200, 48) * 7919) % 7 - 3
    a = _INT64_BASE.copy()
    for c in range(6):
        piv = int(a[c, c]) or 1
        a[c + 1:] = a[c + 1:] * piv - numpy.outer(a[c + 1:, c], a[c])
        g = numpy.gcd.reduce(numpy.abs(a[c + 1:]), axis=1)
        g[g == 0] = 1
        a[c + 1:] //= g[:, None]


PROBES = {"rational": rational_probe, "int64": int64_probe}


def speed_probes(names) -> dict[str, float]:
    """Seconds each named probe takes.  The garbage left by the previous job
    is collected first, so that neither the probes nor the next job pay
    for it."""
    times = {}
    for name in names:
        gc.collect()
        t0 = time.perf_counter()
        PROBES[name]()
        times[name] = time.perf_counter() - t0
    return times


def scale_factor(names, before: dict[str, float], after: dict[str, float]) -> float:
    """Reference time over measured time of the named probes, measured as
    the mean of the probes before and after."""
    reference = sum(REFERENCE_PROBE_S[n] for n in names)
    return 2 * reference / sum(before[n] + after[n] for n in names)


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_implementation() + " " + platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "BELLPOLY_PURE": os.environ.get("BELLPOLY_PURE"),
        "platform": platform.platform(),
    }


def code_hash() -> str:
    """sha256 over the relative paths and contents of the bellpoly package."""
    h = hashlib.sha256()
    for path in sorted(p for p in (SRC / "bellpoly").rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BELLPOLY_PURE", None)
    return env


class State:
    """Output digests and counters from earlier runs in this checkout.

    Digests are keyed by job and input, since stdout is meant to stay
    byte-identical across versions; counters also by the code hash, since
    a change to bellpoly may rightly change how much work it does.
    """

    def __init__(self, path: Path):
        self.path = path
        self.data = json.loads(path.read_text()) if path.exists() else {"digests": {}, "counters": {}}

    def remember(self, table: str, key: str, value):
        """Store value under key; False if an earlier run stored another value."""
        old = self.data[table].setdefault(key, value)
        return old == value

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, sort_keys=True))
        os.replace(tmp, self.path)


def measure_setup(args) -> list[float]:
    """Wall time of fresh processes that import bellpoly and write this
    workload's inputs, which is everything before the first timed job,
    scaled like a job's latency by the rational probes the process runs
    itself before and after that work (their time is taken out)."""
    samples = []
    for i in range(SETUP_SAMPLES):
        probe_dir = WORK / "probe" / f"{args.workload}-{args.seed}-{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(probe_dir)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        before, after = json.loads(proc.stdout.splitlines()[-1])
        elapsed -= before["rational"] + after["rational"]
        samples.append(elapsed * scale_factor(["rational"], before, after))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return samples


def build(workload: str, seed: int, workdir: Path):
    import workloads

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workloads.BUILDERS[workload](seed, workdir, ROOT)


class Rounds:
    """Every timed execution of a workload's jobs in one run."""

    def __init__(self, jobs: int):
        self.jobs = jobs
        # (job index, scaled latency or None if the repeat failed, scale factor)
        self.runs: list[tuple[int, float | None, float]] = []
        # speed_probes before the first job and after each job
        self.probes: list[dict[str, float]] = []
        self.digests: dict[int, str] = {}  # job index -> sha256 of its checked output

    @property
    def failed(self) -> int:
        return sum(latency is None for _, latency, _ in self.runs)

    def median_runs(self) -> dict[int, int]:
        """Job index -> position in runs of its median passing repeat
        (the lower one of the middle two when there is an even number)."""
        passing: dict[int, list[int]] = {}
        for pos, (index, latency, _) in enumerate(self.runs):
            if latency is not None:
                passing.setdefault(index, []).append(pos)
        out = {}
        for index, positions in passing.items():
            positions.sort(key=lambda pos: self.runs[pos][1])
            out[index] = positions[(len(positions) - 1) // 2]
        return out

    def latencies(self) -> list[float]:
        """Median scaled latency of each job, in job order."""
        by_job: dict[int, list[float]] = {}
        for index, latency, _ in self.runs:
            if latency is not None:
                by_job.setdefault(index, []).append(latency)
        return [statistics.median(by_job[i]) for i in sorted(by_job)]

    def repeats(self) -> str:
        counts = [sum(index == i for index, _, _ in self.runs) for i in range(self.jobs)]
        return f"{min(counts)}-{max(counts)} repeats of each of {self.jobs} jobs"


def job_key(wl, job) -> str:
    key = f"{wl.name}|{job.name}"
    if job.input_file is not None:
        key += "|" + sha256(job.input_file.read_bytes())
    return key


def run_rounds(wl, seconds: float, state: State, tracer=None) -> Rounds:
    """Go round the job list, at least once, until seconds have passed.
    With a tracer, the tracer's job id of a repeat is its position in runs."""
    import workloads

    res = Rounds(len(wl.jobs))
    keys = [job_key(wl, job) for job in wl.jobs]
    probes = sorted({name for job in wl.jobs for name in job.probes})
    res.probes.append(speed_probes(probes))
    start = time.perf_counter()
    n = 0
    while n < len(wl.jobs) or time.perf_counter() - start < seconds:
        index = n % len(wl.jobs)
        job = wl.jobs[index]
        n += 1
        problem = None
        try:
            if tracer is None:
                t0 = time.perf_counter()
                rc, out = job.run()
                latency = time.perf_counter() - t0
            else:
                tracer.job = len(res.runs)
                t0 = time.perf_counter()
                with tracer.span(job.span):
                    rc, out = job.run()
                latency = time.perf_counter() - t0
            if rc != 0:
                problem = f"exit code {rc}"
            else:
                text = job.text(out).encode()
                digest = sha256(text)
                if tracer is not None and job.span == "cli":
                    tracer.counts[tracer.job]["cli.stdout_bytes"] += len(text)
                if index not in res.digests:
                    job.check(out)
                    res.digests[index] = digest
                    if not state.remember("digests", keys[index], digest):
                        problem = "stdout sha256 differs from an earlier run of the same job"
                elif digest != res.digests[index]:
                    problem = "stdout sha256 differs from an earlier repeat in this run"
        except workloads.CheckError as exc:
            problem = f"check failed: {exc}"
        except Exception:  # a crash in one job is that job's failure
            problem = "raised:\n" + traceback.format_exc()
        res.probes.append(speed_probes(probes))
        scale = scale_factor(job.probes, res.probes[-2], res.probes[-1])
        if problem is not None:
            log(f"FAILED {wl.name} job {index} ({job.name}): {problem}")
        res.runs.append((index, None if problem else latency * scale, scale))
    return res


def untraced_metrics(wl, seconds, state, setup_samples):
    res = run_rounds(wl, seconds, state)
    lat = res.latencies()
    wall = sum(lat)
    attempted = len(res.runs)
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1 - res.failed / attempted,
        "query_p50_s": percentile(lat, 50),
        "query_p90_s": percentile(lat, 90),
        "queries_per_s": len(lat) / wall,
    }
    repeats = res.repeats()
    samples = {
        "setup_s": f"median of {len(setup_samples)} processes, scaled",
        "wall_s": f"sum of median scaled latencies; {repeats}",
        "query_p50_s": f"over {len(lat)} jobs' median scaled latencies; {repeats}",
        "query_p90_s": f"over {len(lat)} jobs' median scaled latencies; {repeats}",
        "queries_per_s": f"{len(lat)} jobs / wall_s",
    }
    record = {
        "setup_samples_s": setup_samples,
        "runs": res.runs,
        "probes_s": res.probes,
        "failed_ratio": res.failed / attempted,
    }
    correct = len(lat) == len(wl.jobs)
    return values, attempted, res.failed, correct, samples, record


def traced_metrics(wl, seconds, state, code):
    from spans import Tracer, wrapper_cost

    # One untraced round first fills the program's caches (standard_equations
    # is memoised), so that every traced repeat of a job does the same work.
    warm = run_rounds(wl, 0, state)
    tracer = Tracer()
    tracer.install()
    try:
        res = run_rounds(wl, seconds, state, tracer)
    finally:
        tracer.remove()
    attempted = len(warm.runs) + len(res.runs)
    failed = warm.failed + res.failed
    per_run = tracer.job_counters()
    best = res.median_runs()
    repeatable = len(best) == len(wl.jobs)
    for pos, (index, latency, _) in enumerate(res.runs):
        if latency is not None and per_run.get(pos, {}) != per_run.get(best[index], {}):
            log(f"counters of job {index} differ between its repeats: {per_run.get(pos)} and {per_run.get(best[index])}")
            repeatable = False
    for index, pos in best.items():
        key = f"{code}|{job_key(wl, wl.jobs[index])}"
        if not state.remember("counters", key, per_run.get(pos, {})):
            log(f"counters of job {index} ({key}) differ from an earlier traced run of the same code")
            repeatable = False
    counters: dict[str, int] = {}
    selfs: dict[str, float] = {}
    run_selfs = tracer.self_times()
    for pos in best.values():
        for name, n in per_run.get(pos, {}).items():
            counters[name] = counters.get(name, 0) + n
        for name, t in run_selfs.get(pos, {}).items():
            selfs[name] = selfs.get(name, 0.0) + t * res.runs[pos][2]
    spans = sum(n for name, n in counters.items() if name.startswith("spans."))
    wall = sum(res.latencies())

    span_cost = wrapper_cost()
    values = {}
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        if name in LAYER_TIMES:
            values[name] = selfs.get(LAYER_TIMES[name], 0.0)
        elif name == "trace.wall_s":
            values[name] = wall
        elif name == "trace.overhead_s":
            values[name] = span_cost * spans
        elif name == "trace.spans":
            values[name] = spans
        else:
            values[name] = counters.get(name, 0)
    samples = {name: "scaled self time in the median repeat of each job" for name in LAYER_TIMES}
    samples["trace.wall_s"] = f"sum of median scaled latencies; {res.repeats()}"
    samples["trace.overhead_s"] = f"{span_cost * 1e6:.3f} us per span x {spans} spans"
    record = {
        "wrapper_cost_per_span_s": span_cost,
        "counters": counters,
        "layer_share_of_traced_wall": {name: selfs.get(span, 0.0) / wall for name, span in LAYER_TIMES.items()},
        "jobs": [job.name for job in wl.jobs],
        "runs": res.runs,
        "probes_s": res.probes,
        "spans": [list(span) for span in tracer.spans],
    }
    return values, attempted, failed, repeatable, samples, record


def run_workload(args) -> int:
    setup_samples = None if args.trace else measure_setup(args)
    import bellpoly

    if Path(bellpoly.__file__).resolve().parent != (SRC / "bellpoly").resolve():
        raise RuntimeError(f"imported bellpoly from {bellpoly.__file__}, not from {SRC}")
    env = environment()
    code = env["bellpoly_sha256"] = code_hash()
    wl = build(args.workload, args.seed, WORK / f"{args.workload}-{args.seed}")
    state = State(WORK / "state.json")
    try:
        if args.trace:
            values, attempted, failed, repeatable, samples, record = traced_metrics(wl, args.seconds, state, code)
        else:
            values, attempted, failed, repeatable, samples, record = untraced_metrics(
                wl, args.seconds, state, setup_samples)
    finally:
        state.save()
    specs = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    correct = failed == 0 and repeatable
    log(f"{args.workload} seed={args.seed} trace={args.trace}: attempted {attempted}, "
        f"failed {failed} (failed_ratio {failed / attempted:.4f}), correct {correct}")
    log("  environment: " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        note = f"  ({samples[name]})" if name in samples else ""
        log(f"  {name:28s} {m['value']:>14.6g} {m['unit']}{note}")
    out = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "environment": env,
                               "metrics": metrics, "attempted": attempted, "failed": failed,
                               "correct": correct, **record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, then one table of every metric."""
    rows, results = [], {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            log(f"{name}: runner exited with {proc.returncode} and no result")
            return 2
        result = results[name] = json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            rows.append(f"{name:16s} {metric:28s} {m['value']:>14.6g} {m['unit']}")
        rows.append(f"{name:16s} {'failed_ratio':28s} {result['failed'] / result['attempted']:>14.6g} ratio")
    log("\n".join(rows))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "bellpoly" / "__init__.py").is_file():
        log(f"error: no bellpoly sources at {SRC / 'bellpoly'}; run from a bellpoly checkout")
        return 2
    os.environ.pop("BELLPOLY_PURE", None)
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.setup_probe:
        # The probes run where the set-up runs: a fresh process can get
        # another speed than the one that started it.
        before = speed_probes(["rational"])
        build(args.workload, args.seed, Path(args.setup_probe))
        print(json.dumps([before, speed_probes(["rational"])]))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
