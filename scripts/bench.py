"""Record the benchmark as BENCH_<n>.json at the root of the repository.

    python scripts/bench.py 21

Runs ``perfbench/run.py --workload all --seed 1`` for BENCHMARK.json's
``run_seconds`` twice: with --trace 0 for the end-to-end metrics and with
--trace 1 for the per-layer metrics.  The file holds both results as the
runner prints them (per workload: correct, attempted, failed and every
metric with its unit), the host facts the runner logs on stderr
(interpreter, numpy, nproc, platform and the hash of the bellpoly
package) and the HEAD commit.
The working tree must be clean, so that the commit is the code that ran,
and nothing is written unless both runs exit 0, which the runner does only
when every answer of every workload checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HOST_PREFIX = "  environment: "
SEED = 1
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run_all(trace: int) -> tuple[dict, set[str]]:
    """The runner's result for every workload, and the host lines it logged."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench --trace {trace} exited with {proc.returncode}; nothing written")
    hosts = {line[len(HOST_PREFIX):] for line in proc.stderr.splitlines() if line.startswith(HOST_PREFIX)}
    return json.loads(proc.stdout.strip().splitlines()[-1]), hosts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("n", type=int, help="the number in the file name BENCH_<n>.json")
    args = parser.parse_args()
    dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True,
                           check=True).stdout
    if dirty:
        raise SystemExit(f"the working tree differs from HEAD; commit or stash first, nothing written\n{dirty}")
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                            check=True).stdout.strip()
    end_to_end, hosts = run_all(0)
    per_layer, traced_hosts = run_all(1)
    hosts |= traced_hosts
    if len(hosts) != 1:
        raise SystemExit(f"expected one host line from the runner, got {len(hosts)}; nothing written")
    record = {
        "commit": commit,
        "host": json.loads(hosts.pop()),
        "seed": SEED,
        "seconds": SECONDS,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
