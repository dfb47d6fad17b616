"""The ddsids benchmark: one workload, one seed, timed, checked, one JSON line.

    python3 perfbench/run.py --workload experiment --seed 7 --seconds 10 --trace 0

Each round of a workload runs in a fresh process (`workload.py`), a closed
loop with one caller; rounds repeat until --seconds have passed, and at least
one runs.  Set-up is also sampled in SETUP_SAMPLES processes that stop at the
first call into ddsids.  After the rounds, `checks.py` verifies the last
round's outputs and that every round wrote the same reports.

--trace 0 reports the end-to-end metrics (medians over rounds):
  setup_s      process start to the first call into ddsids,
  run_s        first call into ddsids to the last output written,
  peak_rss_mb  peak resident memory of the round's process.
--trace 1 traces every round and reports the per-layer metrics (medians over
rounds), with trace.run_s, the traced rounds' run_s.  The last stdout line is
the result; the log goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("experiment", "reduced-k", "cli-chain")
SETUP_SAMPLES = 5
ROUND_TIMEOUT_S = 170


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def spawn(workload: str, seed: int, out: Path, traced: bool = False, setup_only: bool = False) -> dict:
    """Runs one round in a new process; returns its record plus its set-up time."""
    shutil.rmtree(out, ignore_errors=True)
    record_path = out.with_name(out.name + ".record.json")
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "workload.py"), workload, str(seed), str(out), str(record_path)]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} round exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(record_path.read_text())
    record["setup_s"] = record["t_first"] - started
    record["run_s"] = record["t_last"] - record["t_first"]
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[float]]:
    out = OUT / workload
    setups = [spawn(workload, seed, out, setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES)]
    rounds: list[dict] = []
    started = time.monotonic()
    while not rounds or time.monotonic() - started < seconds:
        record = spawn(workload, seed, out, traced=trace)
        record["digest"] = checks.report_digest(workload, out, record)
        rounds.append(record)
        failed = [o for o in record["operations"] if not o["ok"]]
        log(f"round {len(rounds)}{' traced' if trace else ''}: run_s {record['run_s']:.3f}, "
            f"{len(record['operations'])} operations, {len(failed)} failed")
        for o in failed:
            log(f"  failed: {o['name']}: {(o['error'] or o['stderr']).strip()}")
    return rounds, setups + [r["setup_s"] for r in rounds]


def verify(workload: str, seed: int, rounds: list[dict]) -> list[str]:
    inputs: list[str] = []
    problems = checks.CHECKS[workload](OUT / workload, seed, rounds[-1], checks.load_oracle(ROOT), inputs)
    for line in inputs:
        log(f"input: {line}")
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("rounds on the same seed wrote different reports")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/ddsids/evalcli.py", "tests/oracle_flow.py") if not (ROOT / p).is_file()]
    if missing:
        log(f"not a ddsids checkout, missing {', '.join(missing)}")
        return 2
    if args.seed < 0:
        log("--seed must be >= 0")
        return 2

    rounds, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    problems = verify(args.workload, args.seed, rounds)
    for p in problems:
        log(f"check failed: {p}")
    if args.trace:
        values = {n: statistics.median(r["layers"][n] for r in rounds) for n in rounds[0]["layers"]}
        values["trace.run_s"] = statistics.median(r["run_s"] for r in rounds)
        metrics = {n: {"value": v, "unit": unit_of(n)} for n, v in sorted(values.items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(r["run_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    ops = [o for r in rounds for o in r["operations"]]
    print(json.dumps({"correct": not problems, "attempted": len(ops),
                      "failed": sum(not o["ok"] for o in ops), "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("us_per_packet"):
        return "us"
    if metric.endswith("rankings_per_split"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
