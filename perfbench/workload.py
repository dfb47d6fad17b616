"""One round of one benchmark workload, run in a process of its own.

    python3 perfbench/workload.py WORKLOAD SEED OUT_DIR RECORD_JSON [--trace] [--setup-only]

Set-up is everything from process start to the first call into ddsids: the
interpreter, the imports and creating OUT_DIR (which must not exist).  The
round then makes its calls one after another in this process and writes a
JSON record: the clock readings at its first call into ddsids and after its
last output, its peak resident memory, one entry per operation, the rankings
it saw (for the output checks) and, with --trace, the per-layer metrics
derived from its spans.  `run.py` starts these processes and reads the
records.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ddsids import detector, evalcli, featsel, flowmeter, preprocess, simnet  # noqa: E402

import spans  # noqa: E402

MODULES = {"simnet": simnet, "flowmeter": flowmeter, "preprocess": preprocess,
           "featsel": featsel, "detector": detector, "evalcli": evalcli}

# reduced-k: the reduced-feature study at half desk scale.  A consensus
# ranking costs about as much at scale 0.5 as at 1, so the number of k values
# sets the length of the round; two are enough to show one ranking per k.
REDUCED_SCALE = 0.5
REDUCED_KS = (5, 20)
# cli-chain: univariate top-k selection and the experiment's epoch count.
CHAIN_TOP_K = 20
CHAIN_EPOCHS = 40
CHAIN_SPLIT = 0.5


class Operation:
    """Runs one call; a raised exception or a nonzero exit code is a failure."""

    def __init__(self):
        self.records: list[dict] = []

    def __call__(self, name: str, fn, *args):
        out, err = io.StringIO(), io.StringIO()
        record = {"name": name, "ok": False, "stdout": "", "stderr": "", "error": ""}
        result = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                result = fn(*args)
            record["ok"] = not (isinstance(result, int) and result != 0)
        except Exception as exc:  # the workload keeps going; the failure is counted
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["stdout"], record["stderr"] = out.getvalue(), err.getvalue()
        self.records.append(record)
        return result


def run_experiment(seed: int, out: Path, op: Operation) -> None:
    op("experiment", evalcli.main, ["experiment", "--seed", str(seed), "--out-dir", str(out)])


def run_reduced_k(seed: int, out: Path, op: Operation) -> None:
    plan = evalcli.ExperimentPlan(seed=seed, ip_mode="none", scale=REDUCED_SCALE)
    cache = op("build_cache", evalcli.build_cache, plan, out)
    if cache is None:
        return
    for k in REDUCED_KS:
        op(f"k{k}", evalcli.run_experiment, replace(plan, feature_k=k, model="experts"), out / f"k{k}", cache)


def run_cli_chain(seed: int, out: Path, op: Operation) -> None:
    s = str(seed)
    traces, flows, data, sel = out / "traces", out / "flows", out / "data", out / "select"
    full, topk = out / "model-full", out / f"model-top{CHAIN_TOP_K}"
    for scenario in simnet.SCENARIOS:
        op(f"simulate {scenario}", evalcli.main,
           ["simulate", "--scenario", scenario, "--seed", s, "--out-dir", str(traces)])
    for scenario in simnet.SCENARIOS:
        op(f"meter {scenario}", evalcli.main,
           ["meter", "--packets", str(traces / f"{scenario}.packets.csv"), "--out-dir", str(flows)])
    flow_args = [a for sc in simnet.SCENARIOS for a in ("--flows", f"{sc}={flows / f'{sc}.flows.csv'}")]
    op("preprocess", evalcli.main,
       ["preprocess", *flow_args, "--split", str(CHAIN_SPLIT), "--seed", s, "--out-dir", str(data)])
    op("select", evalcli.main,
       ["select", "--train", str(data / "train.csv"), "--method", "univariate", "--k", str(CHAIN_TOP_K),
        "--seed", s, "--out-dir", str(sel)])
    for train_csv, model_dir in ((data / "train.csv", full), (sel / f"train.top{CHAIN_TOP_K}.csv", topk)):
        op(f"train {model_dir.name}", evalcli.main,
           ["train", "--train", str(train_csv), "--epochs", str(CHAIN_EPOCHS), "--seed", s,
            "--out-dir", str(model_dir)])
    for model_dir in (full, topk):
        op(f"evaluate {model_dir.name}", evalcli.main,
           ["evaluate", "--model", str(model_dir / "model.txt"), "--test", str(data / "test.csv"),
            "--out-dir", str(model_dir)])


WORKLOADS = {"experiment": run_experiment, "reduced-k": run_reduced_k, "cli-chain": run_cli_chain}


class RankingTap:
    """Keeps every ranking the round computes, with the dataset it ranked."""

    def __init__(self):
        self.seen: list[tuple[str, object, object]] = []

    def install(self) -> None:
        for owner, name in [(featsel, r) for r in spans.RANKERS] + [(evalcli, "compute_ranking")]:
            setattr(owner, name, self._wrap(name, getattr(owner, name)))

    def _wrap(self, name: str, fn):
        def tapped(dataset, *args, **kwargs):
            ranking = fn(dataset, *args, **kwargs)
            self.seen.append((name, dataset, ranking))
            return ranking
        return tapped

    def dump(self, out: Path) -> list[dict]:
        """Writes each distinct ranked dataset once; returns the ranking records."""
        files: dict[int, str] = {}
        records = []
        for name, dataset, ranking in self.seen:
            if id(dataset) not in files:
                files[id(dataset)] = f"ranked-{len(files)}.npz"
                np.savez(out / files[id(dataset)], matrix=dataset.matrix,
                         labels=np.array(dataset.labels), names=np.array(dataset.feature_names))
            records.append({"function": name, "method": ranking.method, "dataset": files[id(dataset)],
                            "feature_names": list(dataset.feature_names),
                            "ranked_names": list(ranking.ranked_names), "scores": ranking.scores})
        return records


def main(argv: list[str]) -> int:
    workload, seed, out, record_path = argv[0], int(argv[1]), Path(argv[2]), Path(argv[3])
    traced, setup_only = "--trace" in argv[4:], "--setup-only" in argv[4:]
    out.mkdir(parents=True)
    tracer = spans.Tracer(MODULES, [Path(__file__)]) if traced else contextlib.nullcontext()
    tap = RankingTap()
    op = Operation()
    with tracer:
        tap.install()
        t_first = time.monotonic()
        if not setup_only:
            WORKLOADS[workload](seed, out, op)
        t_last = time.monotonic()
    record = {
        "t_first": t_first,
        "t_last": t_last,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "operations": op.records,
        "rankings": tap.dump(out),
    }
    if traced:
        record["layers"] = spans.layer_metrics(tracer.spans, t_last - t_first)
        record["layers"]["trace.overhead_s"] = tracer.bookkeeping_s
        (out / "spans.json").write_text(json.dumps([asdict(s) for s in tracer.spans]))
    record_path.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
