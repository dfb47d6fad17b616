"""Spans around the calls that cross from one ddsids module into another.

`Tracer` replaces, for the life of a `with` block, every public function of
the six modules that code outside its module refers to as `module.name`
(found by scanning the package sources and the benchmark's workload code),
plus the public methods of `preprocess.Dataset`.  A call into a module from
outside it records a span: module, function, start, end, the span it was
called from, and a few counts read from its arguments or result.  A call
from a module into itself records nothing, so a span covers the module's own
work plus the spans of the modules it calls.  Spans stay in memory;
`layer_metrics` derives the per-layer self times and counts from them.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

MODULES = ("simnet", "flowmeter", "preprocess", "featsel", "detector", "evalcli")
DATASET_METHODS = ("subset", "project", "binary_labels", "class_counts", "denormalize")
CLI_VERBS = ("simulate", "meter", "preprocess", "select", "train", "evaluate")
RANKERS = ("rank_lasso", "rank_rfe", "rank_univariate", "rank_importance")

# Per-layer time metrics: the summed self time of the listed functions.
FUNCTION_TIMES = {
    "simnet.generate_s": ("simnet", ("generate",)),
    "simnet.write_packet_csv_s": ("simnet", ("write_packet_csv",)),
    "simnet.read_packet_csv_s": ("simnet", ("read_packet_csv",)),
    "flowmeter.meter_s": ("flowmeter", ("meter",)),
    "flowmeter.write_flow_csv_s": ("flowmeter", ("write_flow_csv",)),
    "flowmeter.read_flow_csv_s": ("flowmeter", ("read_flow_csv",)),
    "preprocess.prepare_s": ("preprocess", ("label", "strip_router_flows", "encode_timestamps", "encode_ips")),
    "preprocess.build_dataset_s": (
        "preprocess",
        ("split_flows", "anonymize", "build_dataset_from_split", "build_dataset", "Dataset.project", "Dataset.subset"),
    ),
    "preprocess.write_dataset_csv_s": ("preprocess", ("write_dataset_csv",)),
    "preprocess.read_dataset_csv_s": ("preprocess", ("read_dataset_csv",)),
    **{f"featsel.{name}_s": ("featsel", (name,)) for name in RANKERS},
    "detector.train_s": ("detector", ("train",)),
    "detector.predict_s": ("detector", ("predict", "classify", "adjudicate")),
    "detector.save_model_s": ("detector", ("save_model",)),
    "detector.load_model_s": ("detector", ("load_model",)),
}


def _fingerprint(dataset) -> str:
    digest = hashlib.blake2b(digest_size=12)
    digest.update(dataset.matrix.tobytes())
    digest.update("\0".join(dataset.feature_names).encode())
    digest.update("\0".join(dataset.labels).encode())
    return digest.hexdigest()


def _dataset_rows(args, result):
    train, test = result
    return {"train_rows": train.matrix.shape[0], "test_rows": test.matrix.shape[0]}


# (module, function) -> counts taken from the bound arguments and the result.
COUNTERS = {
    ("simnet", "generate"): lambda a, r: {"packets": len(r)},
    ("flowmeter", "meter"): lambda a, r: {"packets": len(a["packets"]), "flows": len(r)},
    ("preprocess", "strip_router_flows"): lambda a, r: {"router_sessions_removed": r[1]},
    ("preprocess", "build_dataset_from_split"): _dataset_rows,
    ("preprocess", "build_dataset"): _dataset_rows,
    **{("featsel", name): (lambda a, r: {"split": _fingerprint(a["dataset"])}) for name in RANKERS},
    ("detector", "train"): lambda a, r: {"row_epochs": a["dataset"].matrix.shape[0] * a["config"].epochs},
    ("detector", "predict"): lambda a, r: {"rows": len(r)},
    ("detector", "classify"): lambda a, r: {"rows": len(r)},
    ("detector", "adjudicate"): lambda a, r: {"rows": len(r) * len(a["ensemble"].experts)},
    ("evalcli", "main"): lambda a, r: {"verb": (a["argv"] or ["?"])[0]},
}


@dataclass
class Span:
    module: str
    function: str
    parent: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def boundary_functions(modules: dict, caller_sources: list[Path]) -> dict[str, list[str]]:
    """Public functions of each module that code outside it calls as `module.name`."""
    texts = {name: Path(inspect.getsourcefile(mod)).read_text() for name, mod in modules.items()}
    outside = [p.read_text() for p in caller_sources]
    found = {}
    for name, mod in modules.items():
        callers = [t for other, t in texts.items() if other != name] + outside
        refs = {m for t in callers for m in re.findall(rf"\b{name}\.([a-z]\w*)\b", t)}
        found[name] = sorted(r for r in refs if inspect.isfunction(getattr(mod, r, None)))
    return found


class Tracer:
    """Records spans while installed; `with Tracer(modules, sources) as t:`."""

    def __init__(self, modules: dict, caller_sources: list[Path]):
        self.modules = modules
        self.caller_sources = caller_sources
        self.spans: list[Span] = []
        self.bookkeeping_s = 0.0  # time the wrappers of recorded spans spent on themselves
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, names in boundary_functions(self.modules, self.caller_sources).items():
            mod = self.modules[module_name]
            for name in names:
                self._patch(mod, name, module_name, name)
        dataset = self.modules["preprocess"].Dataset
        for name in DATASET_METHODS:
            self._patch(dataset, name, "preprocess", f"Dataset.{name}")
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _patch(self, owner, attr: str, module: str, function: str) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, module, function))

    def _wrap(self, fn, module: str, function: str):
        counter = COUNTERS.get((module, function))
        signature = inspect.signature(fn) if counter else None
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]].module == module:
                return fn(*args, **kwargs)
            entered = clock()
            span = Span(module, function, stack[-1] if stack else -1, 0.0)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            self.bookkeeping_s += clock() - entered - (span.end - span.start)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of the spans it called."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], run_s: float) -> dict[str, float]:
    """Per-layer self times and counts for one traced round of `run_s` seconds."""
    own = self_times(spans)
    out: dict[str, float] = {f"{m}.self_s": 0.0 for m in MODULES}
    for s, t in zip(spans, own):
        out[f"{s.module}.self_s"] += t
    for metric, (module, functions) in FUNCTION_TIMES.items():
        out[metric] = sum(t for s, t in zip(spans, own) if s.module == module and s.function in functions)
    for verb in CLI_VERBS:
        out[f"evalcli.cmd_{verb}_s"] = sum(
            s.end - s.start for s in spans if s.function == "main" and s.counts.get("verb") == verb
        )

    def total(module: str, functions, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in spans if s.module == module and s.function in functions)

    def last(key: str) -> int:
        values = [s.counts[key] for s in spans if key in s.counts]
        return values[-1] if values else 0

    out["simnet.packets"] = total("simnet", ("generate",), "packets")
    metered = total("flowmeter", ("meter",), "packets")
    out["flowmeter.flows"] = total("flowmeter", ("meter",), "flows")
    out["flowmeter.us_per_packet"] = 1e6 * out["flowmeter.meter_s"] / metered if metered else 0.0
    out["preprocess.train_rows"] = last("train_rows")
    out["preprocess.test_rows"] = last("test_rows")
    out["preprocess.router_sessions_removed"] = total("preprocess", ("strip_router_flows",), "router_sessions_removed")

    ranked = [(s.function, s.counts["split"]) for s in spans if s.module == "featsel" and "split" in s.counts]
    out["featsel.rankings"] = len(ranked)
    out["featsel.rankings_per_split"] = len(ranked) / len(set(ranked)) if ranked else 0.0

    train_s = out["detector.train_s"]
    predict_s = out["detector.predict_s"]
    out["detector.models_trained"] = sum(1 for s in spans if s.module == "detector" and s.function == "train")
    out["detector.row_epochs_per_s"] = total("detector", ("train",), "row_epochs") / train_s if train_s else 0.0
    scored = total("detector", ("predict", "classify", "adjudicate"), "rows")
    out["detector.predict_rows_per_s"] = scored / predict_s if predict_s else 0.0

    out["trace.spans"] = len(spans)
    out["trace.unattributed_s"] = run_s - sum(s.end - s.start for s in spans if s.parent < 0)
    return {name: float(value) for name, value in out.items()}
