"""The benchmark patches names it looks up by `getattr`: its tracer
(`perfbench/spans.py`) the `preprocess` names it times, and every round,
traced or not, the rankers and `evalcli.compute_ranking`, whose rankings it
checks (`perfbench/workload.py`).  A name that is renamed or deleted breaks
every round, though nothing in the package calls it by that path.  So each
name they list must exist."""

import sys
from functools import reduce
from pathlib import Path

from ddsids import evalcli, featsel, preprocess

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402  (perfbench is a directory of scripts, not a package)


def missing(module, names) -> list[str]:
    return [name for name in names
            if reduce(lambda owner, attr: getattr(owner, attr, None), name.split("."), module) is None]


def test_traced_preprocess_names_exist():
    module, functions = spans.FUNCTION_TIMES["preprocess.build_dataset_s"]
    assert module == "preprocess"
    names = [f"Dataset.{name}" for name in spans.DATASET_METHODS] + list(functions)
    absent = missing(preprocess, names)
    assert not absent, f"names perfbench/spans.py traces that preprocess lacks: {absent}"


def test_tapped_ranking_names_exist():
    absent = missing(featsel, spans.RANKERS) + missing(evalcli, ["compute_ranking"])
    assert not absent, f"names perfbench/workload.py patches in every round that the package lacks: {absent}"
