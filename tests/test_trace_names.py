"""The benchmark's tracer (`perfbench/spans.py`) patches `preprocess` names
it looks up by `getattr`: a name that is renamed or deleted breaks every
traced round, though nothing in the package calls it.  So each name it
lists must exist."""

import sys
from functools import reduce
from pathlib import Path

from ddsids import preprocess

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402  (perfbench is a directory of scripts, not a package)


def test_traced_preprocess_names_exist():
    module, functions = spans.FUNCTION_TIMES["preprocess.build_dataset_s"]
    assert module == "preprocess"
    names = [f"Dataset.{name}" for name in spans.DATASET_METHODS] + list(functions)
    missing = [name for name in names if reduce(lambda owner, attr: getattr(owner, attr, None),
                                                name.split("."), preprocess) is None]
    assert not missing, f"names perfbench/spans.py traces that preprocess lacks: {missing}"
