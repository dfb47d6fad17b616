"""Every option of every ddsids verb is read: the verb's `_cmd_*` function
reads it as `args.<dest>`, or it sets an ExperimentPlan field and the verb
builds its plan with `_plan_from_args`.  An option nothing reads would be
accepted and silently ignored.

Every field of a settings class is set to a value other than its default
somewhere: a field nothing sets holds one value and belongs in a constant.

An invalid value of a numeric option ends in a usage error (exit 2) or a
one-line `ddsids:` message (exit 1), never a traceback, and before any
simulation or training starts."""

import argparse
import ast
import contextlib
import inspect
import io
import string
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ddsids import detector, evalcli, flowmeter, preprocess, simnet

PLAN_FIELDS = {f.name for f in fields(evalcli.ExperimentPlan)}


def verbs() -> dict[str, argparse.ArgumentParser]:
    parser = evalcli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def reads(func) -> tuple[set[str], bool]:
    """The attributes `func` reads off its argument, and whether it passes
    that argument to `_plan_from_args`."""
    tree = ast.parse(inspect.getsource(func))
    args = next(iter(inspect.signature(func).parameters))
    nodes = list(ast.walk(tree))
    read = {n.attr for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == args}
    builds_plan = any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "_plan_from_args"
                      and [a.id for a in n.args if isinstance(a, ast.Name)] == [args] for n in nodes)
    return read, builds_plan


def test_every_option_is_read_by_its_verb():
    unread = []
    for verb, parser in verbs().items():
        read, builds_plan = reads(parser.get_default("func"))
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if action.dest not in read and not (builds_plan and action.dest in PLAN_FIELDS):
                unread.append(f"{verb} {'/'.join(action.option_strings)}")
    assert not unread, "options no verb reads: " + ", ".join(unread)



SETTINGS = (detector.TrainConfig, simnet.ScenarioConfig, evalcli.ExperimentPlan)


def set_in_source(cls) -> set[str]:
    """The fields of `cls` that some call in the package sets: by keyword or
    by position in a call of the class, or by keyword in a `replace` call."""
    names = [f.name for f in fields(cls)]
    found = set()
    for path in Path(evalcli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if callee == cls.__name__:
                found.update(names[: len(node.args)])
            if callee in (cls.__name__, "replace"):
                found.update(k.arg for k in node.keywords if k.arg)
    return found


def test_every_settings_field_is_set_by_a_call_or_an_option():
    dests = {action.dest for parser in verbs().values() for action in parser._actions}
    unset = [f"{cls.__name__}.{f.name}" for cls in SETTINGS for f in fields(cls)
             if f.name not in set_in_source(cls) | dests]
    assert not unset, "fields nothing sets: " + ", ".join(unset)


# The numeric options of the verbs that simulate, train or read input files.
# A run is given valid inputs (`verb_argv`) and one drawn value, its only fault.
NUMERIC_OPTIONS = {
    "experiment": ("--epochs", "--k", "--split", "--scale", "--seed"),
    "train": ("--epochs", "--seed"),
    "select": ("--k", "--seed"),
    "preprocess": ("--split", "--seed"),
}

# Values no numeric option takes: zero, negatives, NaN, infinities, 1e308,
# integers beyond 64 bits and text that is no number.  A non-negative integer
# of any size is a seed, so --seed draws only the values that are not one.
INVALID = st.one_of(
    st.sampled_from(["0", "-0", "0.0", "nan", "NaN", "inf", "-inf", "Infinity", "1e308", "-1e308"]),
    st.integers(max_value=-1).map(str),
    st.floats(max_value=-1e-9, allow_nan=False).map(repr),
    st.integers(min_value=2**64).map(str),
    st.integers(max_value=-2**64).map(str),
    st.text(string.ascii_letters + " ,_-", min_size=1, max_size=8),
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A benign and a dos flow file, and a training set the verbs accept."""
    root = tmp_path_factory.mktemp("inputs")
    configs = evalcli.scenario_configs(evalcli.ExperimentPlan(seed=4, scale=0.02))
    for scenario in ("benign", "dos"):
        flowmeter.write_flow_csv(flowmeter.meter(simnet.generate(configs[scenario])), root / f"{scenario}.flows.csv")
    rng = np.random.default_rng(0)
    preprocess.write_dataset_csv(preprocess.Dataset(rng.uniform(0, 1, (20, 3)), ["benign", "dos"] * 10,
                                                    ["a", "b", "c"], np.zeros(3), np.ones(3)), root / "train.csv")
    return root


def verb_argv(verb: str, root: Path) -> list[str]:
    """The verb with valid inputs and an output directory under `root`."""
    files = {"experiment": [], "train": ["--train", str(root / "train.csv")],
             "select": ["--train", str(root / "train.csv")],
             "preprocess": ["--flows", f"benign={root / 'benign.flows.csv'}", "--flows", f"dos={root / 'dos.flows.csv'}"]}
    return [verb, *files[verb], "--out-dir", str(root / "out")]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_an_invalid_numeric_option_is_refused_by_message(inputs, data):
    verb = data.draw(st.sampled_from(sorted(NUMERIC_OPTIONS)), label="verb")
    flag = data.draw(st.sampled_from(NUMERIC_OPTIONS[verb]), label="flag")
    value = data.draw(INVALID.filter(lambda v: flag != "--seed" or not v.isdecimal()), label="value")
    err = io.StringIO()
    # A simulation or a training stops at once, so no value, however large, starts a pass.
    with mock.patch.object(simnet, "generate", side_effect=RuntimeError("simulated")) as generate, \
            mock.patch.object(detector, "train_many", side_effect=RuntimeError("trained")) as train_many, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = evalcli.main(verb_argv(verb, inputs) + [f"{flag}={value}"])
        except SystemExit as exited:
            rc = exited.code
    assert not generate.called and not train_many.called, "a pass started on an invalid option"
    text = err.getvalue()
    if rc == 2:
        assert text.startswith("usage: ddsids ") and f"error: argument {flag}" in text, text
    else:
        assert rc == 1 and text.startswith("ddsids: ") and "\n" not in text.rstrip("\n"), (rc, text)

