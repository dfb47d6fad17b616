"""Every option of every ddsids verb is read: the verb's `_cmd_*` function
reads it as `args.<dest>`, or it sets an ExperimentPlan field and the verb
builds its plan with `_plan_from_args`.  An option nothing reads would be
accepted and silently ignored.

Every field of a settings class is set to a value other than its default
somewhere: a field nothing sets holds one value and belongs in a constant."""

import argparse
import ast
import inspect
from dataclasses import fields
from pathlib import Path

from ddsids import detector, evalcli, simnet

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
