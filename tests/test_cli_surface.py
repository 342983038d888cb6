"""The command-line surface, pinned against a recorded fixture.

``tests/fixtures/cli_surface.json`` holds, for every subcommand of
``build_parser()``, its help line, its ``set_defaults`` and, in
declaration order, every argument's option strings, dest, default,
choices, nargs, required flag, metavar, type name, action class and
help text.  A change to how the parser is declared must leave all of
that as it was: flags, defaults, help and the order ``--help`` lists
them in.

Regenerate (only when a change to the surface is intended)::

    PYTHONPATH=src python -m tests.test_cli_surface
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

FIXTURE = Path(__file__).parent / "fixtures" / "cli_surface.json"


def _name(value):
    return value.__name__ if callable(value) else value


def _argument(action: argparse.Action) -> dict:
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "choices": list(action.choices) if action.choices is not None else None,
        "nargs": action.nargs,
        "required": action.required,
        "metavar": action.metavar,
        "type": _name(action.type),
        "action": type(action).__name__,
        "help": action.help,
    }


def surface(parser: argparse.ArgumentParser) -> dict:
    """The parser's subcommands and arguments as a JSON-safe document."""
    (sub,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    help_of = {choice.dest: choice.help for choice in sub._choices_actions}
    doc = {
        "prog": parser.prog,
        "description": parser.description,
        "subcommands": [
            {
                "name": name,
                "help": help_of[name],
                "defaults": {k: _name(v) for k, v in sorted(child._defaults.items())},
                "arguments": [_argument(action) for action in child._actions],
            }
            for name, child in sub.choices.items()
        ],
    }
    return json.loads(json.dumps(doc))


def test_fixture_covers_every_subcommand():
    names = [entry["name"] for entry in json.loads(FIXTURE.read_text())["subcommands"]]
    assert len(names) == 15 and len(set(names)) == 15


def test_parser_matches_the_recorded_surface():
    golden = json.loads(FIXTURE.read_text())
    current = surface(build_parser())
    assert [s["name"] for s in current["subcommands"]] == [
        s["name"] for s in golden["subcommands"]
    ]
    for mine, theirs in zip(current["subcommands"], golden["subcommands"]):
        assert mine == theirs, mine["name"]
    assert current == golden


def test_subcommand_defaults_are_independent():
    """A preset default set for one subcommand never leaks into another
    (argparse parent parsers share their Action objects)."""
    parser = build_parser()
    assert parser.parse_args(["trace", "x.mesa"]).impl == "i4"
    assert parser.parse_args(["run", "x.mesa"]).impl == "i2"
    assert parser.parse_args(["check", "x.mesa"]).entry is None
    assert parser.parse_args(["run", "x.mesa"]).entry == ("Main", "main")


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(surface(build_parser()), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
