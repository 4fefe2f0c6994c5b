"""README.md checked against the code it documents.

The settings table holds every key of ``harness._SETTINGS`` with its
default and rule as rendered here; a row may name several keys that share
both. No row names a key the code lacks. Every ``gclab`` command in the
README's fenced blocks parses with the CLI's own parser.
"""

import argparse
import json
import re
import shlex
from pathlib import Path

from gclab import harness
from gclab.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
TABLE_HEADER = "| setting | default | rule | meaning |"


def rendered_default(default) -> str:
    if default is harness._NON_EMPTY:
        return "required, non-empty"
    if default is None:
        return "required"
    return f"`{json.dumps(default)}`"


def rendered_rule(rule) -> str:
    """An interval as written, or each choice as its JSON value."""
    if isinstance(rule, str):
        return f"`{rule}`"
    return ", ".join(f"`{json.dumps(choice)}`" for choice in rule)


def table_rows(text: str) -> dict:
    """Each key the settings table names, with its row's (default, rule) cells."""
    lines = text.splitlines()
    rows = {}
    for line in lines[lines.index(TABLE_HEADER) + 2:]:
        if not line.startswith("|"):
            break
        keys, default, rule = (cell.strip() for cell in line.strip("|").split("|")[:3])
        for key in re.findall(r"`([^`]+)`", keys):
            assert key not in rows, f"the README's settings table names {key!r} twice"
            rows[key] = (default, rule)
    return rows


def readme_commands(text: str) -> list[str]:
    """Every ``gclab ...`` command in the fenced blocks of ``text``, its
    backslash-continued lines joined into one."""
    commands, fenced, pending = [], False, None
    for line in text.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and (pending is not None or line.startswith("gclab ")):
            pending = line if pending is None else f"{pending} {line.strip()}"
            if pending.endswith("\\"):
                pending = pending[:-1].rstrip()
            else:
                commands.append(pending)
                pending = None
    return commands


def test_settings_table_matches_harness_settings():
    rows = table_rows(README)
    expected = {key: (rendered_default(default), rendered_rule(rule))
                for key, (default, rule) in harness._SETTINGS.items()}
    problems = [f"{key}: no row" for key in expected if key not in rows]
    problems += [f"{key}: no such setting" for key in rows if key not in expected]
    problems += [f"{key}: README {rows[key]}, code {expected[key]}"
                 for key in expected if key in rows and rows[key] != expected[key]]
    assert not problems, "README settings table out of step with harness._SETTINGS:\n" + "\n".join(
        problems)


def test_readme_cli_examples_parse(capsys):
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    commands = readme_commands(README)
    shown = {shlex.split(command, comments=True)[1] for command in commands}
    assert shown == set(subcommands.choices), "every subcommand needs a README example"
    refused = []
    for command in commands:
        try:
            parser.parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            refused.append(f"{command}\n  {capsys.readouterr().err.strip().splitlines()[-1]}")
    assert not refused, "README examples that argparse refuses:\n" + "\n".join(refused)
