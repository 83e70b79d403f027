"""The README's examples run or parse as printed against the current API."""

import argparse
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from sgdrift.cli import UsageError, build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    match = re.search(r"^## Library\n+```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.S | re.M)
    assert match, "README has no python block right under '## Library'"
    return match.group(1)


def test_library_example_prints_the_distance_table():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_block(), str(README), "exec"), {})
    header = out.getvalue().splitlines()[0].split("\t")
    assert header[:2] == ["d_1f", "d_1l"]


def _cli_commands() -> list[list[str]]:
    """The argv of every ``sgdrift`` command in the block right under '## CLI'.

    Continuation lines are joined, and each command is cut at ``|`` or
    ``>``, so a pipe's other side and a redirect's target are dropped.
    """
    match = re.search(r"^## CLI\n[^#]*?^```\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.S | re.M)
    assert match, "README has no code block right under '## CLI'"
    commands = []
    for line in match.group(1).replace("\\\n", " ").splitlines():
        for part in re.split(r"[|>]", line):
            words = shlex.split(part, comments=True)
            if words[:1] == ["sgdrift"]:
                commands.append(words[1:])
    return commands


def test_cli_examples_parse():
    commands = _cli_commands()
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    assert {argv[0] for argv in commands} == set(subcommands)
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except UsageError as exc:
            pytest.fail(f"sgdrift {shlex.join(argv)}: {exc}")


def _table_flags(section: str) -> set[str]:
    match = re.search(rf"^### {section}\n(.*?)^#", README.read_text(encoding="utf-8"),
                      re.S | re.M)
    assert match, f"README has no '### {section}' section"
    return set(re.findall(r"^\| `(--[a-z-]+)` \|", match.group(1), re.M))


def _flags(subcommand: str) -> set[str]:
    parser = next(action.choices for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction))[subcommand]
    return {flag for action in parser._actions for flag in action.option_strings
            if flag.startswith("--")} - {"--help"}


def test_knob_table_lists_every_detect_knob():
    assert _table_flags("Detector knobs") == _flags("detect") - {"--mode", "--input", "--out"}


def test_knob_table_lists_every_generate_flag():
    assert _table_flags("Generator knobs") == _flags("generate")
