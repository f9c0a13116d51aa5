"""README's commands are the CLI's: every documented invocation parses."""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

import pytest

from situsearch.cli import build_parser
from situsearch.evaluation import METHOD_TOKENS, config_for_token, expand_method_spec

README = (Path(__file__).parent.parent / "README.md").read_text()
CODE_BLOCKS = re.findall(r"^```[^\n]*\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)


def readme_commands() -> list[str]:
    """Each `situsearch ...` line of README's code blocks, `\\` continuations joined."""
    commands = []
    for block in CODE_BLOCKS:
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("situsearch "):
                commands.append(line.strip())
    return commands


def test_readme_documents_every_subcommand():
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {shlex.split(command)[1] for command in readme_commands()} == set(sub.choices)


@pytest.mark.parametrize("command", readme_commands(), ids=lambda c: shlex.split(c)[1])
def test_readme_command_parses(command):
    try:
        args = build_parser().parse_args(shlex.split(command)[1:])
    except SystemExit as exc:
        pytest.fail(f"README command does not parse (exit {exc.code}): {command}")
    if hasattr(args, "methods"):
        expand_method_spec(args.methods)
    if hasattr(args, "method"):
        config_for_token(args.method)


def test_readme_all_block_lists_the_method_tokens():
    after = README.split("`all` expands to:", 1)[1]
    block = re.search(r"```[^\n]*\n(.*?)```", after, flags=re.DOTALL).group(1)
    assert [line.split()[0] for line in block.splitlines() if line.strip()] == list(METHOD_TOKENS)
