"""README's commands and quoted errors are the CLI's: each invocation parses, each error prints."""

from __future__ import annotations

import argparse
import copy
import json
import re
import shlex
from pathlib import Path

import pytest

from situsearch.cli import build_parser, main
from situsearch.datagen import save_annotation
from situsearch.evaluation import METHOD_TOKENS, config_for_token, expand_method_spec
from situsearch.situation_model import learn, save_model

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


def test_readme_model_errors_are_the_clis(small_synthetic_dataset, tmp_path, monkeypatch, capsys):
    # README quotes the line `situsearch run` prints for a box prior whose std
    # is out of range and for a joint whose covariance is not symmetric.
    monkeypatch.chdir(tmp_path)
    save_model(learn(small_synthetic_dataset[:40]), "model.json")
    save_annotation(small_synthetic_dataset[40], "image.json")
    learned = json.loads(Path("model.json").read_text())
    box_prior, asymmetric = copy.deepcopy(learned), copy.deepcopy(learned)
    box_prior["box_priors"]["leash"]["alpha"]["std"] = 1e200
    cov = asymmetric["box_pair"]["dog|leash"]["cov"]
    cov[1] = cov[4] + 1.0  # (0, 1) exceeds (1, 0) by 1
    printed = []
    for doc in (box_prior, asymmetric):
        Path("model.json").write_text(json.dumps(doc))
        assert main(["run", "--model", "model.json", "--image-annotation", "image.json"]) == 1
        printed.append(capsys.readouterr().err)
    quoted = re.findall(r"`(error: model\.json: [^`]*)`", README)
    assert [f"{line}\n" for line in quoted] == printed
