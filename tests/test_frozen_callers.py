"""The README's command lines and the benchmark's generated commands call
the CLI from outside the package; a parser change that breaks one must
fail here rather than in a benchmark run.  Commands are parsed, never
run."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from cancelsum import cli

ROOT = Path(__file__).resolve().parents[1]
SUBCOMMANDS = {"pnt-verify", "osc-sum", "bound", "psi-sum", "psi-half",
               "pte-construct", "pte-verify", "frm-degree", "lemma-sum",
               "contour-check", "exponent-fit", "pigeonhole"}


def _readme_commands() -> list:
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    return [line.split()[1:] for line in block.splitlines()
            if line.startswith("cancelsum ")]


def _load_workloads():
    # its top-level imports are stdlib only, so loading it runs nothing;
    # dataclasses needs the module registered while it executes
    name = "cancelsum_bench_workloads"
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def _parses(argv) -> None:
    args = cli._build_parser().parse_args(argv)
    assert args.command == argv[0]
    assert args.run is getattr(cli, "cmd_" + argv[0].replace("-", "_"))


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == SUBCOMMANDS
    for argv in commands:
        _parses(argv)


@pytest.mark.parametrize("workload", ["psi", "residue", "cli-mix"])
def test_benchmark_commands_parse(workload):
    commands = _load_workloads().generate(workload, 1)
    assert commands
    for command in commands:
        _parses(list(command.args))
