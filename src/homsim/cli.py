"""Command-line scenario runner.

Exit codes: 0 success, 2 configuration problem (a usage error included),
3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import NoReturn

from .errors import (
    DegenerateFilterError,
    DegenerateStateError,
    FitFailureError,
    NoDipError,
    ScenarioError,
    SimulationError,
)
from .runner import run as run_scenario
from .scenario import list_presets, load_preset, parse_scenario

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_NUMERICAL_ERRORS = (
    DegenerateFilterError,
    DegenerateStateError,
    NoDipError,
    FitFailureError,
    FloatingPointError,
)


def _fail(kind: str, exc: Exception, code: int) -> int:
    print(f"{kind} error: {exc}", file=sys.stderr)
    return code


def run_command(args: argparse.Namespace) -> int:
    """Execute SCENARIO_FILE (YAML) or a named --preset."""
    if (args.scenario_file is None) == (args.preset is None):
        args.parser.error("give exactly one of SCENARIO_FILE or --preset")
    try:
        scenario = (
            load_preset(args.preset)
            if args.preset is not None
            else parse_scenario(args.scenario_file)
        )
        result = run_scenario(scenario, out_dir=args.out)
    except ScenarioError as exc:
        return _fail("configuration", exc, EXIT_CONFIG)
    except _NUMERICAL_ERRORS as exc:
        return _fail("numerical", exc, EXIT_NUMERICAL)
    except OSError as exc:
        return _fail("i/o", exc, EXIT_IO)
    except SimulationError as exc:
        # Remaining simulation errors stem from inconsistent configuration.
        return _fail("configuration", exc, EXIT_CONFIG)
    for message in result.warnings:
        print(f"warning: {message}", file=sys.stderr)
    for name in result.files:
        print(result.out_dir / name)
    return 0


def presets_command(args: argparse.Namespace) -> int:
    """List the built-in scenario presets."""
    for name in list_presets():
        print(f"{name}: mode={load_preset(name).mode}")
    return 0


def _parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog, description="Heralded-photon interference simulator."
    )
    commands = parser.add_subparsers(title="commands", required=True, metavar="COMMAND")
    run = commands.add_parser("run", help=run_command.__doc__, description=run_command.__doc__)
    run.add_argument("scenario_file", nargs="?", metavar="SCENARIO_FILE")
    run.add_argument("--preset", metavar="NAME", help="Run a built-in preset.")
    run.add_argument("--out", metavar="DIR", help="Output directory (overrides the scenario's).")
    run.set_defaults(command=run_command, parser=run)
    presets = commands.add_parser(
        "presets", help=presets_command.__doc__, description=presets_command.__doc__
    )
    presets.set_defaults(command=presets_command)
    return parser


def main(argv: list[str] | None = None, prog_name: str = "sim") -> NoReturn:
    """Parse ``argv`` (``sys.argv[1:]`` by default), run the command and exit
    with its code: this always ends in ``SystemExit``, 2 on a usage error."""
    args = _parser(prog_name).parse_args(argv)
    sys.exit(args.command(args))


if __name__ == "__main__":
    main()
