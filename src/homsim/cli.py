"""Command-line scenario runner.

Exit codes: 0 success, 2 configuration problem, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import sys

import click

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


@click.group()
def main() -> None:
    """Heralded-photon interference simulator."""


@main.command(name="run")
@click.argument("scenario_file", required=False, type=click.Path())
@click.option("--preset", "preset_name", default=None, help="Run a built-in preset.")
@click.option(
    "--out",
    "out_dir",
    default=None,
    type=str,
    help="Output directory (overrides the scenario's).",
)
def run_command(scenario_file: str | None, preset_name: str | None, out_dir):
    """Execute SCENARIO_FILE (YAML) or a named --preset."""
    if (scenario_file is None) == (preset_name is None):
        raise click.UsageError("give exactly one of SCENARIO_FILE or --preset")
    try:
        scenario = (
            load_preset(preset_name)
            if preset_name is not None
            else parse_scenario(scenario_file)
        )
        result = run_scenario(scenario, out_dir=out_dir)
    except ScenarioError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except _NUMERICAL_ERRORS as exc:
        click.echo(f"numerical error: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        sys.exit(EXIT_IO)
    except SimulationError as exc:
        # Remaining simulation errors stem from inconsistent configuration.
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    for message in result.warnings:
        click.echo(f"warning: {message}", err=True)
    for name in result.files:
        click.echo(str(result.out_dir / name))


@main.command(name="presets")
def presets_command() -> None:
    """List the built-in scenario presets."""
    for name in list_presets():
        scenario = load_preset(name)
        click.echo(f"{name}: mode={scenario.mode}")


if __name__ == "__main__":
    main()
