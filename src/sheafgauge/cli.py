"""Command line front end.

    sheafgauge check FILE [--suite NAME] [--strict] [--out PATH]
    sheafgauge demo NAME [--suite NAME] [--strict] [--out PATH]
    sheafgauge list-demos

``check`` parses a scenario file, runs the requested suite and prints
the report table.  ``demo`` does the same for a built-in scenario.
Exit status: 0 when the run completed (failed checks included), 1 when
checks failed and --strict was given, 2 for unreadable or malformed
input or an --out file that cannot be written.  --out writes flat
``key = value`` lines for machine use.
"""

from __future__ import annotations

import sys

import click

from .checks import SUITES, run_checks
from .errors import SheafGaugeError
from .report import Report
from .scenario import demo_names, load_demo, load_scenario

_SUITE_OPTION = click.option(
    "--suite", default="all", show_default=True,
    type=click.Choice(sorted(SUITES), case_sensitive=False),
    help="Which named battery of checks to run.")
_STRICT_OPTION = click.option(
    "--strict", is_flag=True,
    help="Exit 1 when any check fails or errors.")
_OUT_OPTION = click.option(
    "--out", type=click.Path(dir_okay=False, writable=True), default=None,
    help="Also write the report as key = value lines to this file.")


@click.group()
def main() -> None:
    """Numerical checks for glued bundle data over sampled covers."""


def _run(load, source: str, suite: str, strict: bool, out: str | None) -> None:
    try:
        scn = load(source)
        report: Report = run_checks(scn, suite.lower())
    except SheafGaugeError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    click.echo(f"scenario: {scn.name}")
    click.echo(report.table())
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write("\n".join(report.kv_lines()) + "\n")
        except OSError as exc:
            click.echo(f"error: cannot write {out}: {exc.strerror}", err=True)
            sys.exit(2)
    if strict and not report.passed:
        sys.exit(1)


@main.command()
@click.argument("file", type=click.Path(exists=False, dir_okay=False))
@_SUITE_OPTION
@_STRICT_OPTION
@_OUT_OPTION
def check(file: str, suite: str, strict: bool, out: str | None) -> None:
    """Run checks over the scenario in FILE."""
    _run(load_scenario, file, suite, strict, out)


@main.command()
@click.argument("name")
@_SUITE_OPTION
@_STRICT_OPTION
@_OUT_OPTION
def demo(name: str, suite: str, strict: bool, out: str | None) -> None:
    """Run checks over the built-in scenario NAME."""
    _run(load_demo, name, suite, strict, out)


@main.command(name="list-demos")
def list_demos() -> None:
    """List the built-in scenario names."""
    for name in demo_names():
        click.echo(name)


if __name__ == "__main__":
    main()
