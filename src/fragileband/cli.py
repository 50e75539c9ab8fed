"""Command-line interface.

Subcommands: band, phase-sweep, regime-map, simulate, mass-sim,
ref-shift-check.  The table goes to --out when given (relative paths are
resolved against $FRAGILEBAND_OUT_DIR when set), otherwise to stdout;
diagnostics go to stderr unless --quiet.

Exit codes: 0 success (also --help and --version), 1 usage, validation,
parse or file error, out of memory, or a command that needs numpy where it
is not installed (regime-map, simulate, ref-shift-check), 2 numerical
non-convergence, 3 property-check failure (a ref-shift row with
holds=false).

numpy's BLAS runs on one thread in the CLI process: ``main`` sets
OPENBLAS_NUM_THREADS=1 before numpy loads, unless OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS is set, in which case the user's count
stands.  ``run``, the library and any process that imports them are left
as they are.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .mass import NoFixedPointFound
from .reference import HypothesisViolation
from .scenario import (
    COMMANDS,
    OutputFormat,
    ParseError,
    ResultTable,
    Scenario,
    TOOL_VERSION,
    ValidationError,
    load_scenario,
    with_seed,
)
from .stopping import InvalidProcess, NonConvergence

OUT_DIR_ENV = "FRAGILEBAND_OUT_DIR"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1: exit code 2 is reserved for non-convergence."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fragileband",
        description="Fragile-band phase analysis, stop/continue regimes, and intervention dynamics.",
    )
    parser.add_argument("--version", action="version", version=f"fragileband {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "band": "fragile-band thresholds and existence criterion",
        "phase-sweep": "phase labels and oracle equilibria along a w sweep",
        "regime-map": "stop/continue regime diagnostics over a parameter grid",
        "simulate": "seeded trajectory of the stop/continue problem",
        "mass-sim": "perturbed fixed-point trajectory of the mass dynamics",
        "ref-shift-check": "reference-shift stability bound verification",
    }
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=helps[name])
        cmd.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        cmd.add_argument("--out", default=None, help="output file (default: stdout)")
        cmd.add_argument("--format", choices=OutputFormat.__args__, default=None)
        cmd.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        cmd.add_argument("--quiet", action="store_true", help="suppress stderr diagnostics")
    return parser


def _resolve_out(out: str | None, scenario: Scenario) -> Path | None:
    target = out if out is not None else scenario.output.path
    if target is None:
        return None
    path = Path(target)
    env_dir = os.environ.get(OUT_DIR_ENV)
    if env_dir and not path.is_absolute():
        path = Path(env_dir) / path
    return path


def _emit(table: ResultTable, path: Path | None, fmt: str, quiet: bool) -> None:
    text = table.to_json() if fmt == "json" else table.to_csv()
    if path is None:
        sys.stdout.write(text)
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    if not quiet:
        print(f"wrote {len(table.rows)} rows to {path}", file=sys.stderr)


def _fail(code: int, message: str, quiet: bool) -> int:
    if not quiet:
        print(f"error: {message}", file=sys.stderr)
    return code


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    quiet = args.quiet
    try:
        scenario = load_scenario(args.scenario)
        if args.seed is not None:
            scenario = with_seed(scenario, args.seed)
        table = COMMANDS[args.command](scenario)
        fmt = args.format or scenario.output.format
        _emit(table, _resolve_out(args.out, scenario), fmt, quiet)
    except (ParseError, ValidationError, HypothesisViolation, InvalidProcess) as exc:
        return _fail(1, str(exc), quiet)
    except ImportError as exc:  # numpy is not installed
        return _fail(1, str(exc), quiet)
    except UnicodeDecodeError as exc:  # only the scenario file is decoded
        return _fail(1, f"{args.scenario}: {exc}", quiet)
    except OSError as exc:  # reading the scenario or writing --out
        return _fail(1, f"{exc.filename}: {exc.strerror}", quiet)
    except MemoryError as exc:  # an array numpy cannot allocate
        return _fail(1, str(exc) or "out of memory", quiet)
    except (NonConvergence, NoFixedPointFound) as exc:
        return _fail(2, str(exc), quiet)
    if args.command == "ref-shift-check":
        holds_index = table.columns.index("holds")
        if any(not row[holds_index] for row in table.rows):
            return _fail(3, "reference-shift bound violated", quiet)
    return 0


def main() -> None:
    # OpenBLAS reads its thread count when numpy loads.  The one BLAS call,
    # Transition.expect's stack of chain products, is split only from about
    # 700 states on, so a CLI process starts no thread pool unless the user
    # sized one.
    if not any(name in os.environ for name in BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    raise SystemExit(run())


if __name__ == "__main__":
    main()
