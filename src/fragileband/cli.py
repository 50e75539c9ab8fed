"""Command-line interface.

Subcommands: band, phase-sweep, regime-map, simulate, mass-sim,
ref-shift-check.  The table goes to --out when given (relative paths are
resolved against $FRAGILEBAND_OUT_DIR when set), otherwise to stdout;
diagnostics go to stderr unless --quiet.

Exit codes: 0 success (also --help and --version), 1 usage, validation,
parse or file error, out of memory, or a command that needs numpy where it
is not installed (regime-map, simulate, ref-shift-check), 2 numerical
non-convergence, 3 property-check failure (a ref-shift row with
holds=false).  A table that stdout does not take (a full disk, a closed
pipe, descriptor 1 closed) exits 1 with an error line naming ``<stdout>``.
Diagnostics are best effort: a line that stderr does not take changes no
exit code.

``main`` ends the process with ``os._exit`` once stdout and stderr are
flushed, skipping the interpreter's teardown; ``run`` returns the exit
code and is the way to call the CLI in a process of your own, e.g. under
a profiler or a coverage tool.

numpy's BLAS runs on one thread in the CLI process: ``main`` sets
OPENBLAS_NUM_THREADS=1 before numpy loads, unless OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS is set, in which case the user's count
stands.  ``run``, the library and any process that imports them are left
as they are.
"""

from __future__ import annotations

import argparse
import errno
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
    try:
        if path is None:
            if sys.stdout is None:  # the process started with descriptor 1 closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.write(text)
            sys.stdout.flush()  # so that a failed write is reported here, not at exit
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
    except OSError as exc:
        if exc.filename is None:  # a failed write or flush names no file
            exc.filename = "<stdout>" if path is None else str(path)
        raise
    if path is not None and not quiet:
        _note(f"wrote {len(table.rows)} rows to {path}")


def _note(line: str) -> None:
    """Write a diagnostic line to stderr if stderr takes it: a line that
    cannot be written does not change the exit code the command earned."""
    try:
        sys.stderr.write(f"{line}\n")
    except (AttributeError, OSError):  # stderr closed at start (None), full or a broken pipe
        pass


def _fail(code: int, message: str, quiet: bool) -> int:
    if not quiet:
        _note(f"error: {message}")
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
    except OSError as exc:  # reading the scenario, writing --out or stdout
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
    try:
        code = run()
    except SystemExit as exc:  # argparse: --help, --version and usage errors
        code = exc.code
    code = 0 if code is None else code  # as SystemExit reads it
    # The process ends here, without the interpreter's teardown of modules,
    # numpy and OpenBLAS: 12-14 ms after a light command's last write, 21-29
    # ms after one that loaded numpy (2-CPU VM), and none of it changes what
    # the user gets.  What the streams hold is flushed first: os._exit would
    # drop it.
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:  # --help or --version text; a table's failure is reported by run
        code = code or _fail(1, f"<stdout>: {exc.strerror}", quiet=False)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:  # diagnostics are best effort, as in _note
        pass
    os._exit(code)


if __name__ == "__main__":
    main()
