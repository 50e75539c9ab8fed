"""fragileband benchmark: three seeded workloads against the public API and CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-presets, regime-sweep, fine-grids (see BENCHMARK.json for
why each exists and what one call is).  One client runs
a closed loop: the next call starts when the previous one returned, and CLI
calls are one child process at a time.

``--trace 0`` measures.  The set-up (import fragileband, generate the inputs
from the seed, write, load and validate them) runs here, untimed.  After
one untimed warm-up call, whole passes over the workload's fixed inputs run
until the next pass would end after ``--seconds`` of passes.  Before each of
the first ``SETUP_REPEATS`` passes the set-up is timed once more in a fresh
interpreter, and ``setup_s`` is the median of those: spread over the run,
they sample the machine's drifting speed as the passes do.  Each
output is checked as soon as its call returns and then dropped, and a full
garbage collection runs before each pass, so every pass starts from the same
heap.  ``wall_s`` is the wall time of one pass, taking each call at its
median over the passes, ``call_ms_p50`` the median of those per-call
medians, ``peak_rss_mb`` the peak RSS of the process doing the work (the CLI
children for cli-presets).  (A median over all samples pooled would sit on
the edge between two groups of calls of different size and barely follow
their speed.)

``--trace 1`` runs ``TRACE_ROUNDS`` rounds of one untraced and one traced
pass and reports the per-layer figures of the traced passes (see
tracing.py), each the median over the rounds.  A pass is the workload's own
calls plus the cli-presets calls made in-process (``CliInProcess``), so
that every layer reports on every workload; the tracer cannot reach into
the CLI children of cli-presets, so those are not part of a traced pass.
``trace.overhead_s`` is the traced minus the untraced pass time, each call
taken at its median over the rounds.  Added to that: import figures from
``python -X importtime``, solver accuracy on a seeded panel and source line
counts.  The spans of the last traced pass are written to
``.perfbench_work/<workload>/spans.jsonl``.

Every output is checked; a call whose output is wrong counts as failed.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs as gen
import tracing
from workloads import ROOT, SRC, WORKLOADS, Call, CliInProcess, accuracy_panel, child_env

SETUP_REPEATS = 5
TRACE_ROUNDS = 3
IMPORT_REPEATS = 3
INTERP_REPEATS = 5
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def run_pass(workload, plan, first: bool = False, deferred: bool = False) -> list[Call]:
    """Time each call of ``plan``; check its output right away unless ``deferred``.

    Outputs are dropped once checked, so the benchmark's own heap (and with
    it the garbage collector's work inside timed calls) stays the same from
    pass to pass.  Deferred outputs stay on the call for ``check_deferred``.
    """
    calls = []
    for label, thunk in plan:
        start = time.perf_counter()
        try:
            output, error = thunk(), None
        except Exception as exc:  # a failed call is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        call = Call(label, time.perf_counter() - start, error=error)
        if deferred:
            call.output = output
        elif error is None:
            workload.check(call, output, first)
        calls.append(call)
    return calls


def check_deferred(workload, calls: list[Call], first: bool = False) -> None:
    for call in calls:
        if call.error is None:
            workload.check(call, call.output, first)
        call.output = None


def setup_sample(args, workdir: Path, size_name: str) -> dict:
    """Time the set-up once in a fresh interpreter: its seconds and the inputs' sha256."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_child.py")), args.workload,
         str(args.seed), str(workdir), size_name],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_run(workload, args, size_name: str, sha: str) -> dict:
    setups: list[dict] = []

    def take_setup() -> None:
        setups.append(setup_sample(args, workload.workdir.parent / f"setup{len(setups)}",
                                   size_name))

    run_pass(workload, workload.plan()[:1])  # warm-up: caches, lazy imports
    times: dict[str, list[float]] = {}
    digests: dict[str, str] = {}
    failures: list[Call] = []
    passes = 0
    elapsed = 0.0
    while True:
        if len(setups) < SETUP_REPEATS:
            take_setup()
        start = time.perf_counter()
        gc.collect()
        calls = run_pass(workload, workload.plan(), first=passes == 0)
        passes += 1
        for c in calls:
            times.setdefault(c.label, []).append(c.seconds)
            if c.error is None and digests.setdefault(c.label, c.digest) != c.digest:
                c.error = "output differs from the first pass"
            if c.error is not None:
                failures.append(c)
        elapsed += time.perf_counter() - start
        if elapsed + sum(c.seconds for c in calls) > args.seconds:
            break
    while len(setups) < SETUP_REPEATS:
        take_setup()
    setup_times = [c["seconds"] for c in setups]
    deterministic = all(c["sha256"] == sha for c in setups)

    attempted = sum(len(t) for t in times.values())
    failed = len(failures)
    wall = sum(statistics.median(t) for t in times.values())
    metrics = {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} set-ups"),
        "wall_s": (wall, "s", f"{len(times)} calls, each the median of {passes} passes"),
        "call_ms_p50": (1e3 * statistics.median(statistics.median(t) for t in times.values()),
                        "ms", f"median of {len(times)} calls, each the median of {passes} passes"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MiB", "peak RSS of the working process"),
    }
    report_errors(failures)
    print(f"  error_rate   {failed / attempted:.6g} ratio  ({failed} failed of "
          f"{attempted} attempted)")
    if not deterministic:
        print("  inputs: a fresh set-up generated different scenario JSON", file=sys.stderr)
    return result(deterministic and failed == 0, attempted, failed, metrics)


def traced_run(workload, args, size: gen.Size) -> dict:
    probe = CliInProcess(workload.workdir.parent / "cli", args.seed, size)
    probe.setup()
    parts = [w for w in (workload, probe) if w.in_process]
    for w in parts:
        run_pass(w, w.plan()[:1])

    times: dict[bool, dict[tuple, list[float]]] = {False: {}, True: {}}
    digests: dict[tuple, str] = {}
    failures: list[Call] = []
    rounds: list[dict] = []
    intact = True
    for i in range(TRACE_ROUNDS):
        gc.collect()
        untraced = [run_pass(w, w.plan(), first=i == 0) for w in parts]
        tracer = tracing.Tracer()
        gc.collect()
        tracing.install(tracer)
        try:
            traced = [run_pass(w, w.plan(), deferred=True) for w in parts]
        finally:
            intact &= tracer.restore()
        for w, calls in zip(parts, traced):
            check_deferred(w, calls)
        records = tracer.records()
        rounds.append(tracing.layer_metrics(records))
        for is_traced, passes in ((False, untraced), (True, traced)):
            for part, calls in enumerate(passes):
                for c in calls:
                    key = (part, c.label)
                    times[is_traced].setdefault(key, []).append(c.seconds)
                    if c.error is None and digests.setdefault(key, c.digest) != c.digest:
                        c.error = "output differs from the first untraced pass"
                    if c.error is not None:
                        failures.append(c)
    out_path = workload.workdir.parent / "spans.jsonl"
    tracing.write_records(out_path, records)

    metrics = {name: (statistics.median(r[name][0] for r in rounds), unit,
                      f"median of {len(rounds)} traced passes")
               for name, (_, unit) in rounds[0].items()}
    for name, (value, unit) in import_profile().items():
        metrics[name] = (value, unit, "")
    for name, (value, unit) in accuracy_panel(args.seed, size).items():
        metrics[name] = (value, unit, "")
    for module in tracing.LAYERS:
        metrics[f"{module}.sloc"] = (sloc(SRC / "fragileband" / f"{module}.py"), "lines", "")
    overhead = sum(map(statistics.median, times[True].values())) - sum(
        map(statistics.median, times[False].values()))
    metrics["trace.overhead_s"] = (overhead, "s", f"traced minus untraced pass, each call the "
                                                  f"median of {TRACE_ROUNDS} alternating passes")

    attempted = sum(len(t) for by_call in times.values() for t in by_call.values())
    report_errors(failures)
    print(f"  every output correct and traced identical to untraced: {not failures}; "
          f"originals restored: {intact}; spans: {out_path.relative_to(ROOT)}")
    return result(intact and not failures, attempted, len(failures), metrics)


def import_profile() -> dict[str, tuple[float, str]]:
    """Interpreter start and ``import fragileband.cli`` figures, medians of fresh processes."""
    interp = []
    for _ in range(INTERP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(), check=True)
        interp.append(time.perf_counter() - start)
    code = ("import sys; n = len(sys.modules); import fragileband.cli; "
            "print(len(sys.modules) - n)")
    profiles = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True, check=True)
        entries = parse_importtime(proc.stderr)
        profiles.append({
            "cli.import_ms": outermost_ms(entries, "fragileband"),
            "cli.import_numpy_ms": outermost_ms(entries, "numpy"),
            "cli.import_scipy_ms": outermost_ms(entries, "scipy"),
            "cli.modules_imported": int(proc.stdout.strip()),
        })
    out = {"cli.interp_ms": (1e3 * statistics.median(interp), "ms")}
    for name in profiles[0]:
        out[name] = (statistics.median(p[name] for p in profiles),
                     "count" if name == "cli.modules_imported" else "ms")
    return out


def parse_importtime(text: str) -> list[tuple[int, str, int, int | None]]:
    """(depth, module, cumulative us, parent index) per ``-X importtime`` line.

    Lines come in completion order, so a module's imports precede it one
    level deeper.
    """
    entries: list[list] = []
    pending: dict[int, list[int]] = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        index = len(entries)
        for child in pending.pop(depth + 1, []):
            entries[child][3] = index
        pending.setdefault(depth, []).append(index)
        entries.append([depth, name.strip(), int(cumulative), None])
    return [tuple(e) for e in entries]


def outermost_ms(entries, package: str) -> float:
    """Cumulative import time of ``package`` and its submodules, counted once."""

    def inside(name: str) -> bool:
        return name == package or name.startswith(package + ".")

    total = 0
    for depth, name, cumulative, parent in entries:
        if inside(name) and (parent is None or not inside(entries[parent][1])):
            total += cumulative
    return total / 1e3


def sloc(path: Path) -> int:
    """Non-blank lines that are not only a comment."""
    if not path.is_file():
        return 0
    lines = path.read_text(encoding="utf-8").splitlines()
    return sum(1 for line in lines if line.strip() and not line.strip().startswith("#"))


def report_errors(calls: list[Call]) -> None:
    for c in calls:
        if c.error is not None:
            print(f"  failed {c.label}: {c.error}", file=sys.stderr)


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }


def main(argv: list[str] | None = None, size_name: str = "full") -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fragileband" / "__init__.py").is_file():
        print(f"perfbench: no fragileband sources under {SRC}", file=sys.stderr)
        return 2
    size = gen.FULL if size_name == "full" else gen.TINY

    workdir = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workload = WORKLOADS[args.workload](workdir / "run", args.seed, size)
    sys.path.insert(0, str(SRC))
    sha = workload.setup()
    import fragileband

    if Path(fragileband.__file__).resolve().parent != (SRC / "fragileband").resolve():
        print(f"perfbench: imported fragileband from {fragileband.__file__}", file=sys.stderr)
        return 2
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"inputs_sha256={sha}")
    if args.trace:
        outcome = traced_run(workload, args, size)
    else:
        outcome = timed_run(workload, args, size_name, sha)
    bad = [name for name in outcome["metrics"] if not NAME.match(name)]
    if bad:
        print(f"perfbench: invalid metric names {bad}", file=sys.stderr)
        return 2
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
