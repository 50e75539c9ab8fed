"""Spans around the program's module entry points, patched in from outside.

The tracer replaces, for the length of a traced pass, the names through
which callers reach each layer (``fragileband.scenario.value_iteration``,
``fragileband.mass.step``, ...) with wrappers that record spans, and puts
the originals back afterwards.  The program's own files are not touched.

Spans are kept in memory and written as JSON lines at the end.  A span has
a name (``<layer>.<what>``), start, end, parent and root ids, and the facts
its wrapper read off the call.  The two hot leaves, ``mass.step`` and
``reference.eval_reference_payoff``, are only counted, not given one span
per call.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "scenario", "game", "stopping", "reference", "mass")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[dict] = []
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _open(self, name: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        ident = next(self._ids)
        record = {
            "id": ident,
            "name": name,
            "parent": parent["id"] if parent else None,
            "root": parent["root"] if parent else ident,
            "start": time.perf_counter(),
            "child_s": 0.0,
        }
        self._stack.append(record)
        return record

    def _close(self, record: dict, facts: dict, end: float) -> None:
        record["end"] = end
        self._stack.pop()
        if self._stack:
            self._stack[-1]["child_s"] += record["end"] - record["start"]
        record.update(facts)
        self.spans.append(record)

    # -- patching ---------------------------------------------------------

    def _replace(self, owner, attr: str, make):
        """Swap ``owner.attr`` (or ``owner[attr]`` for a dict) for ``make(original)``."""
        if isinstance(owner, dict):
            if attr not in owner:
                self.missing.append(attr)
                return
            raw = owner[attr]
            owner[attr] = make(raw)
        else:
            try:
                raw = inspect.getattr_static(owner, attr)
            except AttributeError:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                return
            func = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = make(func)
            setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
        self._patched.append((owner, attr, raw))

    def wrap(self, owner, attr: str, name: str, facts=None) -> None:
        """Record one span per call; ``facts(args, kwargs, result)`` adds fields."""

        def make(func):
            def traced(*args, **kwargs):
                record = self._open(name)
                result = None
                try:
                    result = func(*args, **kwargs)
                    return result
                finally:
                    end = time.perf_counter()
                    extra = facts(args, kwargs, result) if facts and result is not None else {}
                    self._close(record, extra, end)

            return traced

        self._replace(owner, attr, make)

    def counted(self, owner, attr: str, name: str) -> None:
        """Count calls of a hot leaf without timing it."""

        def make(func):
            def traced(*args, **kwargs):
                self.counts[name] += 1
                return func(*args, **kwargs)

            return traced

        self._replace(owner, attr, make)

    def restore(self) -> bool:
        """Put every original back; True when each name holds its original again."""
        for owner, attr, raw in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        intact = all(
            (owner[attr] if isinstance(owner, dict) else inspect.getattr_static(owner, attr)) is raw
            for owner, attr, raw in self._patched
        )
        self._patched.clear()
        return intact

    # -- output -----------------------------------------------------------

    def records(self) -> list[dict]:
        counts = [{"count": name, "calls": calls} for name, calls in sorted(self.counts.items())]
        return self.spans + counts


def write_records(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for record in records:
            out.write(json.dumps(record, sort_keys=True) + "\n")


def install(tracer: Tracer) -> None:
    """Patch every layer entry point at the names its callers bind."""
    from fragileband import cli, mass, reference, scenario, stopping

    original_step = mass.step

    def rows(args, kwargs, table):
        return {"rows": len(table.rows)}

    def text_bytes(args, kwargs, text):
        return {"bytes": len(text.encode("utf-8"))}

    def vi_facts(args, kwargs, solution):
        return {"iterations": int(solution.iterations), "states": int(solution.phi_grid.size)}

    def sim_facts(args, kwargs, trajectory):
        return {"steps": len(trajectory.steps)}

    def tipping_facts(args, kwargs, probabilities):
        samples = kwargs.get("samples", args[3] if len(args) > 3 else 0)
        return {"samples": int(samples)}

    def verify_facts(args, kwargs, result):
        setup = args[0] if args else kwargs["setup"]
        return {
            "states": int(setup.x_grid.size),
            "gap": float(result.empirical_gap),
            "bound": float(result.bound),
        }

    def mass_facts(args, kwargs, result):
        state0, params = args[0], args[1]
        fp = float(result.fixed_point)
        moved = original_step(
            mass.MassState(x=fp, forecast=state0.forecast, reference=state0.reference), params
        )
        return {"fixed_point": fp, "fp_residual": abs(moved - fp)}

    tracer.wrap(cli, "run", "cli.run")
    tracer.wrap(cli, "load_scenario", "scenario.load")
    tracer.wrap(cli, "_emit", "scenario.write")
    tracer.wrap(scenario, "load_scenario", "scenario.load")
    tracer.wrap(scenario, "scenario_hash", "scenario.hash")
    for command in list(scenario.COMMANDS):
        tracer.wrap(scenario.COMMANDS, command, "scenario.command", rows)
    for command in list(scenario.COMMANDS):
        attr = "cmd_" + command.replace("-", "_")
        tracer.wrap(scenario, attr, "scenario.command", rows)
    tracer.wrap(scenario.ResultTable, "to_csv", "scenario.to_csv", text_bytes)
    tracer.wrap(scenario.ResultTable, "to_json", "scenario.to_json", text_bytes)
    tracer.wrap(scenario.ResultTable, "from_csv", "scenario.from_csv")

    tracer.wrap(scenario, "tipping_band_probability", "game.tipping", tipping_facts)
    tracer.wrap(scenario, "nash_equilibria", "game.nash")
    tracer.wrap(scenario, "classify_phase", "game.classify")
    tracer.wrap(scenario, "classify_phase_nonlinear", "game.classify")

    for owner in (scenario, stopping):
        tracer.wrap(owner, "value_iteration", "stopping.vi", vi_facts)
        tracer.wrap(owner, "simulate_path", "stopping.sim", sim_facts)
    tracer.wrap(stopping.ValueSolution, "decision_at", "stopping.decision")

    tracer.wrap(scenario, "verify_shift_stability", "reference.verify", verify_facts)
    tracer.counted(reference, "eval_reference_payoff", "reference.payoff_eval")

    for owner in (scenario, mass):
        tracer.wrap(owner, "simulate_mass", "mass.sim", mass_facts)
    tracer.counted(mass, "step", "mass.step")
    if tracer.missing:
        print(f"perfbench: not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)


def _spans(records, name):
    return [r for r in records if r.get("name") == name]


def _ms(spans) -> float:
    return 1e3 * sum(s["end"] - s["start"] for s in spans)


def _self_ms(spans) -> float:
    return 1e3 * sum(s["end"] - s["start"] - s["child_s"] for s in spans)


def layer_metrics(records: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans and counts of one traced pass."""
    counts = {r["count"]: r["calls"] for r in records if "count" in r}
    spans = [r for r in records if "name" in r]
    out: dict[str, tuple[float, str]] = {}

    out["cli.run_ms"] = (_ms(_spans(spans, "cli.run")), "ms")
    out["scenario.load_ms"] = (_ms(_spans(spans, "scenario.load")), "ms")
    out["scenario.hash_ms"] = (_ms(_spans(spans, "scenario.hash")), "ms")
    commands = _spans(spans, "scenario.command")
    out["scenario.command_self_ms"] = (_self_ms(commands), "ms")
    for what in ("to_csv", "to_json", "from_csv"):
        out[f"scenario.{what}_ms"] = (_ms(_spans(spans, f"scenario.{what}")), "ms")
    out["scenario.rows_out"] = (sum(s.get("rows", 0) for s in commands), "count")
    serialized = _spans(spans, "scenario.to_csv") + _spans(spans, "scenario.to_json")
    out["scenario.bytes_out"] = (sum(s.get("bytes", 0) for s in serialized), "bytes")
    out["scenario.write_ms"] = (_self_ms(_spans(spans, "scenario.write")), "ms")

    tipping = _spans(spans, "game.tipping")
    out["game.tipping_calls"] = (len(tipping), "count")
    out["game.tipping_ms"] = (_ms(tipping), "ms")
    out["game.tipping_samples"] = (sum(s.get("samples", 0) for s in tipping), "count")
    nash = _spans(spans, "game.nash")
    out["game.nash_calls"] = (len(nash), "count")
    out["game.nash_ms"] = (_ms(nash), "ms")
    out["game.classify_ms"] = (_ms(_spans(spans, "game.classify")), "ms")

    vi = _spans(spans, "stopping.vi")
    backups = sum(s.get("iterations", 0) * s.get("states", 0) for s in vi)
    out["stopping.vi_calls"] = (len(vi), "count")
    out["stopping.vi_ms"] = (_ms(vi), "ms")
    out["stopping.vi_iterations"] = (sum(s.get("iterations", 0) for s in vi), "count")
    out["stopping.vi_iterations_max"] = (max((s.get("iterations", 0) for s in vi), default=0), "count")
    out["stopping.vi_states"] = (sum(s.get("states", 0) for s in vi), "count")
    out["stopping.vi_backups"] = (backups, "count")
    out["stopping.vi_ns_per_backup"] = (1e6 * _ms(vi) / backups if backups else 0.0, "ns")
    sim = _spans(spans, "stopping.sim")
    steps = sum(s.get("steps", 0) for s in sim)
    out["stopping.sim_calls"] = (len(sim), "count")
    out["stopping.sim_ms"] = (_ms(sim), "ms")
    out["stopping.sim_steps"] = (steps, "count")
    out["stopping.sim_us_per_step"] = (1e3 * _ms(sim) / steps if steps else 0.0, "us")
    decision = _spans(spans, "stopping.decision")
    out["stopping.decision_calls"] = (len(decision), "count")
    out["stopping.decision_ms"] = (_ms(decision), "ms")

    verify = _spans(spans, "reference.verify")
    out["reference.verify_calls"] = (len(verify), "count")
    out["reference.verify_ms"] = (_ms(verify), "ms")
    out["reference.states"] = (sum(s.get("states", 0) for s in verify), "count")
    out["reference.payoff_evals"] = (counts.get("reference.payoff_eval", 0), "count")
    ratios = [s["gap"] / s["bound"] for s in verify if s.get("bound", 0) > 0]
    out["reference.gap_over_bound_max"] = (max(ratios, default=0.0), "ratio")

    msim = _spans(spans, "mass.sim")
    out["mass.sim_calls"] = (len(msim), "count")
    out["mass.sim_ms"] = (_ms(msim), "ms")
    out["mass.step_calls"] = (counts.get("mass.step", 0), "count")
    distinct = {round(s["fixed_point"], 9) for s in msim if "fixed_point" in s}
    out["mass.fixed_points_distinct"] = (len(distinct), "count")
    out["mass.fp_residual_max"] = (max((s.get("fp_residual", 0.0) for s in msim), default=0.0), "x")

    self_ms = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        self_ms[layer] += 1e3 * (s["end"] - s["start"] - s["child_s"])
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (self_ms[layer], "ms")
    return out
