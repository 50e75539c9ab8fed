"""Seeded generation of the scenario documents each workload feeds the program.

Every workload starts from the two bundled presets and derives its inputs
from ``random.Random(seed)`` alone, so one seed always yields byte-identical
scenario JSON.  The documents are written to the run's work directory and
read back through ``fragileband.scenario.load_scenario``, which validates
them the same way the CLI does.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

PRESETS = ("sns", "metagame")
CLI_COMMANDS = ("band", "phase-sweep", "regime-map", "simulate", "mass-sim", "ref-shift-check")


@dataclass(frozen=True)
class Size:
    """Input sizes of one pass; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    regime_steps: int  # cells per axis of each generated regime map
    big_map_steps: int  # cells per axis of the scaled sns map
    paths_per_case: int  # simulate_path calls per Monte Carlo case of the accuracy panel
    ref_grid_points: int  # reference-shift setup grid
    phase_points: int  # phase-sweep w points
    starts_per_basin: int  # seeded mass starts per attracting fixed point


FULL = Size(regime_steps=20, big_map_steps=100, paths_per_case=500,
            ref_grid_points=121, phase_points=201, starts_per_basin=8)
TINY = Size(regime_steps=3, big_map_steps=4, paths_per_case=4,
            ref_grid_points=9, phase_points=5, starts_per_basin=1)


@dataclass
class Inputs:
    """Generated documents (name -> dict) plus workload-specific extras."""

    documents: dict[str, dict]
    extras: dict = field(default_factory=dict)

    def encoded(self) -> dict[str, bytes]:
        return {
            name: (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
            for name, doc in self.documents.items()
        }

    def sha256(self) -> str:
        """Digest of every scenario document and of the extras (path seeds, mass starts)."""
        digest = hashlib.sha256()
        for name, blob in sorted(self.encoded().items()):
            digest.update(name.encode("utf-8") + b"\0" + blob)
        digest.update(json.dumps(self.extras, sort_keys=True).encode("utf-8"))
        return digest.hexdigest()

    def write(self, directory: Path) -> dict[str, Path]:
        directory.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, blob in self.encoded().items():
            path = directory / f"{name}.json"
            path.write_bytes(blob)
            paths[name] = path
        return paths


def _preset(name: str) -> dict:
    from fragileband.scenario import preset_path

    return json.loads(Path(preset_path(name)).read_text(encoding="utf-8"))


def _u(rng: random.Random, lo: float, hi: float, digits: int = 4) -> float:
    return round(rng.uniform(lo, hi), digits)


def _jitter(rng: random.Random, value: float, share: float = 0.05) -> float:
    """``value`` moved by at most ``share`` of itself, so the seed barely changes the cost."""
    return round(value * (1.0 + rng.uniform(-share, share)), 4)


def markov_chain(rng: random.Random, defection_payoff: float, states: int = 12) -> dict:
    """An ascending R grid with a banded, upward-leaning row-stochastic transition.

    The seed jitters the grid spacing and the band weights by a few percent
    around one fixed shape.
    """
    r_grid = []
    r = defection_payoff + 0.75
    for _ in range(states):
        r_grid.append(round(r, 4))
        r += _jitter(rng, 0.6)
    shape = {-2: 0.3, -1: 0.6, 0: 1.0, 1: 0.9, 2: 0.5}
    transition = []
    for i in range(states):
        weights = [0.0] * states
        for offset, weight in shape.items():
            if 0 <= i + offset < states:
                weights[i + offset] = _jitter(rng, weight)
        total = sum(weights)
        row = [w / total for w in weights]
        # Put the rounding remainder on the diagonal so the row sums to 1.
        row[i] += 1.0 - sum(row)
        transition.append(row)
    return {
        "kind": "markov_grid",
        "r_grid": r_grid,
        "transition": transition,
        "defection_payoff": defection_payoff,
        "initial_r": r_grid[3],
    }


def _dp_document(base: dict, name: str, seed: int, dp: dict) -> dict:
    return {"name": name, "seed": seed, "payoff_matrix": copy.deepcopy(base["payoff_matrix"]),
            "dp": dp}


def cli_presets(seed: int, size: Size) -> Inputs:
    """The two presets unchanged; the seed reaches the CLI as ``--seed``."""
    return Inputs(documents={name: _preset(name) for name in PRESETS})


def regime_sweep(seed: int, size: Size) -> Inputs:
    """Nine DP variants (3 processes x 3 grid/cap settings) plus the scaled sns map.

    Grid points and cap multipliers are paired as a Latin square, so every
    process meets every grid size and every cap multiplier once.  The axes
    are fixed; the seed jitters costs and process parameters by a few
    percent, so every seed asks for about the same work.
    """
    rng = random.Random(seed)
    sns, meta = _preset("sns"), _preset("metagame")
    steps = size.regime_steps
    grid_points = (80, 160, 320)
    cap_factors = (1, 2, 4)
    documents = {}
    for p, kind in enumerate(("deterministic", "discrete_shocks", "markov_grid")):
        for k in range(3):
            cap_factor = cap_factors[(k + p) % 3]
            delta_axis = {"start": 0.5, "stop": 0.99, "steps": steps}
            if kind == "deterministic":
                base = sns
                dp = copy.deepcopy(sns["dp"])
                dp["costs"] = {"collapse": _jitter(rng, 0.6), "maintain": _jitter(rng, 0.2)}
                second = ("growth", {"start": 0.0, "stop": 0.5, "steps": steps})
            elif kind == "discrete_shocks":
                base = meta
                dp = copy.deepcopy(meta["dp"])
                dp["process"]["support"] = [
                    {"growth": _jitter(rng, 0.15), "prob": 0.6},
                    {"growth": _jitter(rng, -0.05), "prob": 0.4},
                ]
                dp["costs"] = {
                    "collapse": [_jitter(rng, 1.0), _jitter(rng, 0.9), _jitter(rng, 0.8)],
                    "maintain": [_jitter(rng, 0.6), _jitter(rng, 0.45), _jitter(rng, 0.3)],
                }
                second = ("maintain_cost", {"start": 0.0, "stop": 1.2, "steps": steps})
            else:
                base = sns
                dp = copy.deepcopy(sns["dp"])
                dp["process"] = markov_chain(rng, dp["process"]["defection_payoff"])
                dp["costs"] = {"collapse": 0.0, "maintain": _jitter(rng, 0.2)}
                second = ("collapse_cost", {"start": 0.0, "stop": 2.0, "steps": steps})
            dp["sweep"] = {"delta": delta_axis, second[0]: second[1]}
            dp["config"]["grid_points"] = grid_points[k]
            dp["config"]["r_cap"] = base["dp"]["config"]["r_cap"] * cap_factor
            name = f"{kind}-g{grid_points[k]}-cap{cap_factor}x"
            documents[name] = _dp_document(base, name, seed, dp)
    big = copy.deepcopy(sns)
    big["name"] = f"sns-{size.big_map_steps}x{size.big_map_steps}"
    big["seed"] = seed
    big["dp"]["sweep"] = {
        "delta": {"start": 0.5, "stop": 0.99, "steps": size.big_map_steps},
        "growth": {"start": 0.0, "stop": 0.5, "steps": size.big_map_steps},
    }
    documents[big["name"]] = big
    return Inputs(documents=documents)


CAP_BINDING = {
    "kind": "discrete_shocks",
    "support": [{"growth": 0.3, "prob": 0.7}, {"growth": -0.1, "prob": 0.3}],
    "defection_payoff": 2.0,
    "initial_r": 4.0,
}


# Cases whose greedy paths do not depend on the path seed: sns grows
# deterministically and metagame stops at once.
DETERMINISTIC_PATHS = ("sns", "metagame")


def greedy_mc(seed: int, size: Size) -> Inputs:
    """Four stop/continue cases for the accuracy panel, each simulated along seeded greedy paths.

    ``capbind`` grows in expectation faster than it is discounted
    (delta * E[1 + g] > 1), so the grid cap binds; it is kept on purpose so
    that the simulator/DP mismatch stays visible in ``stopping.mc_bias_se``.
    """
    rng = random.Random(seed)
    sns, meta = _preset("sns"), _preset("metagame")
    markov_dp = copy.deepcopy(sns["dp"])
    markov_dp.pop("sweep")
    markov_dp["process"] = markov_chain(rng, markov_dp["process"]["defection_payoff"])
    markov_dp["costs"] = {"collapse": _jitter(rng, 0.3), "maintain": _jitter(rng, 0.1)}
    capbind_dp = {
        "delta": 0.97,
        "process": copy.deepcopy(CAP_BINDING),
        "costs": {"collapse": 0.0, "maintain": 0.0},
        "config": {"tolerance": 1e-9, "max_iterations": 200000, "r_cap": 60.0,
                   "grid_points": 200},
        "horizon": 30,
        "policy": "greedy",
    }
    documents = {
        "sns": _dp_document(sns, "sns", seed, {k: v for k, v in sns["dp"].items() if k != "sweep"}),
        "metagame": _dp_document(meta, "metagame", seed,
                                 {k: v for k, v in meta["dp"].items() if k != "sweep"}),
        "markov": _dp_document(sns, "markov", seed, markov_dp),
        "capbind": _dp_document(sns, "capbind", seed, capbind_dp),
    }
    path_seeds = {
        name: [rng.randrange(2**31) for _ in range(size.paths_per_case)] for name in documents
    }
    return Inputs(documents=documents, extras={"path_seeds": path_seeds})


def _drift_roots(params, forecast: float, reference: float) -> list[float]:
    """Every sign change of step(x) - x on the bracket where roots can lie, bisected.

    |kappa * (P - N)| < kappa, so every fixed point satisfies
    |x - x_bar| < kappa / rho.
    """
    from fragileband.mass import MassState, step

    def drift(x: float) -> float:
        return step(MassState(x=x, forecast=forecast, reference=reference), params) - x

    half = params.kappa / params.rho + 1.0
    lo = params.x_bar - half
    n = 4000
    xs = [lo + 2.0 * half * i / n for i in range(n + 1)]
    values = [drift(x) for x in xs]
    roots = []
    for a, b, fa, fb in zip(xs, xs[1:], values, values[1:]):
        if fa == 0.0:
            roots.append(a)
        elif fa * fb < 0:
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm = drift(mid)
                if fm == 0.0 or b - a < 1e-15 * max(1.0, abs(mid)):
                    a = b = mid
                    break
                if fa * fm < 0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    return roots


def fine_grids(seed: int, size: Size) -> Inputs:
    """Fine reference-shift grids, dense noisy phase sweeps and seeded mass starts.

    Mass starts: each fixed point of the drift is found by scanning and
    bisection; repelling points (buzz) are started exactly on the root, the
    only place damped iteration finds them, and every attracting point gets
    seeded starts inside its basin (within 40% of the gap to its nearest
    neighbour root).
    """
    from fragileband.scenario import scenario_from_dict

    rng = random.Random(seed)
    documents = {}
    mass_starts = {}
    for name in PRESETS:
        doc = _preset(name)
        doc["seed"] = seed
        doc["reference"]["setup"]["grid"]["points"] = size.ref_grid_points
        doc["reference"]["kappas"] += [_u(rng, -0.3, 0.3), _u(rng, -0.3, 0.3)]
        doc["recognition"]["sweep"]["steps"] = size.phase_points
        documents[name] = doc
        mass = scenario_from_dict(doc).mass
        state = mass.state
        roots = _drift_roots(mass.params, state.forecast, state.reference)
        starts = []
        for i, root in enumerate(roots):
            gaps = [abs(root - other) for j, other in enumerate(roots) if j != i]
            gap = min(gaps) if gaps else 1.0
            if _drift_slope(mass.params, state.forecast, state.reference, root) > 0:
                starts.append(root)
            else:
                starts += [root + rng.uniform(-0.4, 0.4) * gap
                           for _ in range(size.starts_per_basin)]
        mass_starts[name] = starts
    return Inputs(documents=documents, extras={"mass_starts": mass_starts})


def _drift_slope(params, forecast: float, reference: float, x: float) -> float:
    from fragileband.mass import MassState, step

    h = 1e-6 * max(1.0, abs(x))
    f = [step(MassState(x=x + s, forecast=forecast, reference=reference), params) - (x + s)
         for s in (-h, h)]
    return (f[1] - f[0]) / (2.0 * h)


GENERATORS = {
    "cli-presets": cli_presets,
    "regime-sweep": regime_sweep,
    "fine-grids": fine_grids,
}
