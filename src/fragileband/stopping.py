"""The adversary's stop/continue problem over the cooperative surplus.

State is the harvestable surplus phi = 2*R - 2*P, the gap between the
cooperative total and the defection baseline.  Each period the adversary
either stops (induces collapse, harvesting phi minus the collapse cost; the
system then repeats mutual defection forever and the continuation value is
zero) or continues (pays the fragility-maintenance cost and keeps the
discounted expected future value alive):

    V(phi) = max( phi - C_c,  delta * E[V(phi')] - C_m )

Each surplus process states its law once.  Deterministic growth (one atom)
and i.i.d. discrete growth shocks give a ``support`` of :class:`Shock` entries
(unpacking as (g, p)) that multiply phi by 1 + g on a log-spaced grid
truncated at a cap; their mean growth follows from it.  A Markov chain on an
R grid gives its read-only transition ``matrix``, built on first use (mean
growth NaN).  Each process also owns every rule the solver needs of it:
the top of its surplus grid, ``phi_cap``, with the r_cap rules (building no
grid); its ``state_grid``; its ``kernel`` on that grid; and
``simulated_on_chain(costs)``.  The solver and the scenario layer call
these methods and never ask which class a process is.  Costs are
constants, per-period tables (last entry held forever) or period x state
tables, and every reader looks up ``rows[min(t, last)][state]`` in
``collapse_rows`` / ``maintain_rows`` (the simulator in the same rows as
lists, without numpy).  A period x state table has a column
per state of a chain's grid; the other processes leave the solver's grid
when simulated, so ``simulated_on_chain`` accepts wide tables only on a
chain, and only as wide as its grid.  Processes, costs and settings are
validated in plain Python, so loading a scenario does not load numpy; the
solvers do.

:class:`Transition` is the kernel on a grid: one linear-interpolation piece
per shock, or the matrix.  :func:`solve_cells` value-iterates a block of
cells that share a grid (discount, costs and deterministic growth may differ
per cell), each cell with its own tolerance test, so every cell gets the
bits of a one-cell :func:`value_iteration`.  It is the library's one
fixed-point loop: single solves, regime maps and the optimize-mode
reference-shift check (``reference._solve_values``, one block for the base
and every shifted reference of a section) all run through it.  It returns the
continuation value delta * E[V_{t+1}] - C_m(t) of every period, and the
greedy lookup of :class:`ValueSolution` interpolates that row, and the
period's collapse row, over phi, so the successor law is stated once, in
the kernel.  :func:`simulate_path` draws each step's outcome k from a
cumulative row, a chain's current row or a shock law's one row (a
one-outcome row takes no draw, and a path that has nothing to draw builds
no generator), then moves the chain to state k or
multiplies phi by 1 + g_k.

The per-state diagnostics

    delta_gain = delta * E[V'] - phi        (continuation pull)
    cost_differential = C_m - C_c           (cost of waiting vs acting)

drive the regime trichotomy: continuing is strictly preferred when
delta_gain exceeds the cost differential (rational stagnation), stopping
when delta_gain <= -cost_differential (immediate destruction), and the
band |delta_gain| <= |cost_differential| is read as rational nonintervention
(intervention abandonment).  With zero costs and deterministic growth g the
stagnation condition collapses to delta > 1/(1+g).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from numbers import Real
from typing import Callable, Sequence, Union

from ._lazy import np


class InvalidProcess(ValueError):
    """A surplus process violates its structural invariants."""


class NonConvergence(RuntimeError):
    """Value iteration hit the iteration budget before meeting tolerance.

    Usually means the discount factor is too close to 1 for the requested
    tolerance.
    """

    def __init__(self, message: str, iterations: int, residual: float) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class Decision(Enum):
    STOP = "stop"
    CONTINUE = "continue"


class RegimeLabel(Enum):
    IMMEDIATE_DESTRUCTION = "ImmediateDestruction"
    RATIONAL_STAGNATION = "RationalStagnation"
    INTERVENTION_ABANDONMENT = "InterventionAbandonment"


def _check_common(defection_payoff: float, initial_r: float) -> None:
    if not (math.isfinite(defection_payoff) and math.isfinite(initial_r)):
        raise InvalidProcess("process payoffs must be finite")
    if not initial_r > defection_payoff:
        raise InvalidProcess("initial cooperative payoff must satisfy R_0 > P")


@dataclass(frozen=True)
class Shock:
    """One entry of a shock ``support``: a growth rate and its probability, as (g, p)."""

    growth: float
    prob: float

    def __iter__(self):
        return iter((self.growth, self.prob))


class _ShockLaw:
    """I.i.d. multiplicative growth shocks, read from ``support`` as (g, p) shocks."""

    def mean_growth(self) -> float:
        return sum(g * p for g, p in self.support)

    def cooperative_learning(self) -> bool:
        return self.mean_growth() >= 0

    def phi_cap(self, r_cap: float | None) -> float:
        """The top of the surplus grid: 2*(r_cap - P) if a shock grows, else phi0.

        A growing law needs a finite cap of at least initial_r; a ValueError
        whose message starts with ``r_cap`` says which rule fails.
        """
        if not max(g for g, _ in self.support) > 0:
            return initial_phi(self)
        if r_cap is None:
            raise ValueError("r_cap must be set for growing processes")
        if not r_cap >= self.initial_r:
            raise ValueError("r_cap must be at least initial_r")
        phi_hi = 2.0 * (r_cap - self.defection_payoff)
        if not math.isfinite(phi_hi):
            raise ValueError(f"r_cap must give a finite surplus cap 2*(r_cap - P), got {r_cap:g}")
        return phi_hi

    def state_grid(self, r_cap: float | None, grid_points: int) -> tuple[np.ndarray, int]:
        """Log grid to ``phi_cap``, from phi0 (phi0 * 1e-4 if phi can shrink), and phi0's index."""
        phi0 = initial_phi(self)
        phi_hi = self.phi_cap(r_cap)
        phi_lo = phi0 * 1e-4 if min(g for g, _ in self.support) < 0 else phi0
        if phi_hi <= phi_lo * (1.0 + 1e-12):
            return np.array([phi0]), 0
        base = np.geomspace(phi_lo, phi_hi, grid_points)
        base = base[np.abs(base - phi0) > 1e-9 * phi0]
        grid = np.sort(np.concatenate([base, [phi0]]))
        index = int(np.nonzero(grid == phi0)[0][0])
        return grid, index

    def kernel(self, grid: np.ndarray, growth: np.ndarray | None = None) -> Transition:
        """One interpolation piece per shock; ``growth`` gives each cell of a block its own rate."""
        support = self.support if growth is None else ((growth[:, None], 1.0),)
        pieces = []
        for g, p in support:
            lo, hi, w_lo, w_hi = _interp_weights(grid, grid * (1.0 + g))
            if lo.ndim == 2:
                offsets = (np.arange(lo.shape[0]) * grid.size)[:, None]
                lo, hi = lo + offsets, hi + offsets
            pieces.append((p, lo, hi, w_lo, w_hi))
        return Transition(tuple(pieces))

    def simulated_on_chain(self, costs: CostSchedule) -> bool:
        """False: phi leaves the grid, so a cost table wider than 1 raises a ValueError."""
        for name in ("collapse", "maintain"):
            if _cost_width(getattr(costs, name)) > 1:
                raise ValueError(f"{name}: state-dependent costs require a MarkovGrid process")
        return False


@dataclass(frozen=True)
class Deterministic(_ShockLaw):
    """Surplus grows by a fixed factor (1 + growth) each period."""

    growth: float
    defection_payoff: float
    initial_r: float

    def __post_init__(self) -> None:
        _check_common(self.defection_payoff, self.initial_r)
        if not self.growth > -1:
            raise InvalidProcess("growth rates must satisfy g > -1")

    @property
    def support(self) -> tuple[Shock, ...]:
        """The growth law as shocks: a single atom."""
        return (Shock(self.growth, 1.0),)


@dataclass(frozen=True)
class DiscreteShocks(_ShockLaw):
    """Surplus multiplied by (1 + g_k) with probability p_k each period."""

    support: tuple[Shock, ...]
    defection_payoff: float
    initial_r: float

    def __post_init__(self) -> None:
        _check_common(self.defection_payoff, self.initial_r)
        # Any (g, p) pairs become shocks.
        support = tuple(Shock(float(g), float(p)) for g, p in self.support)
        object.__setattr__(self, "support", support)
        if not support:
            raise InvalidProcess("shock support must be nonempty")
        if any(not g > -1 for g, _ in support):
            raise InvalidProcess("growth rates must satisfy g > -1")
        if any(p < 0 for _, p in support):
            raise InvalidProcess("shock probabilities must be nonnegative")
        if abs(sum(p for _, p in support) - 1.0) > 1e-12:
            raise InvalidProcess("shock probabilities must sum to 1")


@dataclass(frozen=True)
class MarkovGrid:
    """Explicit Markov chain on an ascending grid of cooperative payoffs."""

    r_grid: tuple[float, ...]
    transition: tuple[tuple[float, ...], ...]
    defection_payoff: float
    initial_r: float

    def __post_init__(self) -> None:
        _check_common(self.defection_payoff, self.initial_r)
        grid = tuple(float(r) for r in self.r_grid)
        rows = tuple(tuple(float(p) for p in row) for row in self.transition)
        object.__setattr__(self, "r_grid", grid)
        object.__setattr__(self, "transition", rows)
        if len(grid) < 1:
            raise InvalidProcess("grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidProcess("grid values strictly ascending")
        if any(r <= self.defection_payoff for r in grid):
            raise InvalidProcess("grid values must exceed the defection payoff")
        n = len(grid)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise InvalidProcess("transition matrix must be square over the grid")
        for row in rows:
            if any(p < 0 for p in row) or abs(sum(row) - 1.0) > 1e-12:
                raise InvalidProcess("transition rows not stochastic")
        distances = [abs(r - self.initial_r) for r in grid]
        idx = distances.index(min(distances))
        tol = 1e-9 * max(1.0, abs(self.initial_r))
        if distances[idx] > tol:
            raise InvalidProcess("initial_r must be one of the grid values")
        object.__setattr__(self, "initial_r", grid[idx])

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The transition matrix as a read-only array, built on first use."""
        matrix = np.array(self.transition, dtype=float)
        matrix.flags.writeable = False
        return matrix

    @property
    def initial_index(self) -> int:
        return self.r_grid.index(self.initial_r)

    def phi_cap(self, r_cap: float | None) -> float:
        """The top of the chain's own surplus grid; ``r_cap`` is not read."""
        return 2.0 * (self.r_grid[-1] - self.defection_payoff)

    def state_grid(self, r_cap: float | None, grid_points: int) -> tuple[np.ndarray, int]:
        """The chain's own phi grid and ``initial_index``; the arguments are not read."""
        return 2.0 * (np.array(self.r_grid) - self.defection_payoff), self.initial_index

    def kernel(self, grid: np.ndarray) -> Transition:
        """The transition matrix, on the chain's own grid."""
        return Transition(matrix=self.matrix)

    def simulated_on_chain(self, costs: CostSchedule) -> bool:
        """True: a cost table must be 1 or ``len(r_grid)`` wide, else a ValueError is raised."""
        n = len(self.r_grid)
        for name in ("collapse", "maintain"):
            width = _cost_width(getattr(costs, name))
            if width not in (1, n):
                raise ValueError(f"{name}: a period x state table must be {n} wide, not {width}")
        return True

    def mean_growth(self) -> float:
        """NaN: a chain has no single growth rate."""
        return float("nan")

    def cooperative_learning(self) -> bool:
        grid = np.array(self.r_grid)
        return bool(np.all(self.matrix @ grid >= grid - 1e-12))


SurplusProcess = Union[Deterministic, DiscreteShocks, MarkovGrid]

CostValue = Union[float, Sequence[float], Sequence[Sequence[float]]]


def _canonical_cost(value: CostValue):
    """A float, a tuple of floats per period, or a tuple of equally wide period rows."""
    if isinstance(value, Real):
        cost = float(value)
        cells = [cost]
    elif all(isinstance(v, Real) for v in value):
        cost = cells = tuple(map(float, value))
    elif all(not isinstance(row, Real) and all(isinstance(v, Real) for v in row) for row in value):
        cost = tuple(tuple(map(float, row)) for row in value)
        if len(set(map(len, cost))) > 1:
            raise ValueError("a period x state cost table must have rows of one width")
        cells = [v for row in cost for v in row]
    else:
        raise ValueError("cost tables must be scalar, per-period, or period x state")
    if not cells:
        raise ValueError("cost tables must be nonempty")
    if not all(0.0 <= v < math.inf for v in cells):
        raise ValueError("costs must be nonnegative")
    return cost


def _cost_width(cost: CostValue) -> int:
    """The row width of a canonical period x state table; 1 for any other cost."""
    return len(cost[0]) if isinstance(cost, tuple) and isinstance(cost[0], tuple) else 1


def _cost_rows(value: CostValue, n_states: int) -> list[list[float]]:
    """The cost over ``n_states`` states, one row per tabulated period."""
    rows = value if isinstance(value, tuple) else (value,)
    rows = [list(row) if isinstance(row, tuple) else [row] for row in rows]
    if len(rows[0]) not in (1, n_states):
        raise ValueError("state-dependent cost table width must match grid size")
    return [row * n_states if len(row) == 1 else row for row in rows]


@dataclass(frozen=True)
class CostSchedule:
    """Collapse-induction and fragility-maintenance costs.

    Each entry is a nonnegative constant, a per-period sequence (the last
    value is held for all later periods), or a period x state table whose
    width must match the solver's state grid.
    """

    collapse: CostValue = 0.0
    maintain: CostValue = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "collapse", _canonical_cost(self.collapse))
        object.__setattr__(self, "maintain", _canonical_cost(self.maintain))

    def collapse_rows(self, n_states: int) -> np.ndarray:
        """Collapse cost over the states, one row per tabulated period."""
        return np.array(_cost_rows(self.collapse, n_states))

    def maintain_rows(self, n_states: int) -> np.ndarray:
        """Maintenance cost over the states, one row per tabulated period."""
        return np.array(_cost_rows(self.maintain, n_states))


@dataclass(frozen=True)
class DPConfig:
    """Solver settings: discount, stopping criterion, and grid truncation."""

    delta: float
    tolerance: float = 1e-9
    max_iterations: int = 10**6
    r_cap: float | None = None
    grid_points: int = 200

    def __post_init__(self) -> None:
        if not 0 < self.delta < 1:
            raise ValueError("delta must satisfy 0 < delta < 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must satisfy tolerance > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must satisfy max_iterations >= 1")
        if self.grid_points < 2:
            raise ValueError("grid_points must satisfy grid_points >= 2")


def initial_phi(process: SurplusProcess) -> float:
    return 2.0 * (process.initial_r - process.defection_payoff)


def stop_value(r_t: float, p: float, collapse_cost: float) -> float:
    """Immediate harvest from inducing collapse: (2*R - 2*P) - C_c."""
    return 2.0 * (r_t - p) - collapse_cost


def stagnation_sufficient(delta: float, g: float) -> bool:
    """Growth alone justifies waiting: true iff delta > 1 / (1 + g).

    Sufficient condition for continuation with zero costs and expected
    surplus growth at rate g.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must satisfy 0 < delta < 1")
    if not g > -1:
        raise ValueError("growth rates must satisfy g > -1")
    return delta > 1.0 / (1.0 + g)


def classify_regime(delta_gain: float, cost_differential: float) -> RegimeLabel:
    """Map the (delta_gain, cost_differential) diagnostics to a regime.

    The nonintervention band |delta_gain| <= |cost_differential| is
    evaluated first, so the function is total even where the three raw
    conditions overlap; the remaining cases split on the strict stagnation
    inequality delta_gain > cost_differential.
    """
    if abs(delta_gain) <= abs(cost_differential):
        return RegimeLabel.INTERVENTION_ABANDONMENT
    if delta_gain > cost_differential:
        return RegimeLabel.RATIONAL_STAGNATION
    return RegimeLabel.IMMEDIATE_DESTRUCTION


def _interp_weights(grid: np.ndarray, targets: np.ndarray):
    """Linear-interpolation indices/weights with clamping at both grid ends."""
    n = grid.size
    clamped = np.clip(targets, grid[0], grid[-1])
    if n == 1:
        zeros = np.zeros(clamped.shape, dtype=int)
        return zeros, zeros, np.ones_like(clamped), np.zeros_like(clamped)
    hi = np.clip(np.searchsorted(grid, clamped, side="left"), 1, n - 1)
    lo = hi - 1
    width = grid[hi] - grid[lo]
    w_hi = (clamped - grid[lo]) / width
    return lo, hi, 1.0 - w_hi, w_hi


@dataclass(frozen=True, eq=False)
class Transition:
    """Successor law on a phi grid: E[V(phi')] at every grid state.

    A diffuse process has one interpolation piece (p, lo, hi, w_lo, w_hi)
    per growth shock.  Its arrays are (states,) when every cell shares the
    kernel; when each cell has its own growth rate they are (cells, states),
    with ``lo`` and ``hi`` flat indices into a C-ordered (cells, states)
    value block.  A MarkovGrid has its transition matrix instead.
    """

    pieces: tuple[tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...] = ()
    matrix: np.ndarray | None = None

    def expect(self, values: np.ndarray) -> np.ndarray:
        """E[V(successor)] for values over the grid, (states,) or (cells, states)."""
        if self.matrix is not None:
            # One matrix-vector product per cell: a matrix-matrix product
            # sums in another order, and the bits would depend on the block.
            return np.matmul(self.matrix, values[..., None])[..., 0]
        # p * (w_lo * V[lo] + w_hi * V[hi]) summed over the pieces, computed
        # in place on the gathered copies to keep a block's working set small.
        total = None
        for p, lo, hi, w_lo, w_hi in self.pieces:
            if lo.ndim == 1:
                term, upper = values[..., lo], values[..., hi]
            else:
                term, upper = np.take(values, lo), np.take(values, hi)
            term *= w_lo
            upper *= w_hi
            term += upper
            term *= p
            if total is None:
                total = term
            else:
                total += term
        return total

    def select(self, keep: np.ndarray) -> "Transition":
        """The kernel of the cells where ``keep`` is true."""
        if self.matrix is not None or self.pieces[0][1].ndim == 1:
            return self
        rows = np.flatnonzero(keep)
        shift = ((np.arange(rows.size) - rows) * self.pieces[0][1].shape[1])[:, None]
        return Transition(
            tuple(
                (p, lo[rows] + shift, hi[rows] + shift, w_lo[rows], w_hi[rows])
                for p, lo, hi, w_lo, w_hi in self.pieces
            )
        )


def _period(rows: Sequence[np.ndarray], t: int) -> np.ndarray:
    return rows[min(t, len(rows) - 1)]


def _block_rows(array: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Per-cell arrays are 2-D with one row per cell; 1-D arrays are shared."""
    return array[keep] if array.ndim == 2 else array


@dataclass(frozen=True, eq=False)
class CellSolutions:
    """Period-0 results of a block solve, one row per cell.

    ``values``, ``stop``, ``delta_gain`` and ``cost_differential`` are
    (cells, states); ``iterations``, ``residual`` and ``converged`` are
    (cells,).  ``continuation`` holds the continuation value
    delta * E[V_{t+1}] - C_m(t) of periods 0 to the tail, each (cells,
    states); the last is held for every later period, and under constant
    costs it is the only one.  ``fixed_point`` is the stationary value
    under the tail costs.  A cell that misses the tolerance reports the
    iteration budget and its last residual; a cell whose values overflow
    stops at its first NaN residual (inf - inf) and reports that iteration
    and residual.  Neither is ``converged``.
    """

    values: np.ndarray
    stop: np.ndarray
    delta_gain: np.ndarray
    cost_differential: np.ndarray
    continuation: tuple[np.ndarray, ...]
    fixed_point: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    converged: np.ndarray


def solve_cells(
    grid: np.ndarray,
    kernel: Transition,
    delta: np.ndarray,
    collapse: Sequence[np.ndarray],
    maintain: Sequence[np.ndarray],
    tolerance: float,
    max_iterations: int,
    residuals: list[float] | None = None,
) -> CellSolutions:
    """Value-iterate a block of cells that share ``grid`` and ``kernel``.

    ``delta`` holds one discount per cell.  ``collapse`` and ``maintain``
    hold one entry per tabulated period (the last is held): a (states,) row
    shared by every cell, a (cells, 1) column of per-cell constants, or a
    (cells, states) block with one row per cell.
    The stationary tail is iterated to the sup-norm tolerance, cell by
    cell, and the finite cost prefix is then backward-inducted to period 0,
    keeping the continuation value of every period.
    ``residuals``, when given, receives the residual history of a one-cell
    block.
    """
    cells, n = delta.size, grid.size
    delta = delta[:, None]
    tail_t = max(len(collapse), len(maintain)) - 1
    tail_values = np.empty((cells, n))
    iterations = np.full(cells, max_iterations)
    residual = np.empty(cells)

    active = np.arange(cells)
    values = np.zeros((cells, n))
    step_kernel, step_delta = kernel, delta
    stop_tail = grid - _period(collapse, tail_t)
    maintain_tail = _period(maintain, tail_t)
    for iteration in range(1, max_iterations + 1):
        updated = step_kernel.expect(values)
        updated *= step_delta
        updated -= maintain_tail
        np.maximum(stop_tail, updated, out=updated)
        change = updated - values
        step = np.abs(change, out=change).max(axis=1)
        values = updated
        if residuals is not None:
            residuals.append(float(step[0]))
        # A NaN residual (overflowed values, inf - inf) is never kept: the
        # cell leaves at once, unconverged.
        keep = step >= tolerance
        if not keep.all():
            done = ~keep
            finished = active[done]
            tail_values[finished] = values[done]
            iterations[finished] = iteration
            residual[finished] = step[done]
            if not keep.any():
                break
            active, values, step = active[keep], values[keep], step[keep]
            step_kernel, step_delta = step_kernel.select(keep), step_delta[keep]
            stop_tail = _block_rows(stop_tail, keep)
            maintain_tail = _block_rows(maintain_tail, keep)
    else:
        tail_values[active] = values
        residual[active] = step

    # Backward-induct the nonstationary cost prefix down to period 0; the
    # continuation of period t is delta * E[V_{t+1}] - C_m(t), and the
    # held tail shares one expectation with period tail - 1.
    expected_next = kernel.expect(tail_values)
    continuation = [delta * expected_next - _period(maintain, tail_t)]
    for t in range(tail_t - 1, -1, -1):
        continuation.insert(0, delta * expected_next - _period(maintain, t))
        if t:
            expected_next = kernel.expect(np.maximum(grid - _period(collapse, t), continuation[0]))
    stop_now, continue_now = grid - collapse[0], continuation[0]
    return CellSolutions(
        values=np.maximum(stop_now, continue_now),
        stop=stop_now >= continue_now,
        delta_gain=delta * expected_next - grid,
        cost_differential=np.broadcast_to(maintain[0] - collapse[0], (cells, n)),
        continuation=tuple(continuation),
        fixed_point=tail_values,
        iterations=iterations,
        residual=residual,
        converged=residual < tolerance,
    )


def non_convergence_message(tolerance: float, max_iterations: int, residual: float) -> str:
    return (
        "value iteration did not reach tolerance "
        f"{tolerance:g} within {max_iterations} iterations "
        f"(residual {residual:.3e}); delta may be too close to 1"
    )


@dataclass(eq=False)
class ValueSolution:
    """Converged values, greedy policy and regime diagnostics per state.

    For time-varying cost tables the reported layer is period 0: the solver
    finds the stationary fixed point under the held tail costs and then
    backward-inducts the finite prefix.  ``values`` satisfies the max
    structure, and ``policy`` is Stop exactly where the stop value is at
    least the continuation value (ties stop).  The greedy lookup at period t
    interpolates the solver's own continuation and collapse rows of period
    t, so it needs no successor law of its own.
    """

    phi_grid: np.ndarray
    values: np.ndarray
    policy: tuple[Decision, ...]
    delta_gain: np.ndarray
    cost_differential: np.ndarray
    iterations: int
    residual: float
    residuals: tuple[float, ...]
    initial_index: int
    _continuation: tuple[np.ndarray, ...]
    _collapse: np.ndarray

    @property
    def initial_value(self) -> float:
        return float(self.values[self.initial_index])

    def regime_at(self, index: int) -> RegimeLabel:
        return classify_regime(
            float(self.delta_gain[index]), float(self.cost_differential[index])
        )

    def continuation_value_at(self, phi: float, t: int = 0) -> float:
        """Greedy continuation estimate at an arbitrary surplus level.

        Interpolates the solver's continuation delta * E[V_{t+1}] - C_m(t)
        of period t; at a grid state it is that value exactly.
        """
        return float(np.interp(phi, self.phi_grid, _period(self._continuation, t)))

    def stop_value_at(self, phi: float, t: int = 0) -> float:
        """phi - C_c(t), the collapse row of period t interpolated like the continuation."""
        return phi - float(np.interp(phi, self.phi_grid, _period(self._collapse, t)))

    def decision_at(self, phi: float, t: int = 0) -> Decision:
        if self.stop_value_at(phi, t) >= self.continuation_value_at(phi, t):
            return Decision.STOP
        return Decision.CONTINUE


def value_iteration(
    process: SurplusProcess, costs: CostSchedule, config: DPConfig
) -> ValueSolution:
    """Solve the stop/continue problem to the configured sup-norm tolerance.

    The backup operator is a delta-contraction, so successive residuals
    shrink at least geometrically; the iteration budget is a guard against
    discounts too close to 1 for the tolerance.  This is the one-cell call
    of :func:`solve_cells`.
    """
    grid, initial_index = process.state_grid(config.r_cap, config.grid_points)
    collapse, maintain = costs.collapse_rows(grid.size), costs.maintain_rows(grid.size)
    residuals: list[float] = []
    block = solve_cells(
        grid,
        process.kernel(grid),
        np.array([config.delta]),
        collapse,
        maintain,
        config.tolerance,
        config.max_iterations,
        residuals,
    )
    if not block.converged[0]:
        raise NonConvergence(
            non_convergence_message(config.tolerance, config.max_iterations, residuals[-1]),
            iterations=len(residuals),
            residual=residuals[-1],
        )
    return ValueSolution(
        phi_grid=grid,
        values=block.values[0],
        policy=tuple(Decision.STOP if m else Decision.CONTINUE for m in block.stop[0]),
        delta_gain=block.delta_gain[0],
        cost_differential=block.cost_differential[0].copy(),
        iterations=len(residuals),
        residual=residuals[-1],
        residuals=tuple(residuals),
        initial_index=initial_index,
        _continuation=tuple(row[0] for row in block.continuation),
        _collapse=collapse,
    )


def finite_horizon_oracle(
    process: SurplusProcess,
    costs: CostSchedule,
    delta: float,
    horizon: int,
    r_cap: float | None = None,
    grid_points: int = 200,
) -> np.ndarray:
    """Exact backward induction from terminal value 0 over ``horizon`` periods.

    Independent check for :func:`value_iteration`: on the same grid the two
    agree within delta**horizon times the value scale.
    """
    if horizon < 1:
        raise ValueError("horizon must satisfy horizon >= 1")
    if not 0 < delta < 1:
        raise ValueError("delta must satisfy 0 < delta < 1")
    grid, _ = process.state_grid(r_cap, grid_points)
    kernel = process.kernel(grid)
    collapse, maintain = costs.collapse_rows(grid.size), costs.maintain_rows(grid.size)
    values = np.zeros(grid.size)
    for t in range(horizon - 1, -1, -1):
        values = np.maximum(
            grid - _period(collapse, t), delta * kernel.expect(values) - _period(maintain, t)
        )
    return values


@dataclass(frozen=True)
class PathStep:
    """One period of a simulated trajectory."""

    t: int
    r: float
    phi: float
    action: str
    stage_payoff: float
    objective_total: float


@dataclass(eq=False)
class Trajectory:
    steps: list[PathStep]
    stop_time: int | None
    discounted_payoff: float
    seed: int


PolicyRule = Union[ValueSolution, str, Callable[[int, float], Decision]]


def _resolve_decision(policy: PolicyRule, t: int, phi: float) -> Decision:
    if isinstance(policy, ValueSolution):
        return policy.decision_at(phi, t)
    if isinstance(policy, str):
        if policy == "always_stop":
            return Decision.STOP
        if policy == "never_stop":
            return Decision.CONTINUE
        raise ValueError("policy string must be 'always_stop' or 'never_stop'")
    return policy(t, phi)


def simulate_path(
    process: SurplusProcess,
    costs: CostSchedule,
    policy: PolicyRule,
    delta: float,
    horizon: int,
    seed: int = 0,
) -> Trajectory:
    """Simulate one seeded trajectory under a policy.

    Stage payoffs: stopping harvests phi - C_c once; continuing pays -C_m.
    After the first stop the state is absorbing: stage payoffs are exactly 0
    and the players' total payoff is pinned at 2P (the surplus column
    reports 0, there being nothing left to harvest).  The discounted sum of
    stage payoffs is the adversary's realized payoff.
    """
    if horizon < 1:
        raise ValueError("horizon must satisfy horizon >= 1")
    p = process.defection_payoff
    # Each outcome row is cumulative: a chain has one per state, a shock
    # law one row over its shocks.
    chain = process.simulated_on_chain(costs)
    if chain:
        outcomes = [list(itertools.accumulate(row)) for row in process.transition]
        state = process.initial_index
    else:
        outcomes = [list(itertools.accumulate(q for _, q in process.support))]
        growths = [g for g, _ in process.support]
        state = 0
    # A row with one outcome takes no draw; the draws feed nothing else.
    rng = np.random.default_rng(seed) if any(len(row) > 1 for row in outcomes) else None
    collapse = _cost_rows(costs.collapse, len(outcomes))
    maintain = _cost_rows(costs.maintain, len(outcomes))
    r = process.initial_r
    phi = 2.0 * (r - p)

    steps: list[PathStep] = []
    stop_time: int | None = None
    discounted = 0.0
    for t in range(horizon):
        if stop_time is not None:
            steps.append(PathStep(t, r, 0.0, "absorbed", 0.0, 2.0 * p))
            continue
        if _resolve_decision(policy, t, phi) is Decision.STOP:
            stage = phi - _period(collapse, t)[state]
            steps.append(PathStep(t, r, phi, "stop", stage, 2.0 * p))
            discounted += delta**t * stage
            stop_time = t
            continue
        stage = -_period(maintain, t)[state]
        steps.append(PathStep(t, r, phi, "continue", stage, 2.0 * r))
        discounted += delta**t * stage
        row = outcomes[state]
        k = min(bisect.bisect_right(row, rng.random()), len(row) - 1) if len(row) > 1 else 0
        if chain:
            state, r = k, process.r_grid[k]
            phi = 2.0 * (r - p)
        else:
            phi *= 1.0 + growths[k]
            r = p + phi / 2.0
    return Trajectory(
        steps=steps, stop_time=stop_time, discounted_payoff=discounted, seed=seed
    )
