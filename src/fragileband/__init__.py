"""Game-theoretic toolkit for fragile cooperation under a rational adversary.

Four analysis layers over one model family:

- :mod:`fragileband.game` -- recognition-transformed Prisoner's Dilemma:
  equilibrium phases, the fragile cooperation band, static adversary
  optimum, probabilistic tipping bands.
- :mod:`fragileband.stopping` -- the adversary's stop/continue problem:
  value iteration, regime classification (immediate destruction / rational
  stagnation / intervention abandonment), trajectory simulation.
- :mod:`fragileband.reference` -- reference-dependent stage payoffs and the
  reference-shift stability bound.
- :mod:`fragileband.mass` -- aggregate buzz/backlash dynamics with local
  stability classification.

:mod:`fragileband.scenario` and :mod:`fragileband.cli` wrap everything in a
JSON-scenario-driven, deterministic command-line tool.
"""

from .game import (
    CC,
    CD,
    DC,
    DD,
    PROFILES,
    Action,
    CurveError,
    FragileBand,
    LinearClamped,
    LogisticShifted,
    PayoffMatrix,
    PhaseLabel,
    Profile,
    Recognition,
    RecognitionCurve,
    SaturatingExponential,
    TabulatedCurve,
    adversary_utility,
    band,
    classify_phase,
    classify_phase_nonlinear,
    equilibrium_names,
    min_total_payoff_profile,
    nash_equilibria,
    objective_payoffs,
    tipping_band_probability,
    tipping_masses,
    transform_utilities,
)
from .mass import (
    MassParams,
    MassSimResult,
    MassState,
    NoFixedPointFound,
    StabilityLabel,
    classify_stability,
    find_fixed_point,
    jacobian,
    local_gain,
    logistic,
    response_rates,
    simulate_mass,
    step,
)
from .reference import (
    ClampedLevel,
    HypothesisViolation,
    Identity,
    IdentityLevel,
    Observation,
    Power,
    RandomWalk,
    ReferenceParams,
    Saturating,
    ShapeFn,
    ShiftCheckResult,
    ShiftCheckSetup,
    differences,
    eval_reference_payoff,
    negative_part,
    positive_part,
    ref_shift_bound,
    verify_shift_section,
)
from .scenario import (
    ParseError,
    ResultTable,
    Scenario,
    TOOL_VERSION,
    ValidationError,
    cmd_band,
    cmd_mass_sim,
    cmd_phase_sweep,
    cmd_ref_shift_check,
    cmd_regime_map,
    cmd_simulate,
    load_scenario,
    preset_path,
    save_scenario,
    scenario_from_dict,
    scenario_hash,
    scenario_to_dict,
    with_seed,
)
from .stopping import (
    CostSchedule,
    Decision,
    Deterministic,
    DiscreteShocks,
    DPConfig,
    InvalidProcess,
    MarkovGrid,
    NonConvergence,
    PathStep,
    RegimeLabel,
    Trajectory,
    ValueSolution,
    classify_regime,
    finite_horizon_oracle,
    initial_phi,
    simulate_path,
    stagnation_sufficient,
    stop_value,
    value_iteration,
)

__version__ = TOOL_VERSION
