"""Laboratory for one-dimensional filamental cellular automata.

Filaments are finite, non-periodic strings of identical finite automata;
end cells read a distinguished empty symbol from their missing neighbor.
The package provides the rule formalism and stepping engine (core,
engine), a small catalogue of studied rules with a text file format
(rules), exhaustive census and exact growth arithmetic (analysis),
growing-population experiments (population), rule-space scans (search),
and trace rendering (render). The ``filaments`` console script fronts
all of it.
"""

from .analysis import (
    Census,
    CensusBudgetError,
    GrowthMatrix,
    census,
    measure_accretion_matrix,
    parity_counts,
)
from .core import ANY, EMPTY, Filament, Neighborhood, Rule, RuleConflictError, RuleEntry
from .engine import (
    Trace,
    TrajectoryReport,
    WaveType,
    default_horizon,
    detect_cycle,
    run_trace,
    step,
)
from .population import (
    PopulationConfig,
    PopulationRun,
    PopulationStats,
    run_population,
    turnover_report,
)
from .render import render_ascii, render_pgm
from .rules import (
    CATALOGUE,
    RuleParseError,
    automaton_i,
    automaton_ii,
    bouncer_rule,
    classify_rule,
    clock_rule,
    load_rule,
    parse_rule,
    rule_named,
    serialize_rule,
)
from .search import (
    SearchVerdict,
    SearchWitness,
    hunt_viable_3state,
    rule_from_index,
    rule_index,
    search_type_a,
)

__all__ = [
    "ANY",
    "CATALOGUE",
    "Census",
    "CensusBudgetError",
    "EMPTY",
    "Filament",
    "GrowthMatrix",
    "Neighborhood",
    "PopulationConfig",
    "PopulationRun",
    "PopulationStats",
    "Rule",
    "RuleConflictError",
    "RuleEntry",
    "RuleParseError",
    "SearchVerdict",
    "SearchWitness",
    "Trace",
    "TrajectoryReport",
    "WaveType",
    "automaton_i",
    "automaton_ii",
    "bouncer_rule",
    "census",
    "classify_rule",
    "clock_rule",
    "default_horizon",
    "detect_cycle",
    "hunt_viable_3state",
    "load_rule",
    "measure_accretion_matrix",
    "parity_counts",
    "parse_rule",
    "render_ascii",
    "render_pgm",
    "rule_from_index",
    "rule_index",
    "rule_named",
    "run_population",
    "run_trace",
    "search_type_a",
    "serialize_rule",
    "step",
    "turnover_report",
]
