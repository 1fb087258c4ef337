"""Quantized average consensus on open dynamic directed networks.

Agents hold integer mass pairs, split them into unit tokens every step,
and route the tokens over time-varying directed links while nodes arrive
and depart. The library provides the per-node protocol, a deterministic
round engine, exact conservation and convergence analysis, scenario
loading and validation, and trace reporting.

The names imported below are the package's public API.
"""

from .agent import (
    AgentState,
    MassMessage,
    SplitResult,
    StepOutcome,
    depart_step,
    init_active,
    quantized_estimate,
    receive,
    remaining_step,
    split_mass,
)
from .analysis import (
    AuditRow,
    ConvergenceReport,
    ErrorValue,
    conservation_audit,
    consensus_error,
    convergence_time,
    true_average,
)
from .engine import (
    EngineInvariantError,
    NodeVars,
    RoundRecord,
    Violation,
    draw_topology,
    run,
)
from .graphs import (
    DigraphInstance,
    MembershipSets,
    NodeId,
    directed_cycle,
    generate_instance_family,
    is_strongly_connected,
    membership_sets,
    out_neighbors,
    random_out_degree_instance,
    strongly_connected_components,
    union_digraph,
)
from .scenario import (
    ChurnEvent,
    ChurnInterval,
    ExplicitChurn,
    ExplicitStates,
    ExplicitTopology,
    Finding,
    RandomFamilyTopology,
    Scenario,
    ScenarioFormatError,
    ScenarioValidationError,
    StochasticChurn,
    UniformIntStates,
    ValidationReport,
    load_scenario,
    parse_scenario,
    validate_scenario,
)

__version__ = "0.1.0"
