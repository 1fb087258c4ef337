"""Quantized average consensus on open dynamic directed networks.

Agents hold integer mass pairs, split them into unit tokens every step,
and route the tokens over time-varying directed links while nodes arrive
and depart. The library provides the per-node protocol, a deterministic
round engine, exact conservation and convergence analysis, scenario
loading and validation, and trace reporting.

The names imported below are the quick-start API. The layers underneath
(openavg.graphs, openavg.agent, openavg.engine, openavg.analysis,
openavg.scenario, openavg.reporting) are imported as submodules.
"""

from .analysis import conservation_audit, convergence_time
from .engine import run
from .scenario import load_scenario

__version__ = "0.1.0"
