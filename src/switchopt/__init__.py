"""Distributed optimization simulator over switching noisy networks.

Core entry points are re-exported here; the submodules hold the full API:

- ``expr``: expression parsing and forward-mode gradients
- ``problem``: multi-agent problems and optimality certification
- ``graph``: topologies, Laplacians, spectral gates
- ``chain``: mode-switching Markov chains
- ``dynamics``: the switching stochastic integrator
- ``schedule``: the substep rounds and noise blocks of a batch of members
- ``averaging``: the averaged system and weak-convergence studies
- ``analysis``: energy, Lagrangian and convergence diagnostics
- ``scenario``: one-file experiment definitions
- ``cli``: the command-line front end
"""

from .chain import Generator, sample_path, stationary, validate_generator
from .dynamics import IntegratorConfig, SystemState, build_equilibrium, simulate
from .expr import Expr, parse
from .graph import Graph, Network, lambda2, laplacian
from .problem import AgentSpec, KktCertificate, Problem, derive_multipliers, total_cost
from .scenario import Scenario, load_scenario

__version__ = "0.1.0"

__all__ = [
    "AgentSpec",
    "Expr",
    "Generator",
    "Graph",
    "IntegratorConfig",
    "KktCertificate",
    "Network",
    "Problem",
    "Scenario",
    "SystemState",
    "build_equilibrium",
    "derive_multipliers",
    "lambda2",
    "laplacian",
    "load_scenario",
    "parse",
    "sample_path",
    "simulate",
    "stationary",
    "total_cost",
    "validate_generator",
]
