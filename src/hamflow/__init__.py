"""Numerics for Hamiltonian systems driven by position/momentum boundary data.

Subpackages cover: problem and phase-space types with a forward-AD derivative
stack (:mod:`hamflow.core`), discrete-Hamiltonian variational integrators
(:mod:`hamflow.integrators`), boundary-value solvers and completeness
diagnostics (:mod:`hamflow.bvp`), trivialized dynamics on parallelizable
spaces (:mod:`hamflow.hamel`), adjoint sensitivity (:mod:`hamflow.adjoint`),
forward-backward optimal control (:mod:`hamflow.optcontrol`), accelerated
optimization by symplectic flow (:mod:`hamflow.accelopt`), and the batch CLI
(:mod:`hamflow.cli`).
"""

from .core import (
    BlowUp,
    ConfigError,
    DegenerateRegression,
    EvaluationError,
    HamiltonianProblem,
    HamflowError,
    LegendreInversionFailure,
    MaximallyDegenerateProblem,
    NoConvergence,
    PhasePoint,
    RankDeficientStageSystem,
    SingularJacobian,
    StepFailure,
    Trajectory,
    UnsupportedScheme,
    degeneracy_class,
    hamiltonian_vector_field,
    newton_solve,
)

__version__ = "0.1.0"

__all__ = [
    "BlowUp",
    "ConfigError",
    "DegenerateRegression",
    "EvaluationError",
    "HamiltonianProblem",
    "HamflowError",
    "LegendreInversionFailure",
    "MaximallyDegenerateProblem",
    "NoConvergence",
    "PhasePoint",
    "RankDeficientStageSystem",
    "SingularJacobian",
    "StepFailure",
    "Trajectory",
    "UnsupportedScheme",
    "degeneracy_class",
    "hamiltonian_vector_field",
    "newton_solve",
    "__version__",
]
