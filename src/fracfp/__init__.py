"""Graded-mesh L1 / P1-FEM solver for the time-fractional Fokker-Planck
equation, with manufactured problems and a convergence-study harness."""

from .fem1d import (
    BcMode,
    SingularSystemError,
    SpatialMesh,
    TriDiagMatrix,
    assemble_G,
    assemble_mass,
    l2_norm,
    load_vector,
    project_initial,
    thomas_solve,
    to_dof,
    to_full,
    uniform_mesh,
)
from .harness import (
    ConvergenceReport,
    ErrorTrace,
    StudyRow,
    compute_errors,
    compute_rate,
    run_study,
    write_csv,
)
from .kernels import (
    ConvolutionWeights,
    interp_probe,
    mittag_leffler,
    omega,
    omega_increment,
)
from .problems import (
    ProblemSpec,
    TruncationError,
    example1,
    example2,
)
from .stepper import SolverConfig, SolverState, Trajectory, assemble_source, solve, step
from .timegrid import GradedMesh, build_mesh

__version__ = "0.1.0"

__all__ = [
    "BcMode",
    "ConvergenceReport",
    "ConvolutionWeights",
    "ErrorTrace",
    "GradedMesh",
    "ProblemSpec",
    "SingularSystemError",
    "SolverConfig",
    "SolverState",
    "SpatialMesh",
    "StudyRow",
    "Trajectory",
    "TriDiagMatrix",
    "TruncationError",
    "assemble_G",
    "assemble_mass",
    "assemble_source",
    "build_mesh",
    "compute_errors",
    "compute_rate",
    "example1",
    "example2",
    "interp_probe",
    "l2_norm",
    "load_vector",
    "mittag_leffler",
    "omega",
    "omega_increment",
    "project_initial",
    "run_study",
    "solve",
    "step",
    "thomas_solve",
    "to_dof",
    "to_full",
    "uniform_mesh",
    "write_csv",
]
