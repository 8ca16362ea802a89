"""Mean-coupled Fokker-Planck dynamics in closed form and on grids."""

from .errors import (ConfigurationError, DegenerateMomentError, DeltaLimitError,
                     FocalPointError, FpknlError, IllPosedInverseError,
                     InputError, InvalidCovarianceError, KernelValidityError,
                     NormalizationError, TruncationError)
from .evolution import evolve_analytic, evolve_quadrature, inverse_evolve, plan_for
from .fdsolver import FDConfig, FDResult, compare, fd_solve
from .kernels import KernelContext, kernel_context, kernel_matrix
from .model import ModelParams, MomentTrajectory, SampledDensity
from .packets import GaussianMixture, GaussianPacket, evolve_packet, propagate_packet
from .symmetry import (InitialOperator, OperatorApplication, SymmetryShifts,
                       apply_initial_op, apply_operator, build_shifts,
                       evolve_operator, linsym_closed_form, linsym_operator,
                       residual_field, symmetry_apply_conclusion,
                       symmetry_apply_evolution, symmetry_apply_shift,
                       symmetry_routes)
from .variations import Matriciant, fraction, matriciant, matriciant_rk4, propagate_pair

__version__ = "0.1.0"
