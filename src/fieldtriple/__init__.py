"""Canonical-map geometry and variational solvers for first-order field
theory on two-parameter domains: jets, phase jets, the maps kappa/alpha/beta,
Lagrangian and Hamiltonian phase dynamics, Legendre transforms, a model
catalog (harmonic maps, the Minkowski string), and a variational grid solver
for Euler-Lagrange boundary-value problems."""

from .autodiff import ScalarField, Taylor, grad, hessian
from .bundles import (Jet, JetCovector, JetTangent, JetVariation, Phase,
                      PhaseCovector, PhaseJet, PhaseTangent, alpha, beta,
                      beta_m, beta_tilde, kappa, kappa_inv, omega2_pair,
                      pair_covector, pair_jet, pair_phase_covector,
                      project_to_jet, project_to_phase)
from .expr import evaluate, expr_to_text, parse_expr
from .errors import (DomainError, ExprSyntaxError, FieldTripleError,
                     GridDomainError, IncompatiblePointsError,
                     InvalidInputError, InvalidParameterError,
                     NoConvergenceError, SingularJacobianError)
from .grid import (Grid, GridField, GridMomentum, SolveReport,
                   boundary_momentum, discrete_action,
                   discrete_action_gradient, discrete_el_residual,
                   momentum_divergence, solve_dirichlet)
from .hamiltonian import (HamiltonianModel, dH, ham_dynamics_member,
                          ham_phase_residual, hamiltonian_from_lagrangian,
                          legendre_invert)
from .lagrangian import (LagrangianModel, SecondJet, dL, el_residual_pointwise,
                         legendre, phase_dynamics_member,
                         phase_relation_residual)
from .models import (MODEL_NAMES, STRING_JET, Uniform, draw_points,
                     get_hamiltonian, get_lagrangian, harmonic_hamiltonian,
                     harmonic_lagrangian, nambu_hamiltonian, nambu_lagrangian,
                     nambu_legendre_closed_form,
                     nambu_legendre_inverse_closed_form,
                     sample_admissible_string_jet,
                     sample_admissible_string_phase, sigma_metric)

__version__ = "0.1.0"
