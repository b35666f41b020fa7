"""clarklab: numerical laboratory for Clark measures and finite-rank
spectral perturbations of cyclic self-adjoint and unitary operators.

Everything is finite-dimensional and exactly computable: spectral data are
finite atomic measures, transforms are rational functions, and every
identity the package implements is verified against an independent
dense-matrix oracle by the bundled scenario suites (``clark-lab verify-all``).
"""

from .errors import (ClarkLabError, ConstructionError, CyclicityError,
                     DomainError, PoleError, QuadratureError, ResidueError,
                     RootFindingError, ScenarioError)
from .measures import (BorelSetSpec, CircleAtomicMeasure, LineAtomicMeasure,
                       cauchy_transform_disk, cauchy_transform_line,
                       measure_from_json, measure_to_json, measure_of,
                       simon_wolff_integral, simon_wolff_integral_circle,
                       total_mass)
from .herglotz import (BlaschkeProduct, blaschke_eval,
                       boundary_derivative_modulus, cauchy_rational_line,
                       level_set_batch, residue_masses_line,
                       secular_roots_line)
from .rankone import (CyclicOperatorModel, clark_measure,
                      disintegration_check_circle, disintegration_check_line,
                      inner_from_unitary, matrix_oracle_selfadjoint,
                      matrix_oracle_unitary, perturb_selfadjoint,
                      perturb_unitary, simon_wolff_classify, spectral_measure)
from .modelspace import (ModelSpace, ModelVector, build_model_space,
                         hat_conjugate, intertwine_check, knu_alpha,
                         lemma7_decompose, t_alpha_matrix, v_alpha,
                         v_alpha_star)
from .rankn import (AnalyticCurve, RankNPerturbationFamily,
                    curve_disintegration_check, curve_sample,
                    family_model_space, herglotz_positivity_check,
                    knu_alpha_beta, phi_density, recursive_unitary,
                    spectral_measure_of_vector, theorem4_axis_criterion,
                    theorem9_nullset_check)
from .scenarios import (random_model, report_to_json, run_scenario)

__version__ = "0.1.0"
