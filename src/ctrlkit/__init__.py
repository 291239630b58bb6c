"""Controller synthesis and simulation toolkit for cart-pendulum systems,
a planar motorcycle, and barrier-filtered point models."""

from .control import (CBF_SINGULARITY_THRESHOLD, MotorcycleGuidance,
                      SysidWindow, adaptive_gain, cbf_filter_scalar,
                      clf_cbf_step, dip_sliding_target, fsfc, lyapunov_ref_2d,
                      sysid_solve)
from .models import (BlowupError, PlantModel, SimSpec, Trajectory, dip_plant,
                     linearize, motorcycle_lateral_plant, motorcycle_plant,
                     point2d_plant, simulate, sip_factored_model, sip_plant,
                     step_euler)
from .numerics import least_squares, nnmf_rank1, qp_small
from .scenarios import (SCENARIO_DEFAULTS, SCENARIO_IDS, RunReport, emit,
                        emit_table, parse_report, run_scenario,
                        sip_full_gain, sip_interval_gain, sip_robust_gain,
                        sip_stabilizing_gain, trajectory_checksum)
from .stability import (IntervalPoly, RouthResult, bauer_fike_check,
                        interval_poly_stable, routh_stable,
                        sip_closed_loop_perturbation)
from .synthesis import (CareNoSolution, RobustConfig, UncertaintyBounds,
                        design_gain_matrix, eig_sweep, robust_riccati_gain,
                        sip_coefficients, sip_pole_gain, sip_region_bounds,
                        sip_region_feasible, solve_care,
                        vertex_interval_char_poly)

__version__ = "0.1.0"
