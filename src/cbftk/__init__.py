"""Safety-critical control toolkit for relative-degree-two constraints.

Four control-barrier-function constructions (high-order, rectified,
backstepping, activated backstepping) with exact closed-form safety
filters, forward-mode AD for their gradients, fixed-step closed-loop
simulation and phase-plane validity analysis, demonstrated on an inverted
pendulum and a kinematic bicycle.
"""

from .analysis import GridScan, abc_equivalence_check, grid_scan, validity_report
from .autodiff import Dual, EvaluationError, grad, requ, value_and_grad
from .cbf import (
    ABC,
    BACKSTEPPING,
    CBF_KINDS,
    HOCBF,
    RECBF,
    CbfInstance,
    abc,
    backstepping,
    hocbf,
    recbf,
    recbf_validity_condition,
)
from .core import (
    AssumptionReport,
    ControlAffineSystem,
    DomainError,
    LinearClassK,
    RelDeg2Output,
    ReQUActivation,
    check_constraint_regularity,
    check_output_consistency,
    check_relative_degree,
    lie_derivatives,
    lie_f,
    lie_g,
)
from .safety_filter import (
    LinearGain,
    SafetyFilterSpec,
    SmoothFilter,
    VirtualController,
    check_virtual_controller,
    lambda_exact,
    lambda_half_sontag,
    safety_filter,
    virtual_kappa,
)
from .sim import SafetyMetrics, Trajectory, compute_metrics, rk4_step, simulate
from .systems import (
    BicycleParams,
    PendulumParams,
    Scenario,
    bicycle_scenario,
    lane_keeping_desired,
    pendulum_scenario,
    scenario_by_name,
)

__version__ = "0.1.0"
