"""Riemannian gradient descent on the sphere: solvers and landscape probes."""

from .datagen import DictionaryInstance, gen_bg_matrix, gen_instance, haar_orthogonal
from .descent import (
    BallStop,
    DescentConfig,
    DescentTrace,
    recovery_error,
    riemannian_gd,
    riemannian_gd_block,
    section_map,
)
from .landscape import (
    CriticalPoint,
    enumerate_critical_points,
    fluctuation_probe,
    predict_flow_limit,
    sep_success_bound,
    stable_manifold_membership,
    u_direction,
    volume_curve,
    volume_estimate,
)
from .objectives import (
    default_dl_eta,
    default_sep_eta,
    default_sep_mu,
    dl_objective,
    dl_pop_grad_estimate,
    dl_pop_projected_grad_estimate,
    dl_projected_grad,
    log_cosh,
    sep_objective,
    sep_projected_grad,
)
from .phase_retrieval import (
    PRDecomposition,
    pr_decompose,
    pr_descend,
    pr_dist_to_solutions,
    pr_experiment,
    pr_gradient,
    pr_reconstruct,
    pr_region,
    pr_step,
    pr_value,
)
from .sphere import (
    chart_to_sphere,
    exp_map,
    in_c_zeta,
    sample_uniform_sphere,
    sphere_to_chart,
    tangent_project,
    zeta,
)

__version__ = "0.1.0"
