"""Central tolerance table.

The library and the test suite both import these, so a tolerance is never
pinned in two places.
"""

# sphere membership after construction and after every geodesic step
UNIT_NORM_TOL = 1e-12

# accepted deviation of a descent start point's norm from 1
START_NORM_TOL = 1e-9

# <q, v> for tangent vectors at q
TANGENT_TOL = 1e-10

# projecting twice equals projecting once
PROJECTION_IDEMPOTENT_TOL = 1e-14

# closed-form outward slope vs. the explicit inner-product route
CROSS_CHECK_TOL = 1e-12

# A0^T A0 - I in Frobenius norm for generated dictionaries
ORTHOGONALITY_TOL = 1e-10

# Riemannian gradient norm at enumerated critical points
CRITICAL_GRAD_TOL = 1e-10

# slack for the descent inequality f(q0) - f(qT) >= (eta/2) sum ||grad||^2
DESCENT_SLACK = 1e-10

# thickness of "tied max magnitude" when testing flow limits / manifolds
TIE_TOL = 1e-9

# relative slack for the section-membership comparison q_n >= (1+zeta)||w||_inf,
# so exact boundary points (equal-magnitude coordinates) classify as members
C_ZETA_BOUNDARY_TOL = 1e-12

# slack for the section ball-inclusion checks
BALL_SLACK = 1e-12

# relative tolerance for the exact zeta / ||w|| update identities (phase retrieval)
PR_IDENTITY_RTOL = 1e-10

# decomposition roundtrip and orthogonality for phase retrieval states
PR_DECOMP_TOL = 1e-12
PR_ORTHO_TOL = 1e-10
