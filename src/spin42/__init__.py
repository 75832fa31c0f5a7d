"""Spinorial model of compactified Minkowski space.

Real 6-space with a (4,2) form, realized through antilinear operators on
a complex 4-space with a (2,2) pseudo-Hermitian form: generator tables,
the antilinear Hodge star and the self-dual bivector picture, the
covering of the (4,2) rotation group by the pseudo-unitary spinor group,
correspondences between null lines and isotropic spinor subspaces, and
Lie-sphere coordinates for oriented spheres with conformal inversion.
"""

from .forms import (
    DEFAULT_TOL,
    G4,
    G_DIAG,
    ProjectiveNullLine,
    Q6,
    Q_DIAG,
    canonicalize,
    g_form,
    is_null,
    projectivize,
    q_bilinear,
    q_form,
)
from .clifford import (
    GAMMA,
    SIGMA,
    AntilinearOp,
    CheckReport,
    LinearOp,
    antilinear_adjoint,
    apply,
    check_clifford_relations,
    check_sigma_selfduality,
    check_x_reality,
    compose,
    det_identity,
    gamma,
    vector_from_op,
    x_matrix,
)
from .exterior import (
    KVector,
    basis_bivector,
    basis_kvector,
    herm_inner,
    hodge_star,
    is_decomposable,
    phi,
    phi_inverse,
    scalar,
    selfdual_split,
    vector,
    wedge,
)
from .spin import (
    ConformalMatrix6,
    SpinElement,
    covering_matrix,
    is_so_plus,
    is_su22,
    spin_from_vector_pair,
    spin_generate,
    vector_action,
)
from .isotropic import (
    IsotropicPlaneE,
    SpinorLine,
    SpinorPlane,
    four_idempotents,
    idempotent_pair,
    isotropic_plane,
    null_to_spinor_plane,
    partner_null_vector,
    plane_from_spinor_plane,
    plane_to_spinor_line,
    spinor_line_to_plane,
)
from .liesphere import (
    Infinity,
    InfinityReport,
    LieEntity,
    Plane,
    Point,
    Sphere,
    conformal_inversion,
    fixed_sphere_probe,
    is_at_infinity,
    lie_embed,
    lie_extract,
    oriented_contact,
)

__version__ = "0.1.0"
