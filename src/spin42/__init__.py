"""Spinorial model of compactified Minkowski space.

Real 6-space with a (4,2) form, realized through antilinear operators on
a complex 4-space with a (2,2) pseudo-Hermitian form: generator tables,
the antilinear Hodge star and the self-dual bivector picture, the
covering of the (4,2) rotation group by the pseudo-unitary spinor group,
correspondences between null lines and isotropic spinor subspaces, and
Lie-sphere coordinates for oriented spheres with conformal inversion.

Importing the package runs none of its layers.  Each layer module is
registered in sys.modules and as an attribute of the package through
importlib.util.LazyLoader, and its body runs on the first access to one
of its attributes; the names exported here are read off their module on
each access (PEP 562).
"""

import importlib.util
import sys

# module -> the public names it defines that the package exports
_EXPORTS = {
    "forms": ("DEFAULT_TOL", "G4", "G_DIAG", "ProjectiveNullLine", "Q6", "Q_DIAG",
              "canonicalize", "g_form", "is_null", "projectivize", "q_bilinear",
              "q_form"),
    "clifford": ("GAMMA", "SIGMA", "AntilinearOp", "CheckReport", "LinearOp",
                 "antilinear_adjoint", "apply", "check_clifford_relations",
                 "check_sigma_selfduality", "check_x_reality", "compose",
                 "det_identity", "gamma", "vector_from_op", "x_matrix"),
    "exterior": ("KVector", "basis_bivector", "basis_kvector", "herm_inner", "hodge_star",
                 "is_decomposable", "phi", "phi_inverse", "scalar", "selfdual_split",
                 "vector", "wedge"),
    "spin": ("ConformalMatrix6", "SpinElement", "covering_matrix", "is_so_plus", "is_su22",
             "spin_from_vector_pair", "spin_generate", "vector_action"),
    "isotropic": ("IsotropicPlaneE", "SpinorLine", "SpinorPlane", "four_idempotents",
                  "idempotent_pair", "isotropic_plane", "null_to_spinor_plane",
                  "partner_null_vector", "plane_from_spinor_plane",
                  "plane_to_spinor_line", "spinor_line_to_plane"),
    "liesphere": ("Infinity", "InfinityReport", "LieEntity", "Plane", "Point", "Sphere",
                  "conformal_inversion", "fixed_sphere_probe", "is_at_infinity",
                  "lie_embed", "lie_extract", "oriented_contact"),
}
# exported name -> its module
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"

# The layers; cli and __main__ are entry points that `python -m` runs, so
# they are imported as usual.
for _name in ("errors", "forms", "clifford", "exterior", "spin", "isotropic", "liesphere",
              "sampling", "suites", "errata"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    globals()[_name] = _module
del _name, _spec, _module


def __getattr__(name):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
