"""The package's public surface: the names `spin42` exports, each resolved
to the object its defining module holds, and `__version__`.  The layers
are registered lazily, so these names are read off their modules on
access; the list below is the one the package exported when it imported
every layer eagerly."""

import subprocess
import sys

import pytest

import spin42

# defining module -> the names the package exports from it
EXPORTS = {
    "forms": ["DEFAULT_TOL", "G4", "G_DIAG", "ProjectiveNullLine", "Q6", "Q_DIAG",
              "canonicalize", "g_form", "is_null", "projectivize", "q_bilinear", "q_form"],
    "clifford": ["GAMMA", "SIGMA", "AntilinearOp", "CheckReport", "LinearOp",
                 "antilinear_adjoint", "apply", "check_clifford_relations",
                 "check_sigma_selfduality", "check_x_reality", "compose", "det_identity",
                 "gamma", "vector_from_op", "x_matrix"],
    "exterior": ["KVector", "basis_bivector", "basis_kvector", "herm_inner", "hodge_star",
                 "is_decomposable", "phi", "phi_inverse", "scalar", "selfdual_split",
                 "vector", "wedge"],
    "spin": ["ConformalMatrix6", "SpinElement", "covering_matrix", "is_so_plus", "is_su22",
             "spin_from_vector_pair", "spin_generate", "vector_action"],
    "isotropic": ["IsotropicPlaneE", "SpinorLine", "SpinorPlane", "four_idempotents",
                  "idempotent_pair", "isotropic_plane", "null_to_spinor_plane",
                  "partner_null_vector", "plane_from_spinor_plane", "plane_to_spinor_line",
                  "spinor_line_to_plane"],
    "liesphere": ["Infinity", "InfinityReport", "LieEntity", "Plane", "Point", "Sphere",
                  "conformal_inversion", "fixed_sphere_probe", "is_at_infinity", "lie_embed",
                  "lie_extract", "oriented_contact"],
}


def test_all_is_the_export_list():
    assert spin42.__all__ == [name for names in EXPORTS.values() for name in names]


@pytest.mark.parametrize("module", EXPORTS)
def test_every_export_is_its_defining_modules_object(module):
    home = sys.modules[f"spin42.{module}"]
    assert getattr(spin42, module) is home
    for name in EXPORTS[module]:
        assert getattr(spin42, name) is getattr(home, name), name


def test_star_import_binds_all_and_dir_lists_it():
    namespace = {}
    exec("from spin42 import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(spin42.__all__)
    assert set(spin42.__all__) <= set(dir(spin42))
    assert "__version__" in dir(spin42)


def test_unknown_names_raise_and_the_version_is_kept():
    with pytest.raises(AttributeError, match="'nope'"):
        spin42.nope
    with pytest.raises(ImportError, match="nope"):
        from spin42 import nope  # noqa: F401
    assert spin42.__version__ == "0.1.0"


def test_the_cli_lists_the_suites_in_their_order():
    import spin42.cli
    import spin42.suites

    assert spin42.cli._SUITES == spin42.suites.SUITE_ORDER


def test_importing_the_package_runs_no_layer():
    code = ("import sys, types, spin42\n"
            "print(*sorted(n for n, m in sys.modules.items()\n"
            "              if n.startswith('spin42') and type(m) is types.ModuleType))\n")
    ran = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.split()
    assert ran == ["spin42"]
