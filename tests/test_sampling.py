"""The block samplers and their stream (numpy-pcg64/v3).

The public samplers draw the same numbers as under v2; v3 changed only
how the exterior and hodge suites draw their k-vectors, and random_kvector
is the one-grade case of that graded draw.  Row i of a block is sample i;
a scalar call is row 0 of the n = 1 block and leaves the generator where
that block does; every row meets its sampler's invariant; and the pair
signs of random_spin_element are uniform among its candidates.
test_kernels pins the stream itself.
"""

import numpy as np
import pytest

from spin42 import sampling, spin
from spin42.errors import NotNormalized, NotNull
from spin42.forms import DEFAULT_TOL, RESIDUAL_FLOOR, _g, _q
from spin42.isotropic import _isotropic_plane
from spin42.spin import _composites, _covering, _generate, _members

# sampler name -> (call, the scalar object as the arrays of one block row)
SCALAR_FORMS = {
    "unit_vec3": (sampling.unit_vec3, lambda v: (v,)),
    "random_point": (sampling.random_point, lambda p: (p.p,)),
    "random_sphere": (sampling.random_sphere, lambda s: (s.center, s.signed_radius)),
    "random_plane": (sampling.random_plane, lambda h: (h.normal, h.offset)),
    "random_null_vec6": (sampling.random_null_vec6, lambda x: (x,)),
    "random_nonnull_vec6": (sampling.random_nonnull_vec6, lambda x: (x,)),
    "random_unit_q_vec6/-1": (lambda rng, n=None: sampling.random_unit_q_vec6(rng, -1, n=n),
                              lambda x: (x,)),
    "random_unit_q_vec6/0": (sampling.random_unit_q_vec6, lambda x: (x,)),
    "random_spin_element": (sampling.random_spin_element, lambda s: (s.m,)),
    "random_isotropic_spinor": (sampling.random_isotropic_spinor, lambda v: (v,)),
    "random_isotropic_plane": (sampling.random_isotropic_plane,
                               lambda p: (np.stack([p.x1, p.x2]),)),
    "random_kvector/2": (lambda rng, n=None: sampling.random_kvector(rng, 2, n=n),
                         lambda kv: (kv.coeffs,)),
}


def _as_tuple(block) -> tuple:
    return block if isinstance(block, tuple) else (block,)


@pytest.mark.parametrize("name", list(SCALAR_FORMS))
def test_scalar_call_is_row_0_of_the_one_row_block(name):
    call, arrays = SCALAR_FORMS[name]
    for seed in range(20):
        rng, rng_block = np.random.default_rng(seed), np.random.default_rng(seed)
        scalar = arrays(call(rng))
        block = _as_tuple(call(rng_block, n=1))
        assert all(len(b) == 1 for b in block)
        assert all(np.array_equal(s, b[0]) for s, b in zip(scalar, block, strict=True))
        assert rng.normal() == rng_block.normal()


N = 500


def test_vector_samplers_meet_their_invariants():
    rng = np.random.default_rng(11)
    v = sampling.unit_vec3(rng, N)
    assert v.shape == (N, 3) and np.allclose(np.vecdot(v, v), 1.0, rtol=0, atol=1e-15)
    normal, offset = sampling.random_plane(rng, n=N)
    assert np.allclose(np.vecdot(normal, normal), 1.0, rtol=0, atol=1e-15)
    assert (abs(offset) <= 3.0).all()
    center, radius = sampling.random_sphere(rng, n=N)
    assert (abs(center) <= 3.0).all() and ((0.2 <= abs(radius)) & (abs(radius) <= 3.0)).all()
    x = sampling.random_null_vec6(rng, n=N)
    assert (abs(_q(x)) <= 1e-14 * np.vecdot(x, x)).all()
    x = sampling.random_nonnull_vec6(rng, n=N)
    assert (abs(_q(x)) >= 0.1 * np.vecdot(x, x)).all()
    for sign in (-1, 0, 1):
        x = sampling.random_unit_q_vec6(rng, sign, n=N)
        q = _q(x)
        assert (abs(abs(q) - 1.0) <= 1e-14).all()
        assert (np.sign(q) == sign).all() if sign else (q < 0).any() and (q > 0).any()
        # the margin 0.25 bounds the scaled vector: ||x||^2 <= 1 / 0.25
        assert (np.vecdot(x, x) <= 4.0 + 1e-12).all()
    z = sampling.random_isotropic_spinor(rng, N)
    assert (abs(_g(z, z)) <= 1e-15).all()
    assert np.allclose(np.vecdot(z[:, :2], z[:, :2]).real, 1.0, rtol=0, atol=1e-15)


def test_group_and_plane_samplers_meet_their_invariants():
    m = sampling.random_spin_element(np.random.default_rng(12), n=N)
    assert m.shape == (N, 4, 4) and _members(m, DEFAULT_TOL).all()
    assert (abs(m).max(axis=(-2, -1)) <= 4.0).all()

    y = sampling.random_isotropic_plane(np.random.default_rng(13), N)
    assert y.shape == (N, 2, 6)
    _isotropic_plane(y[:, 0], y[:, 1], RESIDUAL_FLOOR)
    # the transported base planes come from the elements drawn first; the
    # mixing matrices a solve y = a x
    l = _covering(sampling.random_spin_element(np.random.default_rng(13), n=N), RESIDUAL_FLOOR)
    x = sampling._BASE_PLANE @ l.mT
    a = y @ np.linalg.pinv(x)
    assert np.allclose(a @ x, y, rtol=0, atol=1e-12 * abs(y).max())
    assert (abs(a) <= 1.0 + 1e-9).all() and (abs(np.linalg.det(a)) >= 0.1 - 1e-9).all()


def test_spin_element_pair_signs_are_uniform():
    # 4000 candidate pairs: a sign shared by both vectors of a pair, and
    # +1 as often as -1 within four binomial standard deviations (drawing
    # vectors freely and keeping pairs whose signs agree gives +1 to 95%
    # of pairs under the (4,2) signature).  The max |m| <= 4 rejection
    # then keeps more +1 pairs, as it always did.
    _, v = sampling._spin_candidates(np.random.default_rng(14), 2000)
    q = _q(v)
    assert (abs(abs(q) - 1.0) <= 1e-14).all() and (q[..., 0] * q[..., 1] > 0).all()
    pairs = q[..., 0].size
    assert pairs >= 4000
    assert abs(int((q[..., 0] > 0).sum()) - pairs / 2) <= 4 * np.sqrt(pairs) / 2


@pytest.mark.parametrize("npairs", [1, 2, 3])
def test_spin_candidates_are_the_products_of_their_composites(npairs):
    # the candidates are _generate's two-pair products; on the candidates'
    # pairs regrouped npairs at a time, its product starts from the first
    # composite, bit for bit the product that starts from the identity
    m, v = sampling._spin_candidates(np.random.default_rng(16), 90)
    assert m.shape == (90, 4, 4) and np.array_equal(m, _generate(v, DEFAULT_TOL))
    v = v.reshape(-1, 2, 6)[:60 * npairs].reshape(60, npairs, 2, 6)
    composites = _composites(v, DEFAULT_TOL)
    want = np.eye(4, dtype=complex) @ composites[:, 0]
    for j in range(1, npairs):
        want = want @ composites[:, j]
    assert np.array_equal(_generate(v, DEFAULT_TOL), want)


def test_sampler_post_conditions_name_the_failing_row(monkeypatch):
    real_members = spin._members

    def one_bad_member(m, tol):
        ok = real_members(m, tol)
        ok[3, 1] = False
        return ok
    monkeypatch.setattr(spin, "_members", one_bad_member)
    with pytest.raises(NotNormalized, match="composite 1 at row 3 is not pseudo-unitary"):
        sampling.random_spin_element(np.random.default_rng(15), n=10)

    def one_bad_product(m, tol):
        ok = real_members(m, tol)
        ok[4, 2] = False
        return ok
    monkeypatch.setattr(spin, "_members", one_bad_product)
    with pytest.raises(NotNormalized, match="product at row 4 failed the membership checks"):
        sampling.random_spin_element(np.random.default_rng(15), n=10)
    monkeypatch.undo()

    real_covering = sampling._covering

    def one_bad_matrix(m, tol):
        l = real_covering(m, tol)
        l[2] = np.eye(6) + np.diag([0.0, 0.0, 0.0, 0.5, 0.0, 0.0])
        return l
    monkeypatch.setattr(sampling, "_covering", one_bad_matrix)
    with pytest.raises(NotNull, match="plane at row 2 is not totally isotropic"):
        sampling.random_isotropic_plane(np.random.default_rng(16), 5)
