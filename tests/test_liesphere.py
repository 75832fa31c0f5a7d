import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin42 import errata
from spin42.errors import InvalidEntity, Unclassifiable
from spin42.forms import ProjectiveNullLine, Q6, projectivize, q_bilinear, q_form
from spin42.liesphere import (
    INVERSION_MATRIX,
    Infinity,
    InfinityReport,
    Plane,
    Point,
    Sphere,
    conformal_inversion,
    embed_rep,
    fixed_sphere_probe,
    is_at_infinity,
    lie_embed,
    lie_extract,
    oriented_contact,
)
from spin42.sampling import random_plane, random_point, random_sphere


def test_embedding_normal_forms():
    assert np.array_equal(embed_rep(Infinity()), [0, 0, 0, 0, 1, 1])
    assert np.array_equal(embed_rep(Point([0, 0, 0])), [0, 0, 0, 0, -0.5, 0.5])
    assert np.array_equal(embed_rep(Sphere([0, 0, 0], 1.0)), [0, 0, 0, 1, -1, 0])
    assert np.array_equal(embed_rep(Plane([0, 0, 1], 2.0)), [0, 0, 1, 1, 2, 2])
    p = embed_rep(Point([1, 2, 3]))
    assert np.array_equal(p, [1, 2, 3, 0, 6.5, 7.5])


def test_all_embeddings_are_null():
    rng = np.random.default_rng(70)
    makers = [random_point, random_sphere, random_plane]
    for _ in range(200):
        ent = makers[int(rng.integers(0, 3))](rng)
        r = embed_rep(ent)
        assert abs(q_form(r)) < 1e-12 * max(1.0, np.linalg.norm(r) ** 2)
    assert q_form(embed_rep(Infinity())) == 0.0


def test_origin_canonical_class():
    cls = lie_embed(Point([0, 0, 0]))
    assert np.array_equal(cls.rep, [0, 0, 0, 0, 1, -1])


def test_entity_validation():
    with pytest.raises(InvalidEntity):
        embed_rep(Sphere([0, 0, 0], 0.0))
    with pytest.raises(InvalidEntity):
        embed_rep(Plane([0, 0, 2.0], 1.0))
    with pytest.raises(InvalidEntity):
        Point([1.0, 2.0])
    with pytest.raises(InvalidEntity):
        Point([np.inf, 0, 0])
    with pytest.raises(InvalidEntity):
        embed_rep(Sphere([0, 0, 0], np.nan))


def test_extract_inverts_embed():
    rng = np.random.default_rng(71)
    for _ in range(100):
        ent = random_point(rng)
        back = lie_extract(lie_embed(ent))
        assert isinstance(back, Point)
        assert np.max(np.abs(back.p - ent.p)) < 1e-9
    for _ in range(100):
        ent = random_sphere(rng)
        back = lie_extract(lie_embed(ent))
        assert isinstance(back, Sphere)
        assert np.max(np.abs(back.center - ent.center)) < 1e-9 * max(
            1.0, abs(ent.signed_radius)
        )
        assert back.signed_radius == pytest.approx(ent.signed_radius, rel=1e-9)
    for _ in range(100):
        ent = random_plane(rng)
        back = lie_extract(lie_embed(ent))
        assert isinstance(back, Plane)
        assert np.max(np.abs(back.normal - ent.normal)) < 1e-9
        assert back.offset == pytest.approx(ent.offset, abs=1e-9)
    assert isinstance(lie_extract(lie_embed(Infinity())), Infinity)


def test_extract_worked_plane_class():
    cls = projectivize(np.array([0.0, 0, 1, 1, 2, 2]))
    ent = lie_extract(cls)
    assert isinstance(ent, Plane)
    assert np.allclose(ent.normal, [0, 0, 1], atol=1e-12)
    assert ent.offset == pytest.approx(2.0, abs=1e-12)


def test_oriented_planes_are_distinct_classes():
    a = lie_embed(Plane([1, 0, 0], 0.5))
    b = lie_embed(Plane([-1, 0, 0], -0.5))
    assert a != b


def test_extract_rejects_classes_without_normal_form():
    # hand-built class outside the image of the embedding: at infinity
    # but with a vanishing slot 4 and a nonzero finite block
    fake = ProjectiveNullLine(np.array([1.0, 0, 0, 0, 1, 1]))
    with pytest.raises(Unclassifiable):
        lie_extract(fake)


def test_inversion_matrix_is_an_isometry():
    assert np.array_equal(INVERSION_MATRIX @ Q6 @ INVERSION_MATRIX.T, Q6)
    assert np.array_equal(INVERSION_MATRIX @ INVERSION_MATRIX, np.eye(6))


def test_inversion_is_an_involution_on_classes():
    rng = np.random.default_rng(72)
    makers = [random_point, random_sphere, random_plane]
    for _ in range(200):
        ent = makers[int(rng.integers(0, 3))](rng)
        cls = lie_embed(ent)
        assert conformal_inversion(conformal_inversion(cls)) == cls


def test_inversion_swaps_origin_and_infinity():
    assert conformal_inversion(lie_embed(Infinity())) == lie_embed(Point([0, 0, 0]))
    assert conformal_inversion(lie_embed(Point([0, 0, 0]))) == lie_embed(Infinity())


def test_inversion_classical_formulas():
    # points: p -> p / |p|^2
    back = lie_extract(conformal_inversion(lie_embed(Point([2, 0, 0]))))
    assert isinstance(back, Point)
    assert np.max(np.abs(back.p - [0.5, 0, 0])) < 1e-12
    # spheres not through the origin: (c, r) -> (c, r) / (|c|^2 - r^2)
    back = lie_extract(conformal_inversion(lie_embed(Sphere([2, 0, 0], 1.0))))
    assert isinstance(back, Sphere)
    assert np.max(np.abs(back.center - [2 / 3, 0, 0])) < 1e-12
    assert back.signed_radius == pytest.approx(1 / 3, abs=1e-12)
    # planes through the origin are fixed
    pl = lie_embed(Plane([0, 1, 0], 0.0))
    assert conformal_inversion(pl) == pl
    # offset planes become spheres through the origin
    back = lie_extract(conformal_inversion(lie_embed(Plane([1, 0, 0], 0.5))))
    assert isinstance(back, Sphere)
    assert np.max(np.abs(back.center - [1, 0, 0])) < 1e-12
    assert back.signed_radius == pytest.approx(1.0, abs=1e-12)


def test_inversion_preserves_q_exactly():
    rng = np.random.default_rng(73)
    for _ in range(50):
        x = rng.normal(size=6)
        assert q_form(INVERSION_MATRIX @ x) == q_form(x)


def test_is_at_infinity():
    assert is_at_infinity(lie_embed(Infinity()))
    assert is_at_infinity(lie_embed(Plane([1, 0, 0], 3.0)))
    assert not is_at_infinity(lie_embed(Point([1, 2, 3])))
    assert not is_at_infinity(lie_embed(Sphere([1, 2, 3], 2.0)))


def test_fixed_sphere_probe_report():
    rep = fixed_sphere_probe(100)
    assert isinstance(rep, InfinityReport)
    assert rep.sample_count == 100
    assert rep.fixed_sphere_max_drift == 0.0
    assert rep.missing_confirmed
    assert rep.min_matching_residual == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert "infinity" in rep.lightcone_image_class
    with pytest.raises(ValueError):
        fixed_sphere_probe(0)


def test_probe_is_deterministic_by_default():
    a = fixed_sphere_probe(25)
    b = fixed_sphere_probe(25)
    assert a == b


def test_contact_sphere_examples():
    s1 = Sphere([0, 0, 0], 1.0)
    # externally tangent spheres touch with opposite orientations
    assert oriented_contact(s1, Sphere([3, 0, 0], -2.0))
    assert not oriented_contact(s1, Sphere([3, 0, 0], 2.0))
    # internal tangency keeps the orientation
    assert oriented_contact(s1, Sphere([3, 0, 0], 4.0))
    assert not oriented_contact(s1, Sphere([5, 0, 0], 1.0))


def test_contact_point_and_plane_cases():
    s1 = Sphere([0, 0, 0], 1.0)
    assert oriented_contact(Point([1, 0, 0]), s1)
    assert not oriented_contact(Point([2, 0, 0]), s1)
    assert oriented_contact(Point([1, 2, 3]), Point([1, 2, 3]))
    assert not oriented_contact(Point([1, 2, 3]), Point([1, 2, 4]))
    assert oriented_contact(Plane([1, 0, 0], -1.0), s1)
    assert not oriented_contact(Plane([1, 0, 0], 1.0), s1)
    # every plane touches the point at infinity; no sphere does
    assert oriented_contact(Plane([0, 1, 0], 7.0), Infinity())
    assert not oriented_contact(s1, Infinity())


def test_contact_matches_euclidean_tangency():
    rng = np.random.default_rng(74)
    for _ in range(500):
        c1 = rng.normal(size=3) * 2
        r1 = (rng.uniform(0.2, 2.0)) * (1 if rng.integers(0, 2) else -1)
        r2 = (rng.uniform(0.2, 2.0)) * (1 if rng.integers(0, 2) else -1)
        if rng.integers(0, 2):
            # tangent by construction
            d = rng.normal(size=3)
            d = d / np.linalg.norm(d)
            c2 = c1 + abs(r1 - r2) * d
        else:
            d = rng.normal(size=3)
            d = d / np.linalg.norm(d)
            gap = abs(r1 - r2) + rng.uniform(0.1, 2.0)
            c2 = c1 + gap * d
        s1, s2 = Sphere(c1, r1), Sphere(c2, r2)
        euclid = abs(float(np.dot(c1 - c2, c1 - c2)) - (r1 - r2) ** 2) < 1e-9
        assert oriented_contact(s1, s2, tol=1e-9) == euclid


def test_contact_pairing_identity():
    # the Q-pairing of two sphere embeddings is a multiple of the
    # tangency defect |c1-c2|^2 - (r1-r2)^2
    rng = np.random.default_rng(75)
    for _ in range(100):
        s1, s2 = random_sphere(rng), random_sphere(rng)
        pair = q_bilinear(embed_rep(s1), embed_rep(s2))
        defect = float(
            np.dot(s1.center - s2.center, s1.center - s2.center)
        ) - (s1.signed_radius - s2.signed_radius) ** 2
        assert pair == pytest.approx(-defect / 2.0, rel=1e-9, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(
    c=st.lists(st.floats(-1e4, 1e4), min_size=3, max_size=3),
    r=st.floats(1e-3, 1e4),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_extract_inverts_embed_for_large_centers(c, r, sign):
    ent = Sphere(c, sign * r)
    back = lie_extract(lie_embed(ent))
    assert isinstance(back, Sphere)
    assert np.max(np.abs(back.center - ent.center)) <= 1e-6 * max(
        1.0, float(np.max(np.abs(ent.center))))
    assert abs(back.signed_radius - ent.signed_radius) <= 1e-6 * r


EPS = np.finfo(float).eps
# |c|^2 = 2 / tol is where a far sphere's class reaches the infinity hyperplane
EDGE = np.sqrt(2.0 / 1e-9)


@settings(max_examples=200, deadline=None)
@given(
    direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
        lambda d: np.linalg.norm(d) >= 0.1),
    distance=st.floats(10.0, 0.999 * EDGE),
    r=st.floats(1e-3, 10.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_far_sphere_round_trip_follows_the_stated_law(direction, distance, r, sign):
    # errata lie-extract-far-sphere: the round-trip error relative to |c| is
    # about 0.13 eps |c|^2 up to the 2 / tol edge; the bound allows twice
    # that, plus a term linear in |c| for the rounding of moderate spheres
    c = distance * np.asarray(direction) / np.linalg.norm(direction)
    distance = float(np.linalg.norm(c))
    back = lie_extract(lie_embed(Sphere(c, sign * r)))
    assert isinstance(back, Sphere)
    err = max(float(np.max(np.abs(back.center - c))), abs(back.signed_radius - sign * r))
    assert err <= EPS * (0.25 * distance ** 3 + 64.0 * distance)


def test_far_sphere_law_is_shipped_as_an_errata_note():
    notes = [n for n in errata.notes("liesphere") if "2/tol" in n]
    assert len(notes) == 1 and "0.13*eps*|c|^2" in notes[0]


def test_extract_edge_beyond_two_over_tol():
    # Measured edge, not a contract: once |c|^2 >= 2 / tol the canonical
    # slots 5 and 6 differ by 2 / |c|^2 <= tol, so the class reads as one at
    # infinity; a small radius leaves no normal form and a larger one (|r|
    # above tol |c|^2 / 2) is read as a plane.
    assert isinstance(lie_extract(lie_embed(Sphere([4.4e4, 0, 0], 1.0))), Sphere)
    with pytest.raises(Unclassifiable):
        lie_extract(lie_embed(Sphere([4.5e4, 0, 0], 1.0)))
    with pytest.raises(Unclassifiable):
        lie_extract(lie_embed(Sphere([0, 1e5, 0], -1e-3)))
    assert isinstance(lie_extract(lie_embed(Sphere([4.5e4, 0, 0], 10.0))), Plane)
