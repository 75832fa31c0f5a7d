"""Exception types shared across the package.

Every contract violation raises one of these rather than a bare ValueError,
so callers (and the CLI exit-code mapping) can tell usage mistakes apart
from numeric degeneracies.
"""


class Spin42Error(Exception):
    """Base class for all library errors."""


class ZeroVector(Spin42Error):
    """A vector that must be nonzero is (numerically) zero."""


class NotNull(Spin42Error):
    """A vector that must be Q-null is not, beyond tolerance."""


class IndexOutOfRange(Spin42Error):
    """A basis index outside 1..6 (or 1..4)."""


class NotInGammaSpan(Spin42Error):
    """An operator that is not a real combination of the six generators."""


class GradeOverflow(Spin42Error):
    """A wedge product whose grade would exceed the top grade 4."""


class GradeMismatch(Spin42Error):
    """Inner product of k-vectors of different grades."""


class NotSelfDual(Spin42Error):
    """A bivector that is not fixed by the antilinear star."""


class NotRealCombination(Spin42Error):
    """A bivector outside the real span of the basis bivectors."""


class RankFailure(Spin42Error):
    """A kernel/image computation produced an unexpected dimension."""


class NotIsotropicSpinor(Spin42Error):
    """A spinor with (v|v) != 0 where an isotropic one is required."""


class NotNormalized(Spin42Error):
    """A vector pair unusable for a group element: |Q(x)| != 1 or
    incompatible signs (the composite cannot be pseudo-unitary)."""


class ActionLeavesSpan(Spin42Error):
    """A transformed operator left the real generator span, so the input
    matrix was not a genuine group element, or the matrix has an entry past
    forms.SCALE_MAX, where the covering keeps no stated accuracy."""


class InvalidEntity(Spin42Error):
    """Malformed input: non-finite components, a missing field, a
    non-unit plane normal or a zero sphere radius."""


class Unclassifiable(Spin42Error):
    """A projective null class matching no entity normal form."""
