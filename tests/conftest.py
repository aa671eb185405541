import random
from fractions import Fraction

import pytest

from connexa.scalars import Scalar
from connexa.series import Plane, ZTSeries


def rand_scalar(rng: random.Random, span: int = 4, gauss: bool = True) -> Scalar:
    re = Fraction(rng.randint(-span, span), rng.randint(1, 3))
    im = (
        Fraction(rng.randint(-span, span), rng.randint(1, 3))
        if gauss
        else Fraction(0)
    )
    return Scalar(re, im)


def rand_nonzero(rng: random.Random, span: int = 4) -> Scalar:
    while True:
        s = rand_scalar(rng, span)
        if not s.is_zero():
            return s


def zt_of_rows(rows) -> ZTSeries:
    """The z-series whose z-coefficient k is rows[k], an AffinePoly1 of
    order-nt TSeries."""
    rows = list(rows)
    return ZTSeries(
        Plane.of_rows([a.const for a in rows]), Plane.of_rows([a.slope for a in rows])
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
