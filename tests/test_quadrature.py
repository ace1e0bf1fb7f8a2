import numpy as np
import pytest

from freenoise.errors import QuadratureError
from freenoise.quadrature import gl_integrate


def test_gl_integrate_extends_the_tail_until_it_settles():
    # integral of exp(-u / 40) over (0, inf) is 40; the tail past the
    # initial stop at 60 needs several doublings
    assert gl_integrate(lambda u: np.exp(-u / 40.0), 1.0) == pytest.approx(40.0, rel=1e-10)


def test_gl_integrate_raises_when_the_tail_does_not_settle():
    with pytest.raises(QuadratureError):
        gl_integrate(lambda u: np.exp(-u / 40.0), 1.0, max_rounds=2)
