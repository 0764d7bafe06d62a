import pytest
import mpmath
from mpmath import mpf

from stokeswb import scalar
from stokeswb.errors import QuadratureNotConverged


def test_adaptive_gauss_smooth():
    got = scalar.adaptive_gauss(lambda x: 1 / (1 + x * x), 0, 1, mpf("1e-60"))
    assert abs(got - mpmath.pi / 4) < mpf("1e-60")


def test_adaptive_gauss_raises_at_depth_limit():
    # a unit jump inside a panel never settles: it used to come back
    # with an error of 1e-14 against the asked 1e-60
    def jump(x):
        return 1 if x.real > mpf(1) / 3 else 0

    with pytest.raises(QuadratureNotConverged):
        scalar.adaptive_gauss(jump, 0, 1, mpf("1e-60"))
