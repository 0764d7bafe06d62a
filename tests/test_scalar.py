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


def _halving_gauss(f, a, b, tol, n=32, depth=0):
    """The recursion that sums each panel as a whole and again as the
    two halves of its parent."""
    whole = scalar.gauss_segment(f, a, b, n)
    mid = (scalar.to_mpc(a) + scalar.to_mpc(b)) / 2
    left = scalar.gauss_segment(f, a, mid, n)
    right = scalar.gauss_segment(f, mid, b, n)
    if abs(whole - (left + right)) <= mpf(tol) / 10:
        return left + right
    return (_halving_gauss(f, a, mid, tol / 2, n, depth + 1)
            + _halving_gauss(f, mid, b, tol / 2, n, depth + 1))


@pytest.mark.parametrize("f, panels", [
    # smooth on the segment, poles at distance 0.1 from its end
    (lambda x: mpmath.exp(-x) / (1 + 100 * x * x), 9),
    # a pole at distance 1e-3 from the middle of the segment
    (lambda x: 1 / (x - mpmath.mpc("0.5", "1e-3")), 43),
])
def test_adaptive_gauss_reuses_the_halves(f, panels, monkeypatch):
    # a child's whole-panel sum is its parent's half-panel sum from the
    # same call, so the value is the same to the bit; P panels cost
    # 2 P + 1 segments instead of 3 P
    calls = []
    plain = scalar.gauss_segment

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return plain(*args, **kwargs)

    monkeypatch.setattr(scalar, "gauss_segment", counted)
    old = _halving_gauss(f, 0, 1, mpf("1e-40"))
    old_calls, calls[:] = len(calls), []
    new = scalar.adaptive_gauss(f, 0, 1, mpf("1e-40"))
    assert new == old
    assert old_calls == 3 * panels
    assert len(calls) == 2 * panels + 1
    assert len(set(calls)) == len(calls)
