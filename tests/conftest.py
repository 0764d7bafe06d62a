import random

import pytest
from mpmath import mp, mpf, mpc
import mpmath

from stokeswb import betti, derham

mp.prec = 256


@pytest.fixture
def rng():
    return random.Random(0)


@pytest.fixture(scope="session")
def gamma_form():
    """The one-zero example with parameter 1: -(1 - x)/x dx."""
    return derham.analyze([-1, 1], [0, 1])


@pytest.fixture(scope="session")
def gamma_lattice(gamma_form):
    return derham.period_lattice(gamma_form)


@pytest.fixture(scope="session")
def gamma_crit(gamma_form, gamma_lattice):
    # primitive normalized so the critical value is 1 (f = x - log x)
    return derham.critical_values(gamma_form, 1, [[1]], lat=gamma_lattice,
                                  offset=1)


@pytest.fixture(scope="session")
def gamma_omega():
    return derham.RationalForm((mpc(1),), (mpc(0), mpc(1)))  # dx/x


@pytest.fixture(scope="session")
def gamma_thimble(gamma_form, gamma_crit):
    return betti.trace_thimble(gamma_form, gamma_crit, 0, 0, 0)


@pytest.fixture(scope="session")
def power_form():
    """x^m dx and its critical data, by m: one zero of order m at 0 with
    critical value 0, no finite pole, no periods."""
    def build(m):
        form = derham.analyze([0] * m + [1], [1])
        lat = derham.period_lattice(form)
        return form, derham.critical_values(form, 0, [[0]], lat=lat)
    return build
