import pytest
from hypothesis import HealthCheck, settings

from toricurves import FIXTURE_NAMES, fixture_fan

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def fans():
    return {name: fixture_fan(name) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def p1(fans):
    return fans["p1"]


@pytest.fixture(scope="session")
def p2(fans):
    return fans["p2"]


@pytest.fixture(scope="session")
def p3(fans):
    return fans["p3"]


@pytest.fixture(scope="session")
def p1xp1(fans):
    return fans["p1xp1"]


@pytest.fixture(scope="session")
def bl1p2(fans):
    return fans["bl1p2"]


@pytest.fixture(scope="session")
def dp6(fans):
    return fans["dp6"]


def _polygon_document(nrays):
    """Fan document of a smooth complete toric surface with nrays rays:
    P^2 blown up at torus-fixed points until the fan has nrays rays."""
    rays = [(1, 0), (0, 1), (-1, -1)]
    i = 0
    while len(rays) < nrays:
        a, b = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (a[0] + b[0], a[1] + b[1]))
        i = (i + 2) % len(rays)
    return {"rays": [list(r) for r in rays],
            "max_cones": [[j, (j + 1) % nrays] for j in range(nrays)]}


@pytest.fixture(scope="session")
def polygon_document():
    return _polygon_document
