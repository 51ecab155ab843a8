import os

import numpy as np
import pytest

from normaloid.generators import gen_normal, gen_random

# knob overrides from the ambient environment would silently change
# tolerances mid-suite; tests always start from the named profiles
for _key in list(os.environ):
    if _key.startswith("NORMALOID_"):
        del os.environ[_key]

try:
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "ci",
        derandomize=True,
        max_examples=50,
        suppress_health_check=[HealthCheck.too_slow],
        deadline=None,
    )
    settings.load_profile("ci")
except ImportError:
    pass


@pytest.fixture
def near_normal():
    """(n, seed, delta) -> N + delta (||N|| / ||R||) R: normal N, random R, distance delta from normal."""
    def build(n, seed, delta):
        nm, r = gen_normal(n, seed), gen_random(n, 1000 + seed)
        return nm + delta * (np.linalg.norm(nm, 2) / np.linalg.norm(r, 2)) * r
    return build
