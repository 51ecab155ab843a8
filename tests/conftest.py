import os

import numpy as np
import pytest

from normaloid import pencil
from normaloid.classes import classify
from normaloid.config import DEFAULT
from normaloid.generators import gen_normal, gen_random
from normaloid.linalg import snapshot
from normaloid.pencil import decide

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


def _near_normal(n, seed, delta):
    nm, r = gen_normal(n, seed), gen_random(n, 1000 + seed)
    return nm + delta * (np.linalg.norm(nm, 2) / np.linalg.norm(r, 2)) * r


@pytest.fixture
def near_normal():
    """(n, seed, delta) -> N + delta (||N|| / ||R||) R: normal N, random R, distance delta from normal."""
    return _near_normal


def _row_projected(row, s):
    """(V*AV, V*BV) of one row alone: its entries of pencil._projected's stack for that row only."""
    stack, plan = pencil._projected((row.key,), s)
    return stack[0], stack[plan.b[0]]


def _projected_decide(s, class_id, params, cfg=DEFAULT):
    # decide as imported here, so a test that wraps pencil.decide to count
    # the decider's calls does not count these
    row = pencil.FAMILY_FORMS[class_id](**(params or {}))
    cert = decide(*_row_projected(row, s), row.gamma, cfg, row.lam_exp)
    if cert.witness_vector is not None:
        cert.witness_vector = s.right_singular_vectors @ cert.witness_vector
    return cert


@pytest.fixture
def projected_decide():
    """(snapshot, class_id, params, cfg) -> decide on the row's V*AV and V*BV, a witness y mapped to x = V y.

    This is the certificate family_certificates gives a row that reaches
    decide's probes, built here by hand from the row's projected forms.
    """
    return _projected_decide


@pytest.fixture
def row_projected():
    """(row, snapshot) -> the row's (V*AV, V*BV), from a stack built for it alone."""
    return _row_projected


@pytest.fixture(scope="session")
def near_normal_sweep():
    """{(delta, n, seed): (matrix, snapshot, classify report)} of the near-normal sweep.

    560 matrices: delta = 1e-13 .. 1 by decades, n = 2..5, seed = 0..9, in
    that nesting order.  Classified once per session; the report is
    classify's on the snapshot, which is classify's on the matrix.
    """
    sweep = {}
    for delta in 10.0 ** np.arange(-13, 1):
        for n in (2, 3, 4, 5):
            for seed in range(10):
                t = _near_normal(n, seed, delta)
                s = snapshot(t, DEFAULT)
                sweep[delta, n, seed] = t, s, classify(s)
    return sweep
