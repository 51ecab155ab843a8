"""Tolerance policy shared by every predicate and decision procedure.

All comparisons in the library are relative to a natural scale of the input
(operator norm raised to the homogeneity degree of the quantity).  Class
predicates, the pencil decider, the transforms' residuals and the ranks of
powers all work on T / ||T|| from one spectral snapshot, so none of them
needs an absolute floor; the exact zero matrix is the only special case.
Three named profiles exist; any field can be overridden through NORMALOID_*
environment variables when configs are built via :func:`from_env`.
"""
from __future__ import annotations

import dataclasses
import os

from .errors import InvalidParameter

ENV_PREFIX = "NORMALOID_"


@dataclasses.dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy knobs, each a float in (0, 1).

    eq_rtol         relative tolerance for operator equalities
    psd_tol         relative slack for positive-semidefinite checks
    rank_tol        singular values below rank_tol * sigma_max count as zero
    """

    eq_rtol: float = 1e-10
    psd_tol: float = 1e-9
    rank_tol: float = 1e-10

    def __post_init__(self):
        for field in dataclasses.fields(self):
            name, value = field.name, getattr(self, field.name)
            if not (0.0 < value < 1.0):
                raise InvalidParameter(f"{name} must lie in (0, 1), got {value!r}")


DEFAULT = ToleranceConfig()

PROFILES = {
    "default": DEFAULT,
    "strict": ToleranceConfig(eq_rtol=1e-12, psd_tol=1e-11, rank_tol=1e-12),
    "loose": ToleranceConfig(eq_rtol=1e-8, psd_tol=1e-7, rank_tol=1e-8),
}


def from_env(profile: str = "default", environ=None) -> ToleranceConfig:
    """Build a config from a named profile plus NORMALOID_* overrides.

    Recognized variables: NORMALOID_EQ_RTOL, NORMALOID_PSD_TOL and
    NORMALOID_RANK_TOL.  With none of them set, the profile object itself.
    """
    if profile not in PROFILES:
        raise InvalidParameter(
            f"unknown tolerance profile {profile!r}; expected one of {sorted(PROFILES)}"
        )
    env = os.environ if environ is None else environ
    overrides = {}
    for field in dataclasses.fields(ToleranceConfig):
        var = ENV_PREFIX + field.name.upper()
        raw = env.get(var)
        if raw is None:
            continue
        try:
            overrides[field.name] = float(raw)
        except ValueError as exc:
            raise InvalidParameter(f"cannot parse {var}={raw!r} as float") from exc
    return dataclasses.replace(PROFILES[profile], **overrides) if overrides else PROFILES[profile]


# a margin within this factor of its threshold, on either side, is marginal
MARGINAL_FACTOR = 10.0


def is_marginal(margin: float, threshold: float) -> bool:
    """True when a margin sits in the fragile annulus around its threshold.

    Membership is margin >= -threshold.  Margins in (-F threshold,
    -threshold / F), F = MARGINAL_FACTOR, are too close to the cut to trust
    either way; property suites skip such trials instead of counting them.
    Exact members (margin ~ 0) and decisive rejections are both solid.
    """
    return -MARGINAL_FACTOR * threshold < margin < -threshold / MARGINAL_FACTOR
