"""Membership predicates for the operator-class hierarchy.

Every predicate returns a ClassVerdict carrying a signed margin in the
class's homogeneous normalization (so verdicts are scale invariant where
the class itself is), the membership decision (margin >= -threshold), and
a marginality flag for the fragile annulus just below the threshold.
classify() bundles all verdicts plus a hierarchy-consistency check: along
the inclusion chain a solid member of a stronger class must be a member of
every weaker one, with marginal verdicts excused.
"""
from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from . import pencil as pencil_mod
from .config import ABS_FLOOR, DEFAULT, ToleranceConfig, is_marginal
from .errors import InvalidParameter, NoAscentWithinBound, NonHermitianInput
from .linalg import (
    adjoint,
    as_operator,
    hermitian_eig,
    matrix_power,
    modulus,
    operator_norm,
    polar_decompose,
    psd_power,
    range_projector,
    spectral_radius,
)
from .matrixio import vector_to_pairs

SUBNORMAL_NOTE = (
    "subnormal coincides with normal for square matrices "
    "(a finite-dimensional normal extension restricts to a normal operator); "
    "reported as an alias of the normal verdict"
)

# classes whose membership is invariant under T -> c T for c > 0
SCALE_INVARIANT_CLASSES = (
    "self-adjoint",
    "positive",
    "normal",
    "subnormal",
    "quasinormal",
    "hyponormal",
    "p-hyponormal",
    "class-A",
    "paranormal",
    "k-paranormal",
    "absolute-k-paranormal",
    "absolute-pr-paranormal",
    "normaloid",
    "binormal",
    "posinormal",
)


@dataclasses.dataclass
class ClassVerdict:
    class_id: str
    member: bool
    marginal: bool
    margin: float
    threshold: float
    parameters: Optional[dict] = None
    witness: Optional[dict] = None
    note: str = ""

    def to_json_dict(self) -> dict:
        out = {
            "class_id": self.class_id,
            "member": self.member,
            "marginal": self.marginal,
            "margin": self.margin,
            "threshold": self.threshold,
            "parameters": self.parameters,
            "witness": self.witness,
        }
        if self.note:
            out["note"] = self.note
        return out


def _verdict(class_id: str, margin: float, threshold: float, parameters=None,
             witness=None, note: str = "") -> ClassVerdict:
    margin = float(margin)
    return ClassVerdict(
        class_id=class_id,
        member=margin >= -threshold,
        marginal=is_marginal(margin, threshold),
        margin=margin,
        threshold=threshold,
        parameters=parameters,
        witness=witness,
        note=note,
    )


def _scale(t: np.ndarray, degree: int) -> float:
    return max(operator_norm(t) ** degree, ABS_FLOOR)


def _psd_margin(m: np.ndarray, scale: float, cfg: ToleranceConfig):
    """(margin, witness dict) of lambda_min(M)/scale with its eigenvector.

    M is Hermitian by construction at every call site; roundoff in the
    products can leave an anti-Hermitian sliver comparable to M itself
    when M is numerically zero, so validate against the caller's scale
    and symmetrize here rather than trusting M's own norm.
    """
    asym = operator_norm(m - adjoint(m))
    if asym > cfg.eq_rtol * max(scale, ABS_FLOOR):
        raise NonHermitianInput(
            f"difference matrix has anti-Hermitian part {asym:.3e} "
            f"beyond {cfg.eq_rtol:.1e} * {scale:.3e}"
        )
    eig = hermitian_eig((m + adjoint(m)) / 2.0, cfg)
    lam = float(eig.eigenvalues[0])
    margin = lam / max(scale, ABS_FLOOR)
    witness = None
    if margin < -cfg.psd_tol:
        witness = {"vector": vector_to_pairs(eig.eigenvectors[:, 0]), "value": margin}
    return margin, witness


def is_self_adjoint(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    a = as_operator(t)
    margin = -operator_norm(a - adjoint(a)) / _scale(a, 1)
    return _verdict("self-adjoint", margin, cfg.eq_rtol)


def is_positive(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    a = as_operator(t)
    sa = -operator_norm(a - adjoint(a)) / _scale(a, 1)
    herm = (a + adjoint(a)) / 2.0
    lam = float(np.linalg.eigvalsh(herm)[0])
    margin = min(sa, lam / _scale(a, 1))
    return _verdict("positive", margin, cfg.psd_tol)


def is_normal(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    a = as_operator(t)
    comm = adjoint(a) @ a - a @ adjoint(a)
    margin = -operator_norm(comm) / _scale(a, 2)
    return _verdict("normal", margin, cfg.eq_rtol)


def is_subnormal(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    base = is_normal(t, cfg)
    return ClassVerdict(
        class_id="subnormal",
        member=base.member,
        marginal=base.marginal,
        margin=base.margin,
        threshold=base.threshold,
        note=SUBNORMAL_NOTE,
    )


def is_unitary(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    a = as_operator(t)
    eye = np.eye(a.shape[0], dtype=np.complex128)
    margin = -max(
        operator_norm(adjoint(a) @ a - eye), operator_norm(a @ adjoint(a) - eye)
    )
    return _verdict("unitary", margin, cfg.eq_rtol)


def is_isometry(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    a = as_operator(t)
    eye = np.eye(a.shape[0], dtype=np.complex128)
    margin = -operator_norm(adjoint(a) @ a - eye)
    return _verdict("isometry", margin, cfg.eq_rtol)


def is_orthogonal_projection(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    a = as_operator(t)
    scale = _scale(a, 1)
    margin = -max(
        operator_norm(a @ a - a) / scale, operator_norm(a - adjoint(a)) / scale
    )
    return _verdict("orthogonal-projection", margin, cfg.eq_rtol)


def is_partial_isometry(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    """U with U*U an orthogonal projection (isometric on N(U)^perp)."""
    a = as_operator(t)
    q = adjoint(a) @ a
    margin = -operator_norm(q @ q - q) / _scale(a, 1)
    return _verdict("partial-isometry", margin, cfg.eq_rtol)


def is_quasinormal(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    a = as_operator(t)
    resid = a @ (adjoint(a) @ a) - (adjoint(a) @ a) @ a
    margin = -operator_norm(resid) / _scale(a, 3)
    return _verdict("quasinormal", margin, cfg.eq_rtol)


def is_hyponormal(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    a = as_operator(t)
    m = adjoint(a) @ a - a @ adjoint(a)
    margin, witness = _psd_margin(m, _scale(a, 2), cfg)
    return _verdict("hyponormal", margin, cfg.psd_tol, witness=witness)


def is_p_hyponormal(t, p: float, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    """(T*T)^p >= (TT*)^p, defined for 0 < p <= 1."""
    p = float(p)
    if not (0.0 < p <= 1.0):
        raise InvalidParameter(f"p-hyponormality requires 0 < p <= 1, got {p}")
    a = as_operator(t)
    m = psd_power(adjoint(a) @ a, p, cfg) - psd_power(a @ adjoint(a), p, cfg)
    margin, witness = _psd_margin(m, max(operator_norm(a) ** (2.0 * p), ABS_FLOOR), cfg)
    return _verdict("p-hyponormal", margin, cfg.psd_tol, parameters={"p": p}, witness=witness)


def is_class_a(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    """|T^2| >= |T|^2."""
    a = as_operator(t)
    a2 = a @ a
    # SVD of T^2, not the root of (T^2)*(T^2): squaring twice before the
    # root turns eps * norm(T)^4 eigenvalue noise into sqrt(eps)-sized
    # errors near zero singular values
    m = modulus(a2, cfg) - adjoint(a) @ a
    margin, witness = _psd_margin(m, _scale(a, 2), cfg)
    return _verdict("class-A", margin, cfg.psd_tol, witness=witness)


def _pencil_witness(cert: pencil_mod.PencilCertificate) -> Optional[dict]:
    if cert.decision:
        return None
    w: dict = {"value": cert.margin}
    if cert.witness_vector is not None:
        w["vector"] = vector_to_pairs(cert.witness_vector)
    if cert.witness_lambda is not None:
        w["lambda"] = cert.witness_lambda
    return w


def is_paranormal(t, cfg: ToleranceConfig = DEFAULT, seed: int = 0) -> ClassVerdict:
    cert = pencil_mod.check_paranormal(t, cfg, seed=seed)
    return _verdict("paranormal", cert.margin, cfg.psd_tol, witness=_pencil_witness(cert))


def is_k_paranormal(t, k: int, cfg: ToleranceConfig = DEFAULT, seed: int = 0) -> ClassVerdict:
    """||T^(k+1) x|| >= ||T x||^(k+1) for unit x (integer k >= 0).

    Decided on the pencil T*^(k+1) T^(k+1) - (k+1) lam^k T*T + k lam^(k+1),
    so a witness's lambda is mu^(1/k) in the decider's variable.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 0):
        raise InvalidParameter(f"k must be a nonnegative integer, got {k!r}")
    k = int(k)
    params = {"k": k}
    if k == 0:
        return _verdict("k-paranormal", 0.0, cfg.psd_tol, parameters=params)
    t_hat, nrm = pencil_mod._normalize(t)
    if nrm == 0.0:
        return _verdict("k-paranormal", 0.0, cfg.psd_tol, parameters=params)
    tk = matrix_power(t_hat, k + 1)
    a = adjoint(tk) @ tk
    a = (a + adjoint(a)) / 2.0
    b = adjoint(t_hat) @ t_hat
    cert = pencil_mod.decide(a, b, float(k + 1), cfg, lam_exp=1.0 / k)
    return _verdict("k-paranormal", cert.margin, cfg.psd_tol, parameters=params,
                    witness=_pencil_witness(cert))


def is_absolute_k_paranormal(t, k: float, cfg: ToleranceConfig = DEFAULT,
                             seed: int = 0) -> ClassVerdict:
    """|| |T|^k T x || >= ||T x||^(k+1) for unit x (real k > 0).

    Decided on the pencil T* |T|^(2k) T - (k+1) lam^k T*T + k lam^(k+1),
    so a witness's lambda is mu^(1/k) in the decider's variable.
    """
    k = float(k)
    if not k > 0.0:
        raise InvalidParameter(f"k must be positive, got {k}")
    params = {"k": k}
    t_hat, nrm = pencil_mod._normalize(t)
    if nrm == 0.0:
        return _verdict("absolute-k-paranormal", 0.0, cfg.psd_tol, parameters=params)
    mod2k = psd_power(adjoint(t_hat) @ t_hat, k, cfg)
    a = adjoint(t_hat) @ mod2k @ t_hat
    a = (a + adjoint(a)) / 2.0
    b = adjoint(t_hat) @ t_hat
    cert = pencil_mod.decide(a, b, k + 1.0, cfg, lam_exp=1.0 / k)
    return _verdict("absolute-k-paranormal", cert.margin, cfg.psd_tol, parameters=params,
                    witness=_pencil_witness(cert))


def is_absolute_pr_paranormal(t, p: float, r: float, cfg: ToleranceConfig = DEFAULT,
                              seed: int = 0) -> ClassVerdict:
    cert = pencil_mod.check_abs_pr_sphere(t, p, r, cfg, seed=seed)
    return _verdict(
        "absolute-pr-paranormal", cert.margin, cfg.psd_tol,
        parameters={"p": float(p), "r": float(r)}, witness=_pencil_witness(cert),
    )


def is_normaloid(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    """Spectral radius equals operator norm (margin is their relative gap)."""
    a = as_operator(t)
    nrm = operator_norm(a)
    margin = (spectral_radius(a) - nrm) / max(nrm, ABS_FLOOR)
    return _verdict("normaloid", margin, cfg.eq_rtol)


def is_binormal(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    a = as_operator(t)
    tt = adjoint(a) @ a
    tts = a @ adjoint(a)
    margin = -operator_norm(tt @ tts - tts @ tt) / _scale(a, 4)
    return _verdict("binormal", margin, cfg.eq_rtol)


def posinormal_lambda_min(t, cfg: ToleranceConfig = DEFAULT) -> float:
    """Smallest lambda with TT* <= lambda T*T, for posinormal T.

    Equals the largest eigenvalue of S* TT* S where S is the pseudo-inverse
    square root of T*T (valid because the range condition puts R(TT*^(1/2))
    inside R(T*T^(1/2))).
    """
    a = as_operator(t)
    if operator_norm(a) <= ABS_FLOOR:
        return 0.0
    eig = hermitian_eig(adjoint(a) @ a, cfg)
    w, q = eig.eigenvalues, eig.eigenvectors
    top = float(np.max(np.abs(w)))
    inv_sqrt = np.where(w > cfg.rank_tol * top, 1.0 / np.sqrt(np.maximum(w, 1e-300)), 0.0)
    s = (q * inv_sqrt) @ q.conj().T
    m = s @ (a @ adjoint(a)) @ s
    m = (m + adjoint(m)) / 2.0
    return float(np.linalg.eigvalsh(m)[-1])


def is_posinormal(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    """R(T) contained in R(T*); reports lambda_min when the test passes."""
    a = as_operator(t)
    proj = range_projector(adjoint(a), cfg)
    eye = np.eye(a.shape[0], dtype=np.complex128)
    margin = -operator_norm((eye - proj) @ a) / _scale(a, 1)
    v = _verdict("posinormal", margin, cfg.eq_rtol)
    if v.member:
        v.parameters = {"lambda_min": posinormal_lambda_min(a, cfg)}
    return v


def ascent(t, cfg: ToleranceConfig = DEFAULT) -> int:
    """Smallest n >= 1 with N(T^n) = N(T^(n+1)).

    Works on the norm-scaled matrix with rank cutoffs relative to
    ||T_hat||^n = 1 so nearly nilpotent powers cannot gain spurious rank;
    integer ranks are nonincreasing, so this terminates by the dimension.
    """
    a = as_operator(t)
    nrm = operator_norm(a)
    n = a.shape[0]
    if nrm <= ABS_FLOOR:
        return 1
    a = a / nrm

    def power_rank(m: np.ndarray) -> int:
        sig = np.linalg.svd(m, compute_uv=False)
        return int(np.count_nonzero(sig > cfg.rank_tol))

    prev = power_rank(a)
    cur = a
    for k in range(1, n + 2):
        cur = cur @ a
        nxt = power_rank(cur)
        if nxt == prev:
            return k
        prev = nxt
    raise NoAscentWithinBound(f"kernel chain did not stabilize within dimension {n}")


DEFAULT_P_GRID = (0.5, 1.0, 2.0)
DEFAULT_R_GRID = (0.5, 1.0, 2.0)
DEFAULT_K_GRID = (1, 2)


@dataclasses.dataclass
class ClassReport:
    dimension: int
    operator_norm: float
    spectral_radius: float
    polar_factor: np.ndarray
    verdicts: list
    chain_consistent: bool
    parameters: dict

    def verdict(self, class_id: str, **params) -> ClassVerdict:
        """Look up a verdict by class id (and exact parameters if given)."""
        for v in self.verdicts:
            if v.class_id != class_id:
                continue
            if params and (v.parameters or {}) != params:
                continue
            return v
        raise KeyError(f"no verdict for {class_id!r} with parameters {params!r}")

    def to_json_dict(self) -> dict:
        from .matrixio import matrix_to_obj

        return {
            "dimension": self.dimension,
            "operator_norm": self.operator_norm,
            "spectral_radius": self.spectral_radius,
            "polar_factor": matrix_to_obj(self.polar_factor),
            "chain_consistent": self.chain_consistent,
            "parameters": self.parameters,
            "verdicts": [v.to_json_dict() for v in self.verdicts],
        }


def _chain_groups(verdicts: Sequence[ClassVerdict]) -> list:
    """Implication chain, strongest to weakest, as verdict groups."""
    by_id: dict = {}
    for v in verdicts:
        by_id.setdefault(v.class_id, []).append(v)
    chain = [
        by_id.get("normal", []),
        by_id.get("quasinormal", []),
        by_id.get("subnormal", []),
        by_id.get("hyponormal", []),
        by_id.get("p-hyponormal", []),
        by_id.get("class-A", []),
        by_id.get("paranormal", []),
        [v for v in by_id.get("absolute-k-paranormal", []) if v.parameters["k"] >= 1],
        by_id.get("absolute-pr-paranormal", []),
        by_id.get("normaloid", []),
    ]
    return [g for g in chain if g]


def chain_consistent(verdicts: Sequence[ClassVerdict]) -> bool:
    """No solid member of a stronger class fails a weaker class solidly."""
    chain = _chain_groups(verdicts)
    for i, group in enumerate(chain):
        if not any(v.member and not v.marginal for v in group):
            continue
        for later in chain[i + 1:]:
            for v in later:
                if not v.member and not v.marginal:
                    return False
    return True


def classify(t, p_list: Sequence[float] = DEFAULT_P_GRID,
             r_list: Sequence[float] = DEFAULT_R_GRID,
             k_list: Sequence[int] = DEFAULT_K_GRID,
             cfg: ToleranceConfig = DEFAULT, seed: int = 0) -> ClassReport:
    """Run every membership predicate and assemble the report."""
    a = as_operator(t)
    pd = polar_decompose(a, cfg)
    verdicts: list = [
        is_self_adjoint(a, cfg),
        is_positive(a, cfg),
        is_unitary(a, cfg),
        is_isometry(a, cfg),
        is_orthogonal_projection(a, cfg),
        is_partial_isometry(a, cfg),
        is_normal(a, cfg),
        is_subnormal(a, cfg),
        is_quasinormal(a, cfg),
        is_hyponormal(a, cfg),
    ]
    for p in p_list:
        if 0.0 < float(p) <= 1.0:
            verdicts.append(is_p_hyponormal(a, float(p), cfg))
    verdicts.append(is_class_a(a, cfg))
    verdicts.append(is_paranormal(a, cfg, seed=seed))
    for k in k_list:
        verdicts.append(is_k_paranormal(a, int(k), cfg, seed=seed))
    for k in k_list:
        verdicts.append(is_absolute_k_paranormal(a, float(k), cfg, seed=seed))
    for p in p_list:
        for r in r_list:
            verdicts.append(is_absolute_pr_paranormal(a, float(p), float(r), cfg, seed=seed))
    verdicts.append(is_normaloid(a, cfg))
    verdicts.append(is_binormal(a, cfg))
    verdicts.append(is_posinormal(a, cfg))
    return ClassReport(
        dimension=a.shape[0],
        operator_norm=operator_norm(a),
        spectral_radius=spectral_radius(a),
        polar_factor=pd.u,
        verdicts=verdicts,
        chain_consistent=chain_consistent(verdicts),
        parameters={
            "p_list": [float(p) for p in p_list],
            "r_list": [float(r) for r in r_list],
            "k_list": [int(k) for k in k_list],
            "seed": int(seed),
        },
    )
