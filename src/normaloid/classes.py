"""Membership predicates for the operator-class hierarchy.

Every predicate returns a ClassVerdict carrying a signed margin in the
class's homogeneous normalization (so verdicts are scale invariant where
the class itself is), the membership decision (margin >= -threshold), and
a marginality flag for the fragile annulus just below the threshold.
Predicates accept a matrix or a linalg.SpectralSnapshot of one; classify()
builds one snapshot, hands it to every predicate, and bundles all verdicts
plus a hierarchy-consistency check: along the inclusion chain a solid
member of a stronger class must be a member of every weaker one, with
marginal verdicts excused.

The catalog is written once: CLASS_IDS holds every class id in the order
classify reports them, and CHAIN the inclusion chain that chain_consistent
walks.  SCALE_INVARIANT_CLASSES and the fixtures' expected maps are built
from CLASS_IDS.

Every verdict reads its form in V's coordinates, from Sigma and
C = V*W (T_hat = W Sigma V*): V* T_hat V = C Sigma,
V*|T_hat|^s V = Sigma^s, V*|T_hat*|^s V = C Sigma^s C* and
T_hat^2 = W (Sigma C Sigma) V*.  V and W are unitary, so each form keeps
its norm and eigenvalues, and a witness y maps back to x = V y.  The
report holds no polar factor: linalg.snapshot(t).polar_factor gives it.
Normal, hyponormal and p-hyponormal at every p read one cached eigvalsh
per exponent (modulus_gap_eig), subnormal is normal relabeled, and every
semidefinite margin is a SpectralSnapshot.psd_margin: eigvalsh for the
margin, a column of [V W] for a refuting witness, eigh only when no
column refutes; a modulus gap's is searched once per exponent
(modulus_gap_margin).  Positive takes no eigvalsh when its skew part
alone sets the margin.
Normaloid reads the block of C Sigma on the top singular cluster
(SpectralSnapshot.normaloid_radius); only a T_hat that block does not
decide, every non-member among them, takes an eigvals of T_hat itself.
"""
from __future__ import annotations

import dataclasses
import sys
from typing import Optional, Sequence

import numpy as np

from . import pencil as pencil_mod
from .config import DEFAULT, ToleranceConfig, is_marginal
from .errors import InvalidParameter, NoAscentWithinBound
from .linalg import (
    adjoint,
    eigvalsh,
    hermitian_part,
    power_ranks,
    snapshot,
    svd,
)
from .matrixio import vector_to_pairs

SUBNORMAL_NOTE = (
    "subnormal coincides with normal for square matrices "
    "(a finite-dimensional normal extension restricts to a normal operator); "
    "reported as an alias of the normal verdict"
)
COLLAPSE_NOTE = (
    "neither certified nor refuted, so marginal by the paper's collapse: "
    "absolute-(p,r)-paranormal with T^2 compact implies normal, so in finite "
    "dimension every paranormal-family class equals normal; the margin is "
    "the smallest objective the seed probes saw, not a bound"
)

# the catalog: every class id, in the order classify reports them
CLASS_IDS = (
    "self-adjoint", "positive", "unitary", "isometry", "orthogonal-projection", "partial-isometry",
    "normal", "subnormal", "quasinormal", "hyponormal", "p-hyponormal", "class-A",
    "paranormal", "k-paranormal", "absolute-k-paranormal", "absolute-pr-paranormal",
    "normaloid", "binormal", "posinormal",
)
# the inclusion chain, strongest to weakest; absolute-k-paranormal is on it for k >= 1
CHAIN = (
    "normal", "quasinormal", "subnormal", "hyponormal", "p-hyponormal", "class-A",
    "paranormal", "absolute-k-paranormal", "absolute-pr-paranormal", "normaloid",
)
# how far ||T_hat - T_hat*|| must exceed 1 before positive's margin is it
# without an eigvalsh: far above the O(n eps) by which ||H|| can exceed 1
# and eigvalsh can err (see is_positive)
SKEW_DOMINATES = 1e-8
# classes whose membership is invariant under T -> c T for c > 0: all but
# the four whose verdicts read ||T|| itself
SCALE_INVARIANT_CLASSES = tuple(
    c for c in CLASS_IDS
    if c not in ("unitary", "isometry", "orthogonal-projection", "partial-isometry")
)


@dataclasses.dataclass
class ClassVerdict:
    class_id: str
    member: bool
    marginal: bool
    margin: float
    threshold: float
    parameters: Optional[dict] = None
    # "value", and "vector" (a complex128 array) and "lambda" where found;
    # normaloid's lambda is complex, written as its [re, im] pair
    witness: Optional[dict] = None
    note: str = ""

    def to_json_dict(self) -> dict:
        """The verdict as JSON values, its witness vector inline as [re, im] pairs."""
        w = self.witness
        if w is not None and "vector" in w:
            w = {**w, "vector": vector_to_pairs(w["vector"])}
        return self._json_dict(w)

    def _json_dict(self, witness: Optional[dict]) -> dict:
        out = {
            "class_id": self.class_id,
            "member": self.member,
            "marginal": self.marginal,
            "margin": self.margin,
            "threshold": self.threshold,
            "parameters": self.parameters,
            "witness": witness,
        }
        if self.note:
            out["note"] = self.note
        return out


def _verdict(class_id: str, margin: float, threshold: float, parameters=None,
             witness=None, note: str = "") -> ClassVerdict:
    # a margin that overflowed (raw singular values of a huge matrix) saturates
    # at the most negative float, so reports stay strict JSON
    margin = max(float(margin), -sys.float_info.max)
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


def _norm(m: np.ndarray) -> float:
    return float(svd(m, compute_uv=False)[0])


def is_self_adjoint(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    return _verdict("self-adjoint", -snapshot(t, cfg).skew_norm, cfg.eq_rtol)


def is_positive(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    """T_hat >= 0: self-adjoint, and V*(T_hat + T_hat*)V / 2 = H = (C Sigma + Sigma C*) / 2 >= 0.

    The margin is min(-||T_hat - T_hat*||, lambda_min(H)).  Sigma <= 1,
    so ||H|| <= ||C|| <= 1 + the orthogonality defect of V and W, O(n eps),
    and eigvalsh's lambda_min is within its O(n eps) backward error of
    H's: it is above -1 - SKEW_DOMINATES.  So when
    ||T_hat - T_hat*|| > 1 + SKEW_DOMINATES the minimum is
    -||T_hat - T_hat*|| whatever lambda_min is, bit for bit, and no
    eigvalsh is taken.
    """
    s = snapshot(t, cfg)
    if s.skew_norm > 1.0 + SKEW_DOMINATES:
        return _verdict("positive", -s.skew_norm, cfg.psd_tol)
    c, sig = s.coordinates, s.sigma_hat
    lam = float(eigvalsh((c * sig + sig[:, None] * adjoint(c)) / 2.0)[0])
    return _verdict("positive", min(-s.skew_norm, lam), cfg.psd_tol)


def is_normal(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    return _verdict("normal", -snapshot(t, cfg).normality_defect, cfg.eq_rtol)


def is_subnormal(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    return dataclasses.replace(is_normal(t, cfg), class_id="subnormal", note=SUBNORMAL_NOTE)


def is_unitary(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    """T*T = TT* = I; for a square matrix both defects equal max |sigma^2 - 1|."""
    return _verdict("unitary", -snapshot(t, cfg).isometry_defect, cfg.eq_rtol)


def is_isometry(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    return _verdict("isometry", -snapshot(t, cfg).isometry_defect, cfg.eq_rtol)


def is_orthogonal_projection(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    """T^2 = T = T*; ||T^2 - T|| / ||T|| = || ||T|| T_hat^2 - T_hat || = || ||T|| Sigma C Sigma - Sigma ||."""
    s = snapshot(t, cfg)
    margin = -max(_norm(s.norm * s.coordinate_square - np.diag(s.sigma_hat)), s.skew_norm)
    return _verdict("orthogonal-projection", margin, cfg.eq_rtol)


def is_partial_isometry(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    """U with U*U an orthogonal projection (isometric on N(U)^perp).

    The margin is -||Q^2 - Q|| / ||T|| for Q = T*T, that is
    -max sigma^2 |sigma^2 - 1| / ||T|| over the raw singular values.
    """
    s = snapshot(t, cfg)
    sig = s.norm * s.sigma_hat
    with np.errstate(over="ignore"):
        margin = -float(np.max(s.norm * s.sigma_hat**2 * np.abs(sig * sig - 1.0)))
    return _verdict("partial-isometry", margin, cfg.eq_rtol)


def is_quasinormal(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    """T |T|^2 = |T|^2 T; V*(T_hat |T_hat|^2 - |T_hat|^2 T_hat)V = (C Sigma^2 - Sigma^2 C) Sigma."""
    s = snapshot(t, cfg)
    c, sig = s.coordinates, s.sigma_hat
    margin = -_norm((c * sig**2 - (sig**2)[:, None] * c) * sig)
    return _verdict("quasinormal", margin, cfg.eq_rtol)


def is_hyponormal(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    """T*T >= TT*: p-hyponormal's form at p = 1."""
    s = snapshot(t, cfg)
    margin, witness = s.modulus_gap_margin(2.0, cfg.psd_tol)
    return _verdict("hyponormal", margin, cfg.psd_tol, witness=witness)


def is_p_hyponormal(t, p: float, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    """(T*T)^p >= (TT*)^p for 0 < p <= 1, from modulus_gap_eig(2p): at p = 1 hyponormal's entry."""
    p = float(p)
    if not (0.0 < p <= 1.0):
        raise InvalidParameter(f"p-hyponormality requires 0 < p <= 1, got {p}")
    s = snapshot(t, cfg)
    margin, witness = s.modulus_gap_margin(2.0 * p, cfg.psd_tol)
    return _verdict("p-hyponormal", margin, cfg.psd_tol, parameters={"p": p}, witness=witness)


def is_class_a(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    """|T^2| >= |T|^2.

    T_hat^2 = W (Sigma C Sigma) V*, so one SVD of the snapshot's
    coordinate_square Sigma C Sigma = P S Q* gives
    V*|T_hat^2|V = Q S Q*, with S cut at rank_tol of its largest value as a
    snapshot of T_hat^2 would cut it, and V*|T_hat|^2 V = Sigma^2.
    """
    s = snapshot(t, cfg)
    # the SVD of T^2, not the root of (T^2)*(T^2): squaring twice before the
    # root turns eps * norm(T)^4 eigenvalue noise into sqrt(eps)-sized
    # errors near zero singular values
    _, sv, qh = svd(s.coordinate_square)
    sv = np.where(sv > cfg.rank_tol * sv[0], sv, 0.0)
    h = hermitian_part((adjoint(qh) * sv) @ qh - np.diag(s.sigma_hat**2))
    margin, witness = s.psd_margin(eigvalsh(h), h, cfg.psd_tol)
    return _verdict("class-A", margin, cfg.psd_tol, witness=witness)


def _pencil_witness(cert: pencil_mod.PencilCertificate) -> Optional[dict]:
    if cert.decision:
        return None
    w: dict = {"value": cert.margin}
    if cert.witness_vector is not None:
        w["vector"] = cert.witness_vector
    if cert.witness_lambda is not None:
        w["lambda"] = cert.witness_lambda
    return w


def _family_verdicts(t, specs, cfg: ToleranceConfig) -> list:
    """Verdicts of paranormal-family classes, all decided in one pencil.family_certificates pass.

    specs are (class_id, parameters) pairs; parameters (None for
    paranormal) go to pencil.family_certificates, which decides specs
    with one row once, and into the verdict.  A "collapse-marginal"
    certificate gives a marginal verdict with COLLAPSE_NOTE.
    """
    verdicts = []
    for (class_id, params), cert in zip(specs, pencil_mod.family_certificates(t, specs, cfg)):
        if cert is None:
            # k-paranormal with k = 0 is ||T x|| >= ||T x||
            verdicts.append(_verdict(class_id, 0.0, cfg.psd_tol, parameters=params))
            continue
        collapse = cert.method == pencil_mod.COLLAPSE
        v = _verdict(class_id, cert.margin, cfg.psd_tol, parameters=params,
                     witness=_pencil_witness(cert), note=COLLAPSE_NOTE if collapse else "")
        v.marginal |= collapse
        verdicts.append(v)
    return verdicts


def is_paranormal(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    return _family_verdicts(t, [("paranormal", None)], cfg)[0]


def _k_grid(k_list: Sequence[int]) -> list:
    """k_list as Python ints, each k first validated by k-paranormal's row builder, whose message names the class."""
    for k in k_list:
        try:
            pencil_mod.FAMILY_FORMS["k-paranormal"](k)
        except InvalidParameter as exc:
            raise InvalidParameter(f"k-paranormal: {exc}") from exc
    return [int(k) for k in k_list]


def is_k_paranormal(t, k: int, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    """||T^(k+1) x|| >= ||T x||^(k+1) for unit x (integer k >= 0).

    Decided on the pencil T*^(k+1) T^(k+1) - (k+1) lam^k T*T + k lam^(k+1),
    so a witness's lambda is mu^(1/k) in the decider's variable.
    """
    (k,) = _k_grid([k])
    return _family_verdicts(t, [("k-paranormal", {"k": k})], cfg)[0]


def is_absolute_k_paranormal(t, k: float, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    """|| |T|^k T x || >= ||T x||^(k+1) for unit x (real k > 0).

    Decided on the pencil T* |T|^(2k) T - (k+1) lam^k T*T + k lam^(k+1),
    so a witness's lambda is mu^(1/k) in the decider's variable.
    """
    return _family_verdicts(t, [("absolute-k-paranormal", {"k": float(k)})], cfg)[0]


def is_absolute_pr_paranormal(t, p: float, r: float, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    params = {"p": float(p), "r": float(r)}
    return _family_verdicts(t, [("absolute-pr-paranormal", params)], cfg)[0]


def is_normaloid(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    """Spectral radius equals operator norm (margin is their relative gap).

    From SpectralSnapshot.normaloid_radius: a member its top singular
    cluster decides carries the eigenpair T_hat x = lam x as witness,
    lam as its [re, im] pair and the margin |lam| - 1 as value.
    """
    s = snapshot(t, cfg)
    rho, pair = s.normaloid_radius(cfg.eq_rtol)
    margin = rho - (1.0 if s.norm > 0.0 else 0.0)
    witness = None
    if pair is not None:
        lam, x = pair
        witness = {"vector": x, "lambda": [lam.real, lam.imag], "value": margin}
    return _verdict("normaloid", margin, cfg.eq_rtol, witness=witness)


def is_binormal(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    s = snapshot(t, cfg)
    return _verdict("binormal", -s.binormality_defect, cfg.eq_rtol)


def posinormal_lambda_min(t, cfg: ToleranceConfig = DEFAULT) -> float:
    """Smallest lambda with TT* <= lambda T*T, for posinormal T.

    Equals the largest eigenvalue of S* TT* S where S is the pseudo-inverse
    square root of T*T (valid because the range condition puts R(TT*^(1/2))
    inside R(T*T^(1/2))).  Scale invariant, so computed on T_hat with
    S = |T_hat|^+ = V Sigma^+ V*, Sigma cut: V*(S TT* S)V = Z Z* for
    Z = Sigma^+ C Sigma.
    """
    s = snapshot(t, cfg)
    if s.norm == 0.0:
        return 0.0
    cut = s.cut_singular_values
    inv = np.divide(1.0, cut, out=np.zeros_like(cut), where=cut > 0.0)
    z = inv[:, None] * s.coordinates * s.sigma_hat
    m = z @ adjoint(z)
    return float(eigvalsh((m + adjoint(m)) / 2.0)[-1])


def is_posinormal(t, cfg: ToleranceConfig = DEFAULT) -> ClassVerdict:
    """R(T) contained in R(T*); reports lambda_min when the test passes.

    The part of T outside R(T*) is K T for K the projector onto N(T), the
    span of V's last n - rank columns, so ||K T_hat|| = ||C[rank:, :] Sigma||.
    At full rank K is zero, and so is the margin, with no SVD taken.
    """
    s = snapshot(t, cfg)
    escape = _norm(s.coordinates[s.rank:, :] * s.sigma_hat) if s.rank < s.t.shape[0] else 0.0
    v = _verdict("posinormal", -escape, cfg.eq_rtol)
    if v.member:
        v.parameters = {"lambda_min": posinormal_lambda_min(s, cfg)}
    return v


def ascent(t, cfg: ToleranceConfig = DEFAULT) -> int:
    """Smallest n >= 1 with N(T^n) = N(T^(n+1)).

    Compares the ranks of linalg.power_ranks, each judged against
    ||T||^k, so nearly nilpotent powers cannot gain spurious rank; integer
    ranks are nonincreasing, so this terminates by the dimension.
    """
    s = snapshot(t, cfg)
    n = s.t.shape[0]
    ranks = power_ranks(s, cfg)
    prev = next(ranks)
    for k, nxt in zip(range(1, n + 2), ranks):
        if nxt == prev:
            return k
        prev = nxt
    raise NoAscentWithinBound(f"kernel chain did not stabilize within dimension {n}")


DEFAULT_P_GRID = (0.5, 1.0, 2.0)
DEFAULT_R_GRID = (0.5, 1.0, 2.0)
DEFAULT_K_GRID = (1, 2)
# the format of ClassReport.to_json_dict, the classify report
REPORT_VERSION = 2


@dataclasses.dataclass
class ClassReport:
    dimension: int
    operator_norm: float
    spectral_radius: float
    rank: int
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
        """The report as written by ``classify``, format ``REPORT_VERSION``.

        ``rank`` is the rank of T and of its polar factor.  Each
        distinct witness vector is written once, in the report's
        ``witnesses`` list in order of first appearance, and a verdict's
        witness names it by ``vector_index``.  Vectors are told apart by
        their exact float bits, never by float equality (0.0 == -0.0).
        """
        table: dict = {}
        verdicts = []
        for v in self.verdicts:
            w = v.witness
            if w is not None and "vector" in w:
                vector = w["vector"]
                index, _ = table.setdefault(vector.tobytes(), (len(table), vector))
                # vector_index takes the vector's place in the witness's keys
                w = {("vector_index" if k == "vector" else k):
                     (index if k == "vector" else x) for k, x in w.items()}
            verdicts.append(v._json_dict(w))
        return {
            "report_version": REPORT_VERSION,
            "dimension": self.dimension,
            "operator_norm": self.operator_norm,
            "spectral_radius": self.spectral_radius,
            "rank": self.rank,
            "chain_consistent": self.chain_consistent,
            "parameters": self.parameters,
            "verdicts": verdicts,
            "witnesses": [vector_to_pairs(vector) for _, vector in table.values()],
        }


def _chain_groups(verdicts: Sequence[ClassVerdict]) -> list:
    """The verdicts along CHAIN, strongest to weakest, as nonempty groups."""
    groups: dict = {class_id: [] for class_id in CHAIN}
    for v in verdicts:
        if v.class_id in groups and not (v.class_id == "absolute-k-paranormal" and v.parameters["k"] < 1):
            groups[v.class_id].append(v)
    return [g for g in groups.values() if g]


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
             cfg: ToleranceConfig = DEFAULT) -> ClassReport:
    """Run every membership predicate on one snapshot and assemble the report."""
    k_list = _k_grid(k_list)
    s = snapshot(t, cfg)
    verdicts: list = [
        is_self_adjoint(s, cfg),
        is_positive(s, cfg),
        is_unitary(s, cfg),
        is_isometry(s, cfg),
        is_orthogonal_projection(s, cfg),
        is_partial_isometry(s, cfg),
        is_normal(s, cfg),
        is_subnormal(s, cfg),
        is_quasinormal(s, cfg),
        is_hyponormal(s, cfg),
    ]
    for p in p_list:
        if 0.0 < float(p) <= 1.0:
            verdicts.append(is_p_hyponormal(s, float(p), cfg))
    verdicts.append(is_class_a(s, cfg))
    family = [("paranormal", None)]
    family += [("k-paranormal", {"k": k}) for k in k_list]
    # absolute-k-paranormal needs k > 0; at k = 0 only k-paranormal, trivially held, is reported
    family += [("absolute-k-paranormal", {"k": float(k)}) for k in k_list if k != 0]
    family += [("absolute-pr-paranormal", {"p": float(p), "r": float(r)}) for p in p_list for r in r_list]
    verdicts += _family_verdicts(s, family, cfg)
    verdicts.append(is_normaloid(s, cfg))
    verdicts.append(is_binormal(s, cfg))
    verdicts.append(is_posinormal(s, cfg))
    return ClassReport(
        dimension=s.t.shape[0],
        operator_norm=s.norm,
        spectral_radius=s.norm * s.normaloid_radius(cfg.eq_rtol)[0],
        rank=s.rank,
        verdicts=verdicts,
        chain_consistent=chain_consistent(verdicts),
        parameters={
            "p_list": [float(p) for p in p_list],
            "r_list": [float(r) for r in r_list],
            "k_list": k_list,
        },
    )
