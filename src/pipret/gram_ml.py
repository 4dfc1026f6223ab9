"""Machine learning from inner products alone.

Training an SVM dual, fitting least-squares regression, and extracting
principal components all consume the m x m matrix of pairwise inner
products rather than the raw samples, so a learner that can retrieve inner
products privately never needs the data vectors themselves.  This module
implements those three Gram-only solvers plus a fixed-point codec that maps
real datasets into prime-field databases, which lets the retrieval
simulator deliver the Gram matrix.

Predictions stay inner-product-only as well: a new point enters through
its inner products with the training points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Database, InnerProductVector, PairOrdering

PSD_TOL = 1e-8
SUPPORT_TOL = 1e-8
KKT_TOL = 1e-8
EIG_CUTOFF = 1e-10
MAX_PAIR_UPDATES = 100_000


def validate_gram(G: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """Check symmetry and positive semidefiniteness within tolerance.

    Returns the validated array; raises ValueError otherwise.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError(f"Gram matrix must be square, got {G.shape}")
    if not np.allclose(G, G.T, atol=1e-10, rtol=0):
        raise ValueError("Gram matrix must be symmetric")
    w = np.linalg.eigvalsh(G)
    scale = max(float(w[-1]), 0.0)
    if w[0] < -tol * max(scale, 1.0):
        raise ValueError(f"Gram matrix is not PSD: min eigenvalue {w[0]:.3e}")
    return G


@dataclass(frozen=True)
class LabeledGram:
    """Gram matrix with one label per sample."""

    gram: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        G = validate_gram(self.gram)
        y = np.asarray(self.labels, dtype=float).reshape(-1)
        if len(y) != G.shape[0]:
            raise ValueError("label count must match the Gram dimension")
        object.__setattr__(self, "gram", G)
        object.__setattr__(self, "labels", y)


@dataclass(frozen=True)
class DualSolution:
    """Result of the dual SVM: multipliers, bias, and objective value."""

    alpha: np.ndarray
    bias: float
    objective: float
    iterations: int

    @property
    def support_indices(self) -> np.ndarray:
        return np.nonzero(self.alpha > SUPPORT_TOL)[0]


def svm_dual_train(
    gram,
    labels=None,
    box: float | None = None,
    tol: float = KKT_TOL,
    max_iter: int = MAX_PAIR_UPDATES,
) -> DualSolution:
    """Maximize sum(alpha) - 1/2 sum alpha_i alpha_j y_i y_j G_ij subject to
    alpha >= 0 (optionally alpha <= box) and sum alpha_i y_i = 0.

    Pairwise coordinate ascent: each step picks the pair with the largest
    optimality violation and solves the two-variable subproblem in closed
    form on the equality-constraint line.  Hard margin is the default; pass
    ``box`` for non-separable data.  Raises ValueError on one-class labels,
    on inseparable hard-margin data, on non-convergence, and when no
    support vector emerges.
    """
    if isinstance(gram, LabeledGram):
        G, y = gram.gram, gram.labels
    else:
        G = validate_gram(gram)
        y = np.asarray(labels, dtype=float).reshape(-1)
    m = G.shape[0]
    if len(y) != m:
        raise ValueError("label count must match the Gram dimension")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if np.all(y == y[0]):
        raise ValueError(
            "labels are single-class: sum(alpha_i y_i) = 0 forces alpha = 0, "
            "no support vector exists"
        )
    C = np.inf if box is None else float(box)
    if C <= 0:
        raise ValueError("box bound must be positive")

    alpha = np.zeros(m)
    u = np.zeros(m)  # u_i = sum_j alpha_j y_j G_ij (decision values sans bias)
    it = 0
    while True:
        # optimality scores: for the max-violating pair, compare -y * grad
        # over the sets still free to move up/down
        score = y - u  # equals -y_i * grad_i of the minimization form
        up_mask = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low_mask = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
        if not up_mask.any() or not low_mask.any():
            break
        i = int(np.flatnonzero(up_mask)[np.argmax(score[up_mask])])
        j = int(np.flatnonzero(low_mask)[np.argmin(score[low_mask])])
        violation = score[i] - score[j]
        if violation < tol:
            break
        if it >= max_iter:
            raise ValueError(f"no convergence after {max_iter} pair updates")
        it += 1

        eta = G[i, i] + G[j, j] - 2.0 * G[i, j]
        E_i, E_j = u[i] - y[i], u[j] - y[j]
        if eta < 1e-12:
            if not np.isfinite(C):
                raise ValueError(
                    "hard-margin dual is unbounded (coincident points with "
                    "conflicting labels); pass a box bound"
                )
            new_j = C if y[j] * (E_i - E_j) > 0 else 0.0
        else:
            new_j = alpha[j] + y[j] * (E_i - E_j) / eta
        # clip to the feasible segment of the constraint line
        if y[i] != y[j]:
            lo = max(0.0, alpha[j] - alpha[i])
            hi = min(C, C + alpha[j] - alpha[i]) if np.isfinite(C) else np.inf
        else:
            lo = max(0.0, alpha[i] + alpha[j] - C) if np.isfinite(C) else 0.0
            hi = min(C, alpha[i] + alpha[j])
        new_j = min(max(new_j, lo), hi)
        delta_j = new_j - alpha[j]
        if delta_j == 0.0:
            # the selected pair always admits progress while the violation
            # is positive; a zero step only happens at rounding level
            break
        delta_i = -y[i] * y[j] * delta_j
        alpha[i] += delta_i
        alpha[j] = new_j
        u += (delta_i * y[i]) * G[i] + (delta_j * y[j]) * G[j]

    support = np.nonzero(alpha > SUPPORT_TOL)[0]
    if len(support) == 0:
        raise ValueError("no support vector found")
    # any bias between the two certificate ends satisfies the optimality
    # conditions; with free support vectors both ends coincide at y_i - u_i
    score = y - u
    up_mask = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
    low_mask = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
    if up_mask.any() and low_mask.any():
        bias = float((score[up_mask].max() + score[low_mask].min()) / 2.0)
    elif up_mask.any():
        bias = float(score[up_mask].max())
    else:
        bias = float(score[low_mask].min())
    objective = float(alpha.sum() - 0.5 * np.dot(alpha * y, u))
    return DualSolution(alpha=alpha, bias=bias, objective=objective, iterations=it)


def svm_decision(sol: DualSolution, labels, gram_cols) -> np.ndarray:
    """Decision values from inner products with the training points.

    ``gram_cols`` holds <x_i, x> per training point i, shaped (m,) or
    (m, n_points).
    """
    y = np.asarray(labels, dtype=float).reshape(-1)
    k = np.asarray(gram_cols, dtype=float)
    return (sol.alpha * y) @ k + sol.bias


def svm_kkt_residual(gram, labels, sol: DualSolution, box: float | None = None) -> float:
    """Worst KKT violation of a trained solution.

    Margin support vectors must sit on the margin (|y f - 1| small), zero
    multipliers must satisfy y f >= 1, and box-saturated multipliers may
    violate the margin only from inside.
    """
    G = np.asarray(gram, dtype=float)
    y = np.asarray(labels, dtype=float).reshape(-1)
    f = svm_decision(sol, y, G)
    yf = y * f
    C = np.inf if box is None else float(box)
    res = 0.0
    for i in range(len(y)):
        if sol.alpha[i] <= SUPPORT_TOL:
            res = max(res, 1.0 - yf[i])
        elif sol.alpha[i] >= C - SUPPORT_TOL:
            res = max(res, yf[i] - 1.0)
        else:
            res = max(res, abs(yf[i] - 1.0))
    return float(max(res, 0.0))


# --- regression ----------------------------------------------------------------


def augment_gram(G: np.ndarray) -> np.ndarray:
    """Gram matrix of bias-augmented samples: appending a 1 to every sample
    adds 1 to every pairwise inner product."""
    return np.asarray(G, dtype=float) + 1.0


def regression_fit(gram, targets, augment: bool = True) -> np.ndarray:
    """Combination coefficients a with minimal ||G a - y||, via the
    eigenvalue pseudo-inverse of G (cutoff 1e-10 times the top eigenvalue).

    With ``augment`` (default) the bias row of ones is folded in as G + 1,
    matching the closed-form solution through the augmented data matrix;
    predictions then need only raw inner products (see
    ``regression_predict``).
    """
    G = validate_gram(gram)
    y = np.asarray(targets, dtype=float).reshape(-1)
    if len(y) != G.shape[0]:
        raise ValueError("target count must match the Gram dimension")
    G_eff = augment_gram(G) if augment else G
    w, V = np.linalg.eigh(G_eff)
    lam_max = max(float(w[-1]), 0.0)
    inv = np.where(w > EIG_CUTOFF * max(lam_max, 1e-300), 1.0 / w, 0.0)
    return V @ (inv * (V.T @ y))


def regression_predict(a: np.ndarray, gram_cols, augment: bool = True) -> np.ndarray:
    """Predictions a . k(x) where k holds raw inner products <x_i, x>."""
    k = np.asarray(gram_cols, dtype=float)
    if augment:
        k = k + 1.0
    return np.asarray(a, dtype=float) @ k


# --- principal components --------------------------------------------------------


def pca_gram(gram, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-d eigenpairs (lambda_r, u_r) of the Gram matrix.

    The lifted principal direction is X u_r / sqrt(lambda_r); projecting a
    new point x onto it needs only k_i = <x_i, x>:  (u_r . k) / sqrt(lambda_r).
    Raises ValueError when d exceeds the numerical rank.
    """
    G = validate_gram(gram)
    w, V = np.linalg.eigh(G)
    w, V = w[::-1], V[:, ::-1]
    lam_max = max(float(w[0]), 0.0)
    rank = int(np.sum(w > EIG_CUTOFF * max(lam_max, 1e-300)))
    if not 1 <= d <= rank:
        raise ValueError(f"d={d} outside [1, numerical rank {rank}]")
    return w[:d].copy(), V[:, :d].copy()


def pca_project(eigvals: np.ndarray, coeffs: np.ndarray, gram_cols) -> np.ndarray:
    """Coordinates of points on the lifted directions, from inner products
    with the training points; shape (d,) or (d, n_points)."""
    k = np.asarray(gram_cols, dtype=float)
    proj = coeffs.T @ k
    scale = np.sqrt(np.asarray(eigvals, dtype=float))
    return proj / (scale[:, None] if proj.ndim > 1 else scale)


# --- fixed-point bridge to F(q) ---------------------------------------------------


@dataclass(frozen=True)
class FixedPointCodec:
    """Rounds samples to integers round(s*x) mod q.

    Decoding is exact as long as every integer inner product stays inside
    (-q/2, q/2); ``encode_dataset`` enforces the sufficient condition
    m * L * (s * max_abs)**2 < q / 2 up front, and the same with s * max_abs
    rounded to the nearest integer, the largest magnitude the rounding of an
    admissible sample can reach.
    """

    scale: float
    q: int
    max_abs: float

    def __post_init__(self):
        if self.scale <= 0 or self.max_abs <= 0:
            raise ValueError("scale and max_abs must be positive")
        if self.q < 2:
            raise ValueError("q must be a prime >= 2")


def encode_dataset(X: np.ndarray, codec: FixedPointCodec) -> Database:
    """Encode an (m, L) real dataset as an m-file database over F(q).

    Raises ValueError when a sample exceeds the codec's magnitude bound or
    when the wraparound guard fails.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("dataset must be (m, L)")
    m, L = X.shape
    limit = codec.max_abs * (1 + 1e-12)
    if np.max(np.abs(X), initial=0.0) > limit:
        raise ValueError(f"dataset exceeds the codec bound max_abs={codec.max_abs}")
    bound = m * L * (codec.scale * codec.max_abs) ** 2
    # rint is monotone, so every encoded magnitude is at most rint(s * limit),
    # which can exceed s * max_abs; checked in integers once bound is small
    if not (
        bound < codec.q / 2
        and 2 * m * L * int(np.rint(codec.scale * limit)) ** 2 < codec.q
    ):
        raise ValueError(
            f"wraparound guard failed: m*L*(s*max_abs)^2 = {bound:.6g}, or the "
            f"same with s*max_abs rounded, is not below q/2 = {codec.q / 2:.6g}"
        )
    E = np.rint(codec.scale * X).astype(np.int64)
    return Database(codec.q, E % codec.q)


def decode_gram_integer(ipv: InnerProductVector, codec: FixedPointCodec) -> np.ndarray:
    """Exact integer Gram matrix from a mod-q inner-product vector, lifting
    each value to its centered representative in (-q/2, q/2]."""
    m, q = ipv.K, codec.q
    if ipv.q != q:
        raise ValueError(f"modulus mismatch: vector has q={ipv.q}, codec q={q}")
    G = np.zeros((m, m), dtype=np.int64)
    iu, ju = np.triu_indices(m)
    centered = ipv.values.astype(np.int64).copy()
    centered[centered > q // 2] -= q
    G[iu, ju] = centered
    G[ju, iu] = centered
    return G


def decode_gram(ipv: InnerProductVector, codec: FixedPointCodec) -> np.ndarray:
    """Real Gram matrix: the integer Gram divided by scale**2."""
    return decode_gram_integer(ipv, codec) / codec.scale**2


def direct_gram(X: np.ndarray, codec: FixedPointCodec) -> np.ndarray:
    """Gram matrix the pipeline must reproduce bit-for-bit: integer Gram of
    the encoded dataset divided by scale**2."""
    E = np.rint(codec.scale * np.asarray(X, dtype=float)).astype(np.int64)
    return (E @ E.T) / codec.scale**2


def private_gram(
    X: np.ndarray,
    codec: FixedPointCodec,
    scheme=None,
    n_servers: int = 2,
    seed=0,
):
    """Encode, retrieve every pair through the simulator, decode.

    Returns (real Gram, transcript).  The default scheme is the constant-
    query full download with one database instance, which supports any pair
    count.
    """
    from . import protocol  # local import: protocol does not need gram_ml

    if scheme is None:
        scheme = protocol.FullDownloadScheme()
    db = encode_dataset(X, codec)
    pairs = protocol.PairSet(set(PairOrdering(db.K)))
    transcript = protocol.retrieve_pairs(scheme, pairs, [db], n_servers, seed)
    ipv = InnerProductVector(db.q, db.K, transcript.decoded[:, 0])
    return decode_gram(ipv, codec), transcript


def gram_from_raw(X: np.ndarray) -> np.ndarray:
    """Plain real Gram matrix X X^T of raw samples (oracle-side helper)."""
    X = np.asarray(X, dtype=float)
    return X @ X.T


__all__ = [
    "validate_gram",
    "LabeledGram",
    "DualSolution",
    "svm_dual_train",
    "svm_decision",
    "svm_kkt_residual",
    "augment_gram",
    "regression_fit",
    "regression_predict",
    "pca_gram",
    "pca_project",
    "FixedPointCodec",
    "encode_dataset",
    "decode_gram_integer",
    "decode_gram",
    "direct_gram",
    "private_gram",
    "gram_from_raw",
]
