import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipret.fields import compute_table
from pipret.gram_ml import (
    FixedPointCodec,
    LabeledGram,
    augment_gram,
    decode_gram,
    decode_gram_integer,
    direct_gram,
    encode_dataset,
    gram_from_raw,
    pca_gram,
    pca_project,
    private_gram,
    regression_fit,
    regression_predict,
    svm_decision,
    svm_dual_train,
    svm_kkt_residual,
    validate_gram,
)


def _dual_objective(alpha, G, y):
    return alpha.sum() - 0.5 * alpha @ ((np.outer(y, y) * G) @ alpha)


def _grid_refine_dual(G, y, span=4.0, steps=41, rounds=6):
    """Independent oracle for m <= 3: brute-force maximize the dual over the
    constraint plane sum(alpha_i y_i) = 0, refining the grid around the
    incumbent each round."""
    m = len(y)
    assert m <= 3
    # parametrize feasible alphas by the first m-1 coordinates; the last is
    # fixed by the equality constraint
    center = np.zeros(m - 1)
    width = span
    best, best_alpha = -np.inf, None
    for _ in range(rounds):
        axes = [np.linspace(c - width, c + width, steps) for c in center]
        grids = np.meshgrid(*axes, indexing="ij")
        free = np.stack([g.ravel() for g in grids], axis=1)
        last = -(free @ y[:-1]) / y[-1]
        cand = np.hstack([free, last[:, None]])
        ok = (cand >= -1e-12).all(axis=1)
        cand = cand[ok]
        vals = np.array([_dual_objective(a, G, y) for a in cand])
        idx = int(np.argmax(vals))
        if vals[idx] > best:
            best, best_alpha = float(vals[idx]), cand[idx]
        center = best_alpha[: m - 1]
        width /= steps / 4
    return best, best_alpha


def test_svm_analytic_two_points():
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    y = np.array([1.0, -1.0])
    sol = svm_dual_train(gram_from_raw(X), y)
    np.testing.assert_allclose(sol.alpha, [0.5, 0.5], atol=1e-10)
    assert sol.bias == pytest.approx(0.0, abs=1e-10)
    assert sol.objective == pytest.approx(0.5, abs=1e-10)
    # separating rule is the sign of the first coordinate
    for x, want in [((2.0, 3.0), 1.0), ((-0.5, 1.0), -1.0)]:
        k = X @ np.asarray(x)
        assert np.sign(svm_decision(sol, y, k)) == want


def test_svm_matches_grid_oracle_small():
    # well-separated fixtures keep the optimal multipliers inside the
    # oracle's search span
    fixtures = [
        (np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, -1.0])),
        (np.array([[2.0, 0.5], [1.5, -0.5], [-2.0, 0.0]]), np.array([1.0, 1.0, -1.0])),
        (np.array([[1.0, 1.0], [2.0, 2.0], [-1.0, -1.5]]), np.array([1.0, 1.0, -1.0])),
    ]
    for X, y in fixtures:
        G = gram_from_raw(X)
        sol = svm_dual_train(G, y)
        oracle_obj, _ = _grid_refine_dual(G, y)
        assert sol.objective == pytest.approx(oracle_obj, abs=1e-6)


def test_svm_single_class_rejected():
    G = np.eye(2)
    with pytest.raises(ValueError, match="single-class"):
        svm_dual_train(G, np.array([1.0, 1.0]))


def test_svm_bad_labels_rejected():
    with pytest.raises(ValueError, match="labels"):
        svm_dual_train(np.eye(2), np.array([1.0, 2.0]))


def test_svm_kkt_certificate_20_points():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(2, 0.5, (10, 2)), rng.normal(-2, 0.5, (10, 2))])
    y = np.array([1.0] * 10 + [-1.0] * 10)
    G = gram_from_raw(X)
    sol = svm_dual_train(G, y)
    assert svm_kkt_residual(G, y, sol) < 1e-6
    f = svm_decision(sol, y, G)
    for i in range(20):
        if sol.alpha[i] < 1e-8:
            assert y[i] * f[i] >= 1 - 1e-6
        else:
            assert abs(y[i] * f[i] - 1) <= 1e-6


def test_svm_box_handles_inseparable_data():
    # one point planted on the wrong side
    X = np.array([[1.0, 0.0], [1.2, 0.1], [-1.0, 0.0], [0.9, 0.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    G = gram_from_raw(X)
    sol = svm_dual_train(G, y, box=10.0)
    assert svm_kkt_residual(G, y, sol, box=10.0) < 1e-6
    assert np.all(sol.alpha <= 10.0 + 1e-12)


def test_svm_labeled_gram_container():
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    lg = LabeledGram(gram_from_raw(X), [1.0, -1.0])
    sol = svm_dual_train(lg)
    np.testing.assert_allclose(sol.alpha, [0.5, 0.5], atol=1e-10)


def test_validate_gram_rejects_non_psd():
    with pytest.raises(ValueError, match="PSD"):
        validate_gram(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        validate_gram(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_regression_identity_gram():
    a = regression_fit(np.eye(2), [1.0, 2.0], augment=False)
    np.testing.assert_allclose(a, [1.0, 2.0], atol=1e-12)


def test_regression_line_fixture_exact():
    x = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    t = 2.0 * x[:, 0] + 1.0
    G = gram_from_raw(x)
    a = regression_fit(G, t, augment=True)
    preds = regression_predict(a, G)
    np.testing.assert_allclose(preds, t, atol=1e-8)
    # prediction at a fresh point via inner products only
    x_new = np.array([10.0])
    k = (x @ x_new).ravel()
    assert regression_predict(a, k) == pytest.approx(21.0, abs=1e-8)


def test_regression_duplicated_rows_pseudo_inverse():
    X = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 1.0]])
    y = np.array([1.0, 3.0, 0.0])
    G = gram_from_raw(X)
    a = regression_fit(G, y, augment=True)
    G_aug = augment_gram(G)
    residual = np.linalg.norm(G_aug @ a - y)
    X_aug = np.hstack([X, np.ones((3, 1))])
    # oracle: least squares on the raw augmented matrix
    w, *_ = np.linalg.lstsq(X_aug, y, rcond=None)
    oracle_residual = np.linalg.norm(X_aug @ w - y)
    preds = regression_predict(a, G)
    oracle_preds = X_aug @ w
    np.testing.assert_allclose(preds, oracle_preds, atol=1e-8)
    assert residual == pytest.approx(oracle_residual, abs=1e-8)


def test_regression_dimension_mismatch():
    with pytest.raises(ValueError, match="target count"):
        regression_fit(np.eye(3), [1.0, 2.0])


def test_pca_hand_case():
    X = np.array([[2.0, 0.0], [1.0, 0.0]])
    G = gram_from_raw(X)  # [[4, 2], [2, 1]]
    np.testing.assert_allclose(G, [[4.0, 2.0], [2.0, 1.0]])
    lam, U = pca_gram(G, 1)
    assert lam[0] == pytest.approx(5.0, abs=1e-10)
    u = U[:, 0] * np.sign(U[0, 0])
    np.testing.assert_allclose(u, np.array([2.0, 1.0]) / np.sqrt(5.0), atol=1e-10)
    lifted = X.T @ U[:, 0]
    lifted /= np.linalg.norm(lifted)
    np.testing.assert_allclose(np.abs(lifted), [1.0, 0.0], atol=1e-10)


def test_pca_isotropic_gram():
    lam, U = pca_gram(np.eye(3), 3)
    np.testing.assert_allclose(lam, 1.0, atol=1e-12)
    energies = np.sum(pca_project(lam, U, np.eye(3)) ** 2, axis=1)
    np.testing.assert_allclose(energies, energies[0], atol=1e-12)


def test_pca_matches_covariance_oracle():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(10, 3))
    lam, U = pca_gram(gram_from_raw(X), 3)
    w, V = np.linalg.eigh(X.T @ X)  # oracle route through the L x L matrix
    w, V = w[::-1], V[:, ::-1]
    np.testing.assert_allclose(lam, w[:3], atol=1e-8)
    for r in range(3):
        lifted = X.T @ U[:, r]
        lifted /= np.linalg.norm(lifted)
        # principal angle between lifted and oracle directions
        cos = abs(lifted @ V[:, r])
        assert cos == pytest.approx(1.0, abs=1e-6)


def test_pca_rank_guard():
    X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    with pytest.raises(ValueError, match="rank"):
        pca_gram(gram_from_raw(X), 2)


def test_gram_sufficiency_against_raw_oracles():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(12, 4))
    y_cls = np.sign(X[:, 0] * 2 + 0.3)
    G = gram_from_raw(X)

    sol = svm_dual_train(G, y_cls, box=50.0)
    w = (sol.alpha * y_cls) @ X
    np.testing.assert_allclose(
        X @ w + sol.bias, svm_decision(sol, y_cls, G), atol=1e-6
    )

    y_reg = rng.normal(size=12)
    a = regression_fit(G, y_reg)
    X_aug = np.hstack([X, np.ones((12, 1))])
    w_reg, *_ = np.linalg.lstsq(X_aug, y_reg, rcond=None)
    np.testing.assert_allclose(regression_predict(a, G), X_aug @ w_reg, atol=1e-6)

    lam, U = pca_gram(G, 2)
    proj = pca_project(lam, U, G)
    wc, Vc = np.linalg.eigh(X.T @ X)
    dirs = Vc[:, ::-1][:, :2]
    proj_raw = dirs.T @ X.T
    np.testing.assert_allclose(np.abs(proj), np.abs(proj_raw), atol=1e-6)


# --- fixed-point codec ---------------------------------------------------------------


def test_codec_round_trip_exact():
    codec = FixedPointCodec(scale=10.0, q=10**9 + 7, max_abs=1.0)
    X = np.array([[0.5, -0.3], [0.9, 0.1]])
    db = encode_dataset(X, codec)
    G_int = decode_gram_integer(compute_table(db), codec)
    E = np.rint(10.0 * X).astype(np.int64)
    np.testing.assert_array_equal(G_int, E @ E.T)
    np.testing.assert_allclose(decode_gram(compute_table(db), codec), (E @ E.T) / 100.0)


def test_codec_handles_negative_inner_products():
    codec = FixedPointCodec(scale=1.0, q=101, max_abs=3.0)
    X = np.array([[3.0, 0.0], [-3.0, 1.0]])
    db = encode_dataset(X, codec)
    G_int = decode_gram_integer(compute_table(db), codec)
    assert G_int[0, 1] == -9


def test_codec_wraparound_guard():
    codec = FixedPointCodec(scale=10.0, q=101, max_abs=1.0)
    with pytest.raises(ValueError, match="wraparound"):
        encode_dataset(np.array([[1.0, 1.0]]), codec)


def test_codec_magnitude_guard():
    codec = FixedPointCodec(scale=10.0, q=10**9 + 7, max_abs=1.0)
    with pytest.raises(ValueError, match="exceeds the codec bound"):
        encode_dataset(np.array([[2.0]]), codec)


def test_codec_zero_dataset():
    codec = FixedPointCodec(scale=10.0, q=10**9 + 7, max_abs=1.0)
    X = np.zeros((3, 2))
    db = encode_dataset(X, codec)
    np.testing.assert_array_equal(decode_gram(compute_table(db), codec), np.zeros((3, 3)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_codec_wraparound_boundary(data):
    """Samples at +-max_abs put the integer Gram diagonal at L*rint(s*max_abs)^2.

    Just below m*L*(s*max_abs)^2 = q/2 the private Gram is bit-identical to
    the direct one, unless rounding carries s*max_abs across the boundary, in
    which case encoding must refuse; just above, encoding always refuses.
    """
    q = data.draw(st.sampled_from([101, 65537, 10**9 + 7, 2**61 - 1]), label="q")
    m = data.draw(st.integers(1, 4), label="m")
    L = data.draw(st.integers(1, 8), label="L")
    scale = data.draw(st.floats(0.01, 1e4), label="scale")
    below = data.draw(st.booleans(), label="below")
    gap = data.draw(st.floats(1e-9, 1e-4), label="gap")
    ratio = 1 - gap if below else 1 + gap
    max_abs = math.sqrt(ratio * q / 2 / (m * L)) / scale
    signs = data.draw(
        st.lists(st.sampled_from([-1.0, 1.0]), min_size=m * L, max_size=m * L),
        label="signs",
    )
    X = np.reshape(signs, (m, L)) * max_abs
    codec = FixedPointCodec(scale=scale, q=q, max_abs=max_abs)
    assert (m * L * (scale * max_abs) ** 2 < q / 2) is below
    if not below:
        with pytest.raises(ValueError, match="wraparound"):
            encode_dataset(X, codec)
        return
    top = np.rint(scale * max_abs)
    try:
        encode_dataset(X, codec)
    except ValueError as exc:
        assert "wraparound" in str(exc)
        assert top > scale * max_abs and 2 * m * L * int(top) ** 2 >= q
        return
    G_priv, _ = private_gram(X, codec)
    assert G_priv.tobytes() == direct_gram(X, codec).tobytes()


def test_codec_validation():
    with pytest.raises(ValueError):
        FixedPointCodec(scale=0.0, q=101, max_abs=1.0)
    with pytest.raises(ValueError):
        FixedPointCodec(scale=1.0, q=1, max_abs=1.0)


def test_private_gram_bit_identical():
    rng = np.random.default_rng(3)
    X = rng.uniform(-2.0, 2.0, size=(4, 3))
    codec = FixedPointCodec(scale=100.0, q=10**9 + 7, max_abs=2.0)
    G_priv, transcript = private_gram(X, codec, seed=0)
    G_dir = direct_gram(X, codec)
    assert G_priv.tobytes() == G_dir.tobytes()
    assert transcript.downloaded == 10  # full download of all 4*5/2 pairs


def test_private_gram_feeds_training():
    rng = np.random.default_rng(9)
    X = rng.uniform(-1.0, 1.0, size=(6, 2))
    y = np.where(X[:, 0] + 0.1 * rng.normal(size=6) > 0, 1.0, -1.0)
    if len(set(y)) < 2:
        y[0] = -y[0]
    codec = FixedPointCodec(scale=1000.0, q=2**61 - 1, max_abs=1.0)
    G_priv, _ = private_gram(X, codec, seed=2)
    sol = svm_dual_train(G_priv, y, box=100.0)
    assert svm_kkt_residual(G_priv, y, sol, box=100.0) < 1e-6
