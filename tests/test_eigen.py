import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kreinalg import (
    InnerProduct,
    ShapeError,
    SymmetryError,
    VectorSpace,
    charpoly_eigenvalues,
    eigen_hermitian,
    jacobi_hermitian,
    kernel_dimension,
    standard_inner_product,
)
from kreinalg.eigen import _spectral_decomposition, characteristic_polynomial, cluster_eigenvalues
from kreinalg.generators import (
    random_g_selfadjoint,
    random_hermitian,
    random_positive_definite,
    random_unitary,
    separated_eigenvalues,
)
from kreinalg.matrices import frobenius, hermitian_conjugate
from kreinalg.policy import CLUSTER_TOL, JACOBI_TOL
from kreinalg.unitary import g_selfadjoint_eigen

EPS = np.finfo(np.float64).eps


class TestJacobi:
    def test_already_diagonal(self):
        diag, vectors, sweeps = jacobi_hermitian(np.diag([1.0, -1.0]))
        np.testing.assert_array_equal(diag.real, [1.0, -1.0])
        np.testing.assert_array_equal(vectors, np.eye(2))
        assert sweeps == 0

    def test_zero_matrix(self):
        diag, _, _ = jacobi_hermitian(np.zeros((3, 3)))
        np.testing.assert_array_equal(diag, np.zeros(3))

    def test_one_by_one(self):
        diag, vectors, _ = jacobi_hermitian(np.array([[4.2]]))
        assert diag[0] == pytest.approx(4.2)
        np.testing.assert_array_equal(vectors, np.eye(1))

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [2, 4, 8, 12])
    def test_diagonalizes(self, field, n):
        rng = np.random.default_rng(1000 + n)
        a = random_hermitian(rng, n, field)
        diag, v, _ = jacobi_hermitian(a)
        np.testing.assert_allclose(
            v @ np.diag(diag) @ np.conj(v).T, a, atol=1e-12
        )
        np.testing.assert_allclose(np.conj(v).T @ v, np.eye(n), atol=1e-12)
        assert np.max(np.abs(diag.imag)) < 1e-10

    def test_real_input_stays_real(self):
        rng = np.random.default_rng(61)
        a = random_hermitian(rng, 5, "real")
        diag, v, _ = jacobi_hermitian(a)
        assert np.max(np.abs(v.imag)) == 0.0
        assert np.max(np.abs(diag.imag)) == 0.0

    def test_input_not_mutated(self):
        rng = np.random.default_rng(62)
        a = random_hermitian(rng, 4, "complex")
        copy = a.copy()
        jacobi_hermitian(a)
        np.testing.assert_array_equal(a, copy)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            jacobi_hermitian(np.zeros((2, 3)))


class TestCharacteristicPolynomial:
    def test_two_by_two_hand_coefficients(self):
        # trace 4, determinant 3
        coeffs = characteristic_polynomial(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(coeffs.real, [1.0, -4.0, 3.0], atol=1e-14)

    def test_roots_of_projector(self):
        roots = charpoly_eigenvalues(np.diag([1.0, 1.0, 0.0]))
        np.testing.assert_allclose(sorted(roots.real), [0.0, 1.0, 1.0], atol=1e-10)


class TestEigenHermitian:
    def test_diag_example(self):
        dec = eigen_hermitian(np.diag([1.0, -1.0]))
        assert dec.eigenvalues == (1.0, -1.0)
        np.testing.assert_array_equal(dec.projectors[0], np.diag([1.0, 0.0]))
        np.testing.assert_array_equal(dec.projectors[1], np.diag([0.0, 1.0]))

    def test_two_by_two_versus_char_poly(self):
        dec = eigen_hermitian(np.array([[2.0, 1.0], [1.0, 2.0]]))
        # roots of l^2 - 4l + 3
        assert dec.eigenvalues[0] == pytest.approx(3.0, abs=1e-12)
        assert dec.eigenvalues[1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_random_six_by_six_versus_oracle(self, field):
        rng = np.random.default_rng(63)
        a = random_hermitian(rng, 6, field)
        dec = eigen_hermitian(a)
        mine = np.repeat(dec.eigenvalues, dec.multiplicities)
        oracle = np.sort(charpoly_eigenvalues(a).real)[::-1]
        np.testing.assert_allclose(mine, oracle, atol=1e-8)

    def test_multiplicities_detected(self):
        rng = np.random.default_rng(64)
        u = random_unitary(rng, 5, "complex")
        a = u @ np.diag([2.0, 2.0, 2.0, -1.0, -1.0]) @ np.conj(u).T
        dec = eigen_hermitian(a)
        assert dec.multiplicities == (3, 2)
        assert dec.eigenvalues[0] == pytest.approx(2.0, abs=1e-10)
        assert dec.eigenvalues[1] == pytest.approx(-1.0, abs=1e-10)
        assert kernel_dimension(a) == 0

    def test_kernel_dimension(self):
        a = np.diag([3.0, 0.0, 0.0])
        assert eigen_hermitian(a).multiplicities == (1, 2)
        assert kernel_dimension(a) == 2

    def test_projector_properties(self):
        rng = np.random.default_rng(65)
        a = random_hermitian(rng, 6, "complex")
        dec = eigen_hermitian(a)
        total = np.zeros((6, 6), dtype=complex)
        for p in dec.projectors:
            np.testing.assert_allclose(p @ p, p, atol=1e-12)
            np.testing.assert_allclose(np.conj(p).T, p, atol=1e-12)
            total += p
        np.testing.assert_allclose(total, np.eye(6), atol=1e-12)
        np.testing.assert_allclose(dec.reconstruct(), a, atol=1e-12)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_decomposes_the_hermitian_part(self, field):
        a = random_hermitian(np.random.default_rng(66), 4, field)
        a[0, 1] += 1e-10  # Hermitian within tolerance, not exactly
        dec, dec_adjoint = eigen_hermitian(a), eigen_hermitian(np.conj(a).T)
        assert dec.eigenvalues == dec_adjoint.eigenvalues
        hermitian_part = eigen_hermitian((a + np.conj(a).T) / 2)
        assert dec.eigenvalues == hermitian_part.eigenvalues

    def test_non_hermitian_rejected(self):
        with pytest.raises(SymmetryError):
            eigen_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestClustering:
    def test_groups_and_means(self):
        distinct, groups = cluster_eigenvalues([1.0, 1.0 + 1e-12, -2.0], tol=1e-9)
        assert len(distinct) == 2
        assert distinct[0] == pytest.approx(1.0, abs=1e-11)
        assert sorted(len(g) for g in groups) == [1, 2]

    def test_descending_order(self):
        distinct, _ = cluster_eigenvalues([0.5, -3.0, 2.0], tol=1e-9)
        assert distinct == sorted(distinct, reverse=True)

    def test_chained_near_ties_form_one_cluster(self):
        a, b, c, d = 1.0 + 1.2e-9, 1.0 + 0.6e-9, 1.0, 1.0 - 1.2e-9
        assert a - b <= 1e-9 and b - c <= 1e-9 and a - c > 1e-9 and c - d > 1e-9
        values = [c, -2.0, a, d, b]
        _, groups = cluster_eigenvalues(values, tol=1e-9)
        assert groups == [[2, 4, 0], [3], [1]]
        assert _bits(cluster_eigenvalues(values, 1e-9)) == _bits(_cluster_loop(values, 1e-9))

    @pytest.mark.parametrize(
        "values",
        [[3.0, -1.0, 3.0, 3.0, -1.0], [0.25], [], [2.0, 2.0]],
        ids=["exact-repeats", "single", "empty", "one-repeat"],
    )
    def test_matches_the_loop(self, values):
        assert _bits(cluster_eigenvalues(values, 1e-9)) == _bits(_cluster_loop(values, 1e-9))

    def test_matches_the_loop_on_random_spectra(self):
        rng = np.random.default_rng(7300)
        for _ in range(200):
            n = int(rng.integers(1, 65))
            exact = rng.permutation(separated_eigenvalues(rng, n, multiplicities=True))
            # Relative noise far below CLUSTER_TOL: near-ties whose means are not exact.
            noisy = exact * (1.0 + 1e-12 * rng.standard_normal(n))
            for values in (exact, noisy):
                tol = CLUSTER_TOL * frobenius(values)
                assert _bits(cluster_eigenvalues(values, tol)) == _bits(_cluster_loop(values, tol))


def _cluster_loop(values, tol):
    """The one-value-at-a-time clustering, kept as the reference."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values)[::-1]
    distinct: list[float] = []
    groups: list[list[int]] = []
    for idx in order:
        if groups and values[groups[-1][-1]] - values[idx] <= tol:
            groups[-1].append(int(idx))
            distinct[-1] = float(np.mean(values[groups[-1]]))
        else:
            groups.append([int(idx)])
            distinct.append(float(values[idx]))
    return distinct, groups


def _bits(clustering):
    distinct, groups = clustering
    assert all(type(i) is int for g in groups for i in g)
    return [float(v).hex() for v in distinct], groups


def _projectors_per_cluster(w, vectors, real, gram):
    """``(V_g V_g^+) G`` for each cluster g, one full product each: the reference assembly."""
    _, groups = cluster_eigenvalues(w, CLUSTER_TOL * frobenius(w))
    projectors = []
    for group in groups:
        cols = vectors[:, group]
        proj = cols @ hermitian_conjugate(cols)
        if gram is not None:
            proj = proj @ gram
        projectors.append(proj.real if real else proj)
    return groups, projectors


class TestProjectorAssembly:
    @pytest.mark.parametrize("with_gram", [False, True], ids=["identity", "gram"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 8, 32, 64])
    def test_matches_per_cluster_products(self, n, field, with_gram):
        rng = np.random.default_rng(7400 + n)
        space = VectorSpace(n, field)
        if with_gram:
            ip = InnerProduct(space, random_positive_definite(rng, n, field))
        else:
            ip = standard_inner_product(space)
        f = random_g_selfadjoint(rng, ip, separated_eigenvalues(rng, n, multiplicities=True))
        w, vectors = g_selfadjoint_eigen(f, ip)
        gram = ip.gram if with_gram else None
        real = field == "real"
        dec = _spectral_decomposition(w, vectors, real, gram)
        groups, reference = _projectors_per_cluster(w, vectors, real, gram)
        assert dec.multiplicities == tuple(len(g) for g in groups)
        assert n == 1 or len(groups) < n  # the spectrum has repeats from n = 2 up
        for group, p, q in zip(groups, dec.projectors, reference):
            assert p.dtype == q.dtype
            if gram is None:
                assert np.array_equal(p, q)
                continue
            # Either association of V_g V_g^+ G is within (g_m + g_n + g_m g_n) |V_g| |V_g^+| |G|
            # of the exact product, for m the cluster size, n the inner dimension of the G
            # product and g_k = (k + 2) eps, which covers complex arithmetic.
            g_m, g_n = (len(group) + 2) * EPS, (n + 2) * EPS
            magnitude = frobenius(vectors[:, group]) ** 2 * frobenius(gram)
            assert frobenius(p - q) <= 2 * (g_m + g_n + g_m * g_n) * magnitude


def _jacobi_descending(a):
    diag, vectors, _ = jacobi_hermitian(a)
    order = np.argsort(-diag.real)
    return diag.real[order], vectors[:, order]


class TestAgainstJacobi:
    """The production solver against the Jacobi reference on simple spectra.

    Both are backward stable, so eigenvalues agree to a small multiple of
    eps ||A||.  Jacobi's eigenvectors carry its stop rule, an off-diagonal
    remainder up to JACOBI_TOL ||A||, into the reconstruction and (divided
    by the smallest eigenvalue gap) into the projectors.
    """

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 8, 32, 64])
    def test_eigenvalues_projectors_and_reconstruction(self, field, n):
        a = random_hermitian(np.random.default_rng(7000 + n), n, field)
        scale = np.linalg.norm(a)
        dec = eigen_hermitian(a)
        values, vectors = _jacobi_descending(a)
        assert dec.multiplicities == (1,) * n

        assert np.max(np.abs(np.array(dec.eigenvalues) - values)) <= 64 * EPS * scale

        remainder = (JACOBI_TOL + 64 * EPS) * scale
        gap = np.min(-np.diff(values)) if n > 1 else np.inf
        for i, p in enumerate(dec.projectors):
            reference = np.outer(vectors[:, i], np.conj(vectors[:, i]))
            assert np.linalg.norm(p - reference) <= remainder / gap
        reference = (vectors * values) @ np.conj(vectors).T
        assert np.linalg.norm(dec.reconstruct() - reference) <= remainder


class TestPhaseGauge:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_largest_entry_of_each_column_is_real_positive(self, field, n):
        f = random_hermitian(np.random.default_rng(7100 + n), n, field)
        w, columns = g_selfadjoint_eigen(f, standard_inner_product(VectorSpace(n, field)))
        assert np.all(-np.diff(w) > 1e-6)  # simple spectrum: columns unique up to phase
        for column in columns.T:
            pivot = column[np.argmax(np.abs(column))]
            assert pivot.imag == 0.0 and pivot.real > 0.0


class TestScaleCovariance:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 8),
        field=st.sampled_from(["real", "complex"]),
        exponent=st.integers(-300, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_eigenvalues_scale_with_the_matrix(self, n, field, exponent, seed):
        c = 10.0**exponent
        a = random_hermitian(np.random.default_rng(seed), n, field)
        dec = eigen_hermitian(a)
        scaled = eigen_hermitian(c * a)
        assert scaled.multiplicities == dec.multiplicities
        # c * a is rounded entrywise, which moves the eigenvalues by eps ||c a||.
        bound = 64 * EPS * np.linalg.norm(dec.eigenvalues)
        np.testing.assert_array_less(
            np.abs(np.array(scaled.eigenvalues) / c - dec.eigenvalues), bound
        )

    @pytest.mark.parametrize("exponent", [-300, -200, -100, 0, 100, 200, 300])
    def test_two_by_two_example(self, exponent):
        c = 10.0**exponent
        dec = eigen_hermitian(c * np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert dec.multiplicities == (1, 1)
        assert dec.eigenvalues == pytest.approx((3 * c, -c), rel=4 * EPS)

    @settings(max_examples=60, deadline=None)
    @given(exponent=st.integers(-300, 300), field=st.sampled_from(["real", "complex"]))
    def test_non_hermitian_rejected_at_any_scale(self, exponent, field):
        dtype = np.complex128 if field == "complex" else np.float64
        a = 10.0**exponent * np.array([[1.0, 2.0], [0.0, 1.0]], dtype=dtype)
        with pytest.raises(SymmetryError, match="not Hermitian"):
            eigen_hermitian(a)
