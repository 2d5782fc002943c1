import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kreinalg import (
    InnerProduct,
    ShapeError,
    dirac_spectral,
    minkowski_structure,
    spectral_representation,
    SymmetryError,
    VectorSpace,
    charpoly_eigenvalues,
    eigen_hermitian,
    jacobi_hermitian,
    kernel_dimension,
    policy,
    standard_inner_product,
)
from kreinalg.eigen import (
    _clusters,
    _eigh,
    _hermitian_form,
    _hermitian_part,
    _spectral_decomposition,
    characteristic_polynomial,
    cluster_eigenvalues,
)
from kreinalg.generators import (
    random_g_selfadjoint,
    random_hermitian,
    random_positive_definite,
    random_unitary,
    separated_eigenvalues,
)
from kreinalg.matrices import hermitian_conjugate
from kreinalg.policy import CLUSTER_TOL, JACOBI_TOL
from kreinalg.unitary import _in_frame, g_selfadjoint_eigen

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
        values = [1.0, 1.0 + 1e-12, -2.0]
        distinct, groups = cluster_eigenvalues(values)
        assert len(distinct) == 2
        assert distinct[0] == pytest.approx(1.0, abs=1e-11)
        assert sorted(len(g) for g in groups) == [1, 2]
        assert _bits(cluster_eigenvalues(values)) == _bits(_cluster_loop(values, _policy_tol(values)))

    def test_descending_order(self):
        values = [0.5, -3.0, 2.0]
        distinct, _ = cluster_eigenvalues(values)
        assert distinct == sorted(distinct, reverse=True)
        assert _bits(cluster_eigenvalues(values)) == _bits(_cluster_loop(values, _policy_tol(values)))

    def test_chained_near_ties_form_one_cluster(self):
        t = _policy_tol([1.0, -2.0, 1.0, 1.0, 1.0])
        a, b, c, d = 1.0 + 1.2 * t, 1.0 + 0.6 * t, 1.0, 1.0 - 1.2 * t
        values = [c, -2.0, a, d, b]
        tol = _policy_tol(values)
        assert a - b <= tol and b - c <= tol and a - c > tol and c - d > tol
        _, groups = cluster_eigenvalues(values)
        assert groups == [[2, 4, 0], [3], [1]]
        assert _bits(cluster_eigenvalues(values)) == _bits(_cluster_loop(values, tol))

    @pytest.mark.parametrize(
        "values",
        [[3.0, -1.0, 3.0, 3.0, -1.0], [0.25], [], [2.0, 2.0]],
        ids=["exact-repeats", "single", "empty", "one-repeat"],
    )
    def test_matches_the_loop(self, values):
        assert _bits(cluster_eigenvalues(values)) == _bits(_cluster_loop(values, _policy_tol(values)))

    @pytest.mark.parametrize(
        "values,groups",
        [
            ([1.0] * 6 + [-1.0] * 6, [[5, 4, 3, 2, 1, 0], [11, 10, 9, 8, 7, 6]]),
            ([2.0] * 20, [list(range(19, -1, -1))]),
        ],
        ids=["two-exact-blocks", "twenty-ties"],
    )
    def test_exact_ties_list_in_descending_index_order(self, values, groups):
        # An unstable sort ordered ties by the numpy build's sorting kernel.
        assert cluster_eigenvalues(values)[1] == groups
        assert _bits(cluster_eigenvalues(values)) == _bits(_cluster_loop(values, _policy_tol(values)))

    def test_matches_the_loop_on_random_spectra(self):
        rng = np.random.default_rng(7300)
        for _ in range(200):
            n = int(rng.integers(1, 65))
            exact = rng.permutation(separated_eigenvalues(rng, n, multiplicities=True))
            # Relative noise far below CLUSTER_TOL: near-ties whose means are not exact.
            noisy = exact * (1.0 + 1e-12 * rng.standard_normal(n))
            for values in (exact, noisy):
                tol = _policy_tol(values)
                assert _bits(cluster_eigenvalues(values)) == _bits(_cluster_loop(values, tol))

    @settings(max_examples=80, deadline=None)
    @given(
        finite=st.lists(
            st.one_of(st.sampled_from([1.0, -1.0, 1.0 + 1e-9, 0.0]), st.floats(-1e300, 1e300)),
            min_size=1, max_size=12,
        ),
        bad=st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_non_finite_values_leave_the_finite_clusters_alone(self, finite, bad, data):
        # Each NaN or infinity is a cluster of its own; the finite values
        # cluster, and average, with the bits they have without it.
        values = list(finite)
        for v in bad:
            values.insert(data.draw(st.integers(0, len(values))), v)
        finite_index = {}
        for i, v in enumerate(values):
            if np.isfinite(v):
                finite_index[i] = len(finite_index)
        distinct, groups = cluster_eigenvalues(values)
        kept = [(d, [finite_index[i] for i in g]) for d, g in zip(distinct, groups) if g[0] in finite_index]
        assert _bits(([d for d, _ in kept], [g for _, g in kept])) == _bits(cluster_eigenvalues(finite))
        assert sorted(g for g in groups if g[0] not in finite_index) == sorted(
            [i] for i in range(len(values)) if i not in finite_index
        )

    def test_an_overflowing_eigenvalue_is_a_cluster_of_its_own(self):
        # The spectrum of 1e308 (1 1; 1 1) is {2e308, 0}: the first overflows.
        dec = eigen_hermitian(1e308 * np.ones((2, 2)))
        assert dec.eigenvalues == (np.inf, 0.0) and dec.multiplicities == (1, 1)
        np.testing.assert_allclose(dec.projectors[1], [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def _list_walk_clusters(values):
    """The clustering ``_clusters`` ran before its simple-spectrum test, one list walk, kept as the reference."""
    listed = values.tolist()
    finite = [v for v in listed if math.isfinite(v)]
    scale = policy.scale_of(max(map(abs, finite), default=0.0))
    scaled = measured = values / scale
    if len(finite) < len(listed):
        measured = np.divide(finite, scale)
        scaled[~np.isfinite(scaled)] = np.nan
    tol = policy.CLUSTER_TOL * policy.frobenius(measured)
    cuts = (np.flatnonzero(~(scaled[:-1] - scaled[1:] <= tol)) + 1).tolist()
    bounds = list(zip([0] + cuts, cuts + [len(listed)]))
    if len(bounds) == len(listed):
        return bounds, listed
    distinct = [
        listed[start] if end - start == 1 else scale * float(np.mean(scaled[start:end]))
        for start, end in bounds
    ]
    return bounds, distinct


def _bounds_and_bits(values, rule):
    """``rule``'s clusters of ``values`` as explicit bounds and the hex of each mean."""
    bounds, distinct = rule(np.array(values))
    if bounds is None:
        bounds = [(i, i + 1) for i in range(len(values))]
    return bounds, [float(v).hex() for v in distinct]


# Exact ties, near-ties, zero, the tolerance itself and the non-finite values.
_SPECTRUM = st.one_of(
    st.sampled_from([1.0, -1.0, 1.0 + 1e-9, 1.0 - 1e-8, 0.0, CLUSTER_TOL, -CLUSTER_TOL, 1.5]),
    st.floats(-2.0, 2.0),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)


class TestSimpleSpectrumShortcut:
    """The one vectorized gap test of ``_clusters`` answers as the general rule it skips."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_SPECTRUM, min_size=1, max_size=12), scale=st.floats(1e-300, 1e300))
    @example(values=[1.0, CLUSTER_TOL, 0.0], scale=1.0)  # the last gap equals the tolerance
    @example(values=[1.0, CLUSTER_TOL, 0.0], scale=2.0**-990)
    @example(values=[2.0, 2.0], scale=1.0)
    @example(values=[0.25], scale=1e300)
    @example(values=[np.nan], scale=1.0)
    @example(values=[np.inf, 1.0, -np.inf], scale=1e-300)
    @example(values=[np.nan, 3.0, 1.0], scale=1.0)
    def test_matches_the_general_rule(self, values, scale):
        values = np.sort(np.multiply(values, scale))[::-1].copy()  # NaN first, as cluster_eigenvalues orders
        assert _bounds_and_bits(values, _clusters) == _bounds_and_bits(values, _list_walk_clusters)

    @pytest.mark.parametrize("k", [-900, -300, 0, 300, 1000])
    def test_a_gap_equal_to_the_tolerance_joins(self, k):
        # The norm of (1, CLUSTER_TOL, 0) rounds to 1, so the last gap is the tolerance itself.
        values = math.ldexp(1.0, k) * np.array([1.0, CLUSTER_TOL, 0.0])
        assert _clusters(values) == ([(0, 1), (1, 3)], [values[0], math.ldexp(CLUSTER_TOL / 2.0, k)])

    def test_a_simple_spectrum_is_answered_without_bounds(self):
        values = np.array([3.0, 1.0, -2.0])
        assert _clusters(values) == (None, [3.0, 1.0, -2.0])
        assert cluster_eigenvalues(values[::-1]) == ([3.0, 1.0, -2.0], [[2], [1], [0]])


class TestHermitianPartFormedOnce:
    """Each decomposition forms the Hermitian part of its unit or frame matrix once."""

    @pytest.fixture
    def formed(self, monkeypatch):
        calls = []

        def counted(m):
            calls.append(m.shape)
            return _hermitian_part(m)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("kreinalg") and getattr(module, "_hermitian_part", None) is _hermitian_part:
                monkeypatch.setattr(module, "_hermitian_part", counted)
        return calls

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_each_decomposition(self, formed, field):
        rng = np.random.default_rng(31)
        ip = InnerProduct(VectorSpace(4, field), random_positive_definite(rng, 4, field))
        ms = minkowski_structure(2, 2, field)
        f = random_g_selfadjoint(rng, ip)
        formed.clear()
        for decompose in (
            lambda: eigen_hermitian(random_hermitian(rng, 4, field)),
            lambda: spectral_representation(f, ip),
            lambda: dirac_spectral(np.diag([2.0, 1.0, -1.0, -3.0]).astype(ip.gram.dtype), ms),
        ):
            decompose()
            assert formed == [(4, 4)]
            formed.clear()

    @settings(max_examples=100, deadline=None)
    @given(
        field=st.sampled_from(["real", "complex"]),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.integers(0, 15),
        k=st.integers(-1074, 1000),
    )
    def test_the_hermitian_form_is_its_own_hermitian_part(self, field, seed, zeros, k):
        # So the kernel gets the bits that a second (H + H^+)/2 gave, signed zeros included.
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, 4, field)
        for part in (a.real, a.imag) if field == "complex" else (a,):
            mask = rng.random((4, 4)) < zeros / 16
            mask |= mask.T  # zeros of either sign, in Hermitian pairs
            part[mask] = np.where(rng.random(int(mask.sum())) < 0.5, -0.0, 0.0)
        h, _ = _hermitian_form(math.ldexp(1.0, k) * a, "matrix")
        assert _hermitian_part(h).tobytes() == h.tobytes()


def _policy_tol(values):
    """The clustering tolerance the policy sets for ``values``."""
    return CLUSTER_TOL * policy.norm(np.asarray(values, dtype=np.float64))


def _cluster_loop(values, tol):
    """The one-value-at-a-time clustering, kept as the reference."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")[::-1]
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
    """``(V_g V_g^+) G`` for each cluster g, one full product each: the reference assembly.

    ``w`` is descending, so each cluster is a run of columns, taken in their order.
    """
    _, groups = cluster_eigenvalues(w)
    groups = [sorted(group) for group in groups]
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
        gram = ip.gram if with_gram else None
        real = field == "real"
        # With repeats from n = 2 up, and simple: one batched product of rank-1 slices.
        for repeats in (True, False):
            f = random_g_selfadjoint(rng, ip, separated_eigenvalues(rng, n, multiplicities=repeats))
            w, vectors = g_selfadjoint_eigen(f, ip)
            dec = _spectral_decomposition(w, vectors, gram)
            groups, reference = _projectors_per_cluster(w, vectors, real, gram)
            assert dec.multiplicities == tuple(len(g) for g in groups)
            assert n == 1 or (len(groups) < n) == repeats
            for group, p, q in zip(groups, dec.projectors, reference):
                assert p.dtype == q.dtype
                if gram is None:
                    # Bytes, not values: a -0.0 for a 0.0 is a difference too.
                    assert p.tobytes() == q.tobytes()
                    continue
                # Either association of V_g V_g^+ G is within (g_m + g_n + g_m g_n) |V_g| |V_g^+| |G|
                # of the exact product, for m the cluster size, n the inner dimension of the G
                # product and g_k = (k + 2) eps, which covers complex arithmetic.
                g_m, g_n = (len(group) + 2) * EPS, (n + 2) * EPS
                magnitude = policy.norm(vectors[:, group]) ** 2 * policy.norm(gram)
                assert policy.norm(p - q) <= 2 * (g_m + g_n + g_m * g_n) * magnitude


def _descending_assembly(w, vectors, gram=None):
    """Projectors as assembled before eigenpairs came in descending order.

    ``cluster_eigenvalues`` sorts ``w`` with ``np.argsort``, and each
    cluster's projector is the product of its gathered columns.
    """
    distinct, groups = cluster_eigenvalues(w)
    cols = vectors[:, np.concatenate(groups)]
    rows = hermitian_conjugate(cols)
    if gram is not None:
        rows = rows @ gram
    projectors, start = [], 0
    for group in groups:
        end = start + len(group)
        projectors.append(cols[:, start:end] @ rows[start:end])
        start = end
    return tuple(distinct), tuple(len(g) for g in groups), projectors


def _frame_eigh(m, scale):
    """Ascending eigenpairs of the Hermitian part of a frame matrix, eigenvalues times ``scale``."""
    w, u = _eigh((m + hermitian_conjugate(m)) / 2.0)
    return scale * w, u


def _frame_assembly(f, ip):
    """``spectral_representation``'s eigenpairs sorted by ``np.argsort``, then assembled."""
    w, u = _frame_eigh(*_in_frame(f, ip.frame, ip.frame_inv))
    order = np.argsort(-w)
    return _descending_assembly(w[order], ip.frame @ u[:, order], ip.gram)


def _dirac_assembly(f, ms):
    """``dirac_spectral``'s eigenpairs sorted by ``np.argsort``, then assembled."""
    frame = ms.frame.basis
    m, scale = _in_frame(f, frame.matrix, frame.inverse)
    w, u = _frame_eigh(m * ms.eta, scale)
    order = np.argsort(-w)
    return _descending_assembly(w[order], frame.matrix @ u[:, order], ms.ip.gram)


class TestExactRepeats:
    """Spectra with exact repeats keep the bytes of the argsort-and-gather assembly.

    The eigenpairs now arrive descending, reversed from the seam, and each
    cluster is a run of columns; before, ``np.argsort`` ordered them and
    each cluster's columns were gathered.  On these spectra the two give
    the same eigenvalues, multiplicities and projector bytes.
    """

    @staticmethod
    def _same(dec, reference):
        distinct, multiplicities, projectors = reference
        assert [float(v).hex() for v in dec.eigenvalues] == [float(v).hex() for v in distinct]
        assert all(type(v) is float for v in dec.eigenvalues)
        assert dec.multiplicities == multiplicities
        assert [p.dtype for p in dec.projectors] == [q.dtype for q in projectors]
        assert [p.tobytes() for p in dec.projectors] == [q.tobytes() for q in projectors]

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("signature", [(2, 2), (1, 3), (3, 1), (4, 0)])
    def test_minkowski(self, field, signature):
        ms = minkowski_structure(*signature, field)
        eta = np.diag(ms.eta).astype(ms.h.dtype)
        self._same(eigen_hermitian(eta), _descending_assembly(*_eigh(eta)))
        self._same(spectral_representation(eta, ms.ip), _frame_assembly(eta, ms.ip))
        for f in (eta, eta @ eta, 2.0 * eta):
            self._same(dirac_spectral(f, ms), _dirac_assembly(f, ms))

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_repeated_diagonals(self, field, n):
        rng = np.random.default_rng(7500 + n)
        dtype = np.complex128 if field == "complex" else np.float64
        ms = minkowski_structure(n // 2, n - n // 2, field)
        for _ in range(5):
            values = rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0], size=n)
            values[int(rng.integers(1, n))] = values[0]
            d = np.diag(values).astype(dtype)
            self._same(eigen_hermitian(d), _descending_assembly(*_eigh(d)))
            self._same(spectral_representation(d, ms.ip), _frame_assembly(d, ms.ip))
            # A real diagonal commutes with eta, so it is Dirac-selfadjoint.
            self._same(dirac_spectral(d, ms), _dirac_assembly(d, ms))


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

    # Subnormal input: the Hermitian part is formed and decomposed at unit
    # scale, so no entry is halved below the normal range and LAPACK's own
    # scaling (by a factor that is not a power of two) never engages.
    def test_smallest_subnormal_spectrum_is_exact(self):
        dec = eigen_hermitian(2.0**-1074 * np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert dec.eigenvalues == (3 * 2.0**-1074, 2.0**-1074) and dec.multiplicities == (1, 1)

    def test_subnormal_spectrum_is_correctly_rounded(self):
        c = 1e-315
        dec = eigen_hermitian(c * np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert dec.eigenvalues == (3 * c, c) and dec.multiplicities == (1, 1)

    @settings(max_examples=150, deadline=None)
    @given(
        field=st.sampled_from(["real", "complex"]),
        entries=st.lists(st.integers(-64, 64), min_size=72, max_size=72),
        n=st.integers(1, 6),
        k=st.integers(-1074, 1000),
    )
    @example(field="real", entries=[16, 8, 8, 16] + [0] * 68, n=2, k=-1074)
    @example(field="complex", entries=[16, 8, 8, 16, 0, 8, -8, 0] + [0] * 64, n=2, k=-1070)
    @example(field="real", entries=[64, 8, 8, 64] + [0] * 68, n=2, k=1000)
    @example(field="real", entries=[8, 8, 8, 8] + [0] * 68, n=2, k=-1000)
    def test_power_of_two_scaling_is_exact(self, field, entries, n, k):
        # Dyadic A (entries j/8), so 2**k A is exact whenever it converts back.
        parts = np.array(entries[: 2 * n * n], dtype=float).reshape(2, n, n) / 8.0
        p = parts[0] + 1j * parts[1] if field == "complex" else parts[0]
        a = (p + np.conj(p).T) / 2.0
        scaled = np.ldexp(a.real, k) + (1j * np.ldexp(a.imag, k) if field == "complex" else 0.0)
        assume(np.array_equal(np.ldexp(scaled.real, -k), a.real))
        assume(np.array_equal(np.ldexp(np.imag(scaled), -k), np.imag(a)))
        reference = eigen_hermitian(a)
        expected = np.ldexp(np.array(reference.eigenvalues), k)
        # Where every eigenvalue stays a normal number (or zero), 2**k eig(A) is exact.
        assume(np.all((expected == 0.0) | (np.abs(expected) >= np.finfo(float).tiny)))
        dec = eigen_hermitian(scaled)
        assert dec.multiplicities == reference.multiplicities
        assert np.array(dec.eigenvalues).tobytes() == expected.tobytes()
        for mine, theirs in zip(dec.projectors, reference.projectors):
            assert mine.tobytes() == theirs.tobytes()
