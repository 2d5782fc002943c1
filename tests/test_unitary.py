import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kreinalg import (
    DegenerateFormError,
    DependentSetError,
    InnerProduct,
    SymmetryError,
    VectorSpace,
    adjoint,
    change_of_basis,
    hermitian_conjugate,
    inner_product,
    is_selfadjoint,
    is_unitary_wrt,
    norm,
    orthonormalize,
    riesz_inverse,
    riesz_map,
    spectral_representation,
    standard_inner_product,
)
from kreinalg.generators import (
    lorentz_boost,
    random_g_selfadjoint,
    random_hermitian,
    random_invertible,
    random_ket,
    random_matrix,
    random_positive_definite,
    random_unitary,
)
from kreinalg.policy import TOL

SPACE3C = VectorSpace(3, "complex", "V")
SPACE2 = VectorSpace(2, "real", "V")


def _random_ip(seed, n=3, field="complex"):
    rng = np.random.default_rng(seed)
    space = VectorSpace(n, field, "V")
    return rng, InnerProduct(space, random_positive_definite(rng, n, field))


class TestInnerProduct:
    def test_standard_norm_formula(self):
        ip = standard_inner_product(SPACE3C)
        x = np.array([[1.0 + 1.0j], [2.0], [0.0 - 1.0j]])
        assert inner_product(x, x, ip) == pytest.approx(np.sum(np.abs(x) ** 2))

    def test_definiteness(self):
        rng, ip = _random_ip(70)
        x = random_ket(rng, 3, "complex")
        assert np.real(inner_product(x, x, ip)) > 0
        assert inner_product(np.zeros((3, 1), dtype=complex), np.zeros((3, 1), dtype=complex), ip) == 0

    def test_conjugate_symmetry(self):
        rng, ip = _random_ip(71)
        x = random_ket(rng, 3, "complex")
        y = random_ket(rng, 3, "complex")
        assert inner_product(y, x, ip) == pytest.approx(
            np.conj(inner_product(x, y, ip)), abs=1e-12
        )

    def test_sesquilinearity(self):
        rng, ip = _random_ip(72)
        x, y = random_ket(rng, 3, "complex"), random_ket(rng, 3, "complex")
        alpha = 0.3 - 0.8j
        assert inner_product(x, alpha * y, ip) == pytest.approx(
            alpha * inner_product(x, y, ip), abs=1e-12
        )
        assert inner_product(alpha * x, y, ip) == pytest.approx(
            np.conj(alpha) * inner_product(x, y, ip), abs=1e-12
        )

    def test_gram_must_be_hermitian(self):
        with pytest.raises(SymmetryError):
            InnerProduct(SPACE2, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_gram_must_be_positive_definite(self):
        with pytest.raises(DegenerateFormError):
            InnerProduct(SPACE2, np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_frame_is_g_orthonormal_with_its_inverse(self, field):
        _, ip = _random_ip(73, field=field)
        w = ip.frame
        np.testing.assert_allclose(hermitian_conjugate(w) @ ip.gram @ w, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(w @ ip.frame_inv, np.eye(3), atol=1e-12)


class TestNorm:
    def test_zero_vector(self):
        ip = standard_inner_product(SPACE3C)
        assert norm(np.zeros((3, 1), dtype=complex), ip) == 0.0

    def test_homogeneity(self):
        rng, ip = _random_ip(74)
        x = random_ket(rng, 3, "complex")
        alpha = -1.7 + 0.4j
        assert norm(alpha * x, ip) == pytest.approx(abs(alpha) * norm(x, ip), abs=1e-12)

    def test_triangle_inequality(self):
        rng, ip = _random_ip(75)
        x, y = random_ket(rng, 3, "complex"), random_ket(rng, 3, "complex")
        assert norm(x + y, ip) <= norm(x, ip) + norm(y, ip) + 1e-12

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 8),
        field=st.sampled_from(["real", "complex"]),
        k=st.integers(-1000, 1000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_power_of_two_scaling_is_exact(self, n, field, k, seed):
        # Far outside the range where (x, x) neither overflows nor underflows.
        rng, ip = _random_ip(seed, n, field)
        x = random_ket(rng, n, field)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm(math.ldexp(1.0, k) * x, ip) == math.ldexp(norm(x, ip), k)

    def test_cauchy_schwarz_bulk(self):
        rng = np.random.default_rng(76)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            space = VectorSpace(n, "complex", "V")
            ip = InnerProduct(space, random_positive_definite(rng, n, "complex"))
            x, y = random_ket(rng, n, "complex"), random_ket(rng, n, "complex")
            assert abs(inner_product(x, y, ip)) <= norm(x, ip) * norm(y, ip) + 1e-12


class TestRiesz:
    def test_standard_basis_self_duality(self):
        ip = standard_inner_product(SPACE3C)
        x = np.zeros((3, 1), dtype=complex)
        x[0, 0] = 1.0
        np.testing.assert_array_equal(riesz_map(x, ip), [[1.0, 0.0, 0.0]])

    def test_pairing_equals_inner_product(self):
        rng, ip = _random_ip(77)
        x, y = random_ket(rng, 3, "complex"), random_ket(rng, 3, "complex")
        assert (riesz_map(x, ip) @ y)[0, 0] == pytest.approx(
            inner_product(x, y, ip), abs=1e-12
        )

    def test_antilinearity(self):
        rng, ip = _random_ip(78)
        x = random_ket(rng, 3, "complex")
        np.testing.assert_allclose(
            riesz_map(1j * x, ip), -1j * riesz_map(x, ip), atol=1e-14
        )

    def test_inverse_composes_to_identity(self):
        # (x, inverse(map(y))) = (x, y): the map and its inverse cancel.
        rng, ip = _random_ip(79)
        x, y = random_ket(rng, 3, "complex"), random_ket(rng, 3, "complex")
        roundtrip = riesz_inverse(riesz_map(y, ip), ip)
        assert inner_product(x, roundtrip, ip) == pytest.approx(
            inner_product(x, y, ip), abs=1e-12
        )


class TestOrthonormalize:
    def test_already_orthonormal_unchanged(self):
        ip = standard_inner_product(SPACE2)
        vectors = [np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])]
        basis = orthonormalize(vectors, ip)
        np.testing.assert_allclose(basis.matrix, np.eye(2), atol=1e-12)

    def test_two_step_hand_case(self):
        ip = standard_inner_product(SPACE2)
        basis = orthonormalize([np.array([[1.0], [1.0]]), np.array([[1.0], [0.0]])], ip)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(basis.matrix, [[s, s], [s, -s]], atol=1e-12)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_output_gram_is_identity(self, field):
        rng = np.random.default_rng(80)
        n = 5
        space = VectorSpace(n, field, "V")
        ip = InnerProduct(space, random_positive_definite(rng, n, field))
        vectors = [random_ket(rng, n, field) for _ in range(n)]
        b = orthonormalize(vectors, ip).matrix
        np.testing.assert_allclose(
            hermitian_conjugate(b) @ ip.gram @ b, np.eye(n), atol=1e-10
        )

    def test_dependent_set_rejected(self):
        ip = standard_inner_product(SPACE2)
        with pytest.raises(DependentSetError):
            orthonormalize([np.array([[1.0], [1.0]]), np.array([[2.0], [2.0]])], ip)

    @pytest.mark.parametrize("c", [1e-13, 1e-100, 1e100, 1e-160, 1e160, 1e-300, 1e300])
    def test_small_independent_set_accepted(self, c):
        # An absolute breakdown threshold (1e-12) rejected this at c = 1e-13.
        ip = standard_inner_product(SPACE2)
        basis = orthonormalize([np.array([[c], [0.0]]), np.array([[c], [c]])], ip)
        np.testing.assert_array_equal(basis.matrix, np.eye(2))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 5),
        field=st.sampled_from(["real", "complex"]),
        k=st.integers(-400, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_power_of_two_scaling_gives_the_same_basis(self, n, field, k, seed):
        rng = np.random.default_rng(seed)
        ip = InnerProduct(VectorSpace(n, field, "V"), random_positive_definite(rng, n, field))
        vectors = [random_ket(rng, n, field) for _ in range(n)]
        scaled = orthonormalize([math.ldexp(1.0, k) * v for v in vectors], ip)
        np.testing.assert_array_equal(scaled.matrix, orthonormalize(vectors, ip).matrix)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 5),
        field=st.sampled_from(["real", "complex"]),
        exponent=st.floats(-300.0, 300.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_scale_gives_the_same_basis(self, n, field, exponent, seed):
        rng, ip = _random_ip(seed, n, field)
        v = random_invertible(rng, n, field)  # well conditioned: the scale is the only change
        vectors = [v[:, [j]] for j in range(n)]
        c = 10.0**exponent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = orthonormalize([c * x for x in vectors], ip)
        np.testing.assert_allclose(scaled.matrix, orthonormalize(vectors, ip).matrix,
                                   rtol=0, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 5),
        field=st.sampled_from(["real", "complex"]),
        k=st.integers(-400, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dependent_set_rejected_at_any_scale(self, n, field, k, seed):
        rng = np.random.default_rng(seed)
        ip = InnerProduct(VectorSpace(n, field, "V"), random_positive_definite(rng, n, field))
        vectors = [random_ket(rng, n, field) for _ in range(n - 1)]
        vectors.append(vectors[0] - 2.0 * vectors[-1])
        with pytest.raises(DependentSetError):
            orthonormalize([math.ldexp(1.0, k) * v for v in vectors], ip)


class TestAdjoint:
    def test_standard_gram_gives_conjugate_transpose(self):
        rng = np.random.default_rng(81)
        ip = standard_inner_product(SPACE3C)
        f = random_invertible(rng, 3, "complex")
        np.testing.assert_allclose(adjoint(f, ip), hermitian_conjugate(f), atol=1e-14)

    def test_defining_identity(self):
        rng, ip = _random_ip(82)
        f = random_invertible(rng, 3, "complex")
        x, y = random_ket(rng, 3, "complex"), random_ket(rng, 3, "complex")
        assert inner_product(adjoint(f, ip) @ x, y, ip) == pytest.approx(
            inner_product(x, f @ y, ip), abs=1e-12
        )

    def test_product_reversal(self):
        rng, ip = _random_ip(83)
        f = random_invertible(rng, 3, "complex")
        g = random_invertible(rng, 3, "complex")
        np.testing.assert_allclose(
            adjoint(f @ g, ip), adjoint(g, ip) @ adjoint(f, ip), atol=1e-10
        )

    def test_involution(self):
        rng, ip = _random_ip(84)
        f = random_invertible(rng, 3, "complex")
        np.testing.assert_allclose(adjoint(adjoint(f, ip), ip), f, atol=1e-12)


class TestSpectralRepresentation:
    def test_identity_operator(self):
        _, ip = _random_ip(85)
        dec = spectral_representation(np.eye(3, dtype=complex), ip)
        assert dec.eigenvalues == pytest.approx((1.0,), abs=1e-12)
        assert dec.multiplicities == (3,)
        np.testing.assert_allclose(dec.projectors[0], np.eye(3), atol=1e-12)

    def test_projector_spectrum_and_diagonal_form(self):
        rng, ip = _random_ip(86)
        p = random_g_selfadjoint(rng, ip, eigenvalues=[1.0, 1.0, 0.0])
        dec = spectral_representation(p, ip)
        assert set(np.round(dec.eigenvalues, 9)) <= {1.0, 0.0}
        np.testing.assert_allclose(p @ p, p, atol=1e-10)

    def test_canonical_diagonal_by_eigenbasis_conjugation(self):
        from kreinalg.unitary import g_selfadjoint_eigen

        rng, ip = _random_ip(87)
        f = random_g_selfadjoint(rng, ip)
        w, columns = g_selfadjoint_eigen(f, ip)
        conjugated = np.linalg.inv(columns) @ f @ columns
        np.testing.assert_allclose(conjugated, np.diag(w), atol=1e-9)

    def test_reconstruction_and_orthogonality(self):
        rng, ip = _random_ip(88)
        f = random_g_selfadjoint(rng, ip)
        dec = spectral_representation(f, ip)
        np.testing.assert_allclose(dec.reconstruct(), f, atol=1e-10)
        for i, p in enumerate(dec.projectors):
            np.testing.assert_allclose(adjoint(p, ip), p, atol=1e-10)
            for j, q in enumerate(dec.projectors):
                expected = p if i == j else np.zeros_like(p)
                np.testing.assert_allclose(p @ q, expected, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 4),
        field=st.sampled_from(["real", "complex"]),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.floats(-300.0, 307.0),
    )
    @example(n=3, field="real", seed=0, exponent=307.0)
    @example(n=3, field="complex", seed=0, exponent=307.0)
    def test_decomposes_at_any_scale(self, n, field, seed, exponent):
        # W^{-1} f W overflowed for an f with largest entry 1e307 under the
        # Gram matrix of a lorentz_boost(2.0) frame, and LAPACK raised
        # LinAlgError.  Scaled by a power of two s, f must give the same
        # projectors and s times the eigenvalues.
        from kreinalg.unitary import g_selfadjoint_eigen

        b_inv = lorentz_boost(-2.0, n)
        ip = InnerProduct(VectorSpace(n, field), b_inv.T @ b_inv)
        f = random_g_selfadjoint(np.random.default_rng(seed), ip)
        f = f * (10.0**exponent / np.max(np.abs(f)))
        s = math.ldexp(1.0, math.frexp(np.max(np.abs(f)))[1] - 1)  # max |f / s| in [1, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec, unit = spectral_representation(f, ip), spectral_representation(f / s, ip)
            (w, columns), (unit_w, unit_columns) = g_selfadjoint_eigen(f, ip), g_selfadjoint_eigen(f / s, ip)
        assert dec.multiplicities == unit.multiplicities
        for p, q in zip(dec.projectors, unit.projectors):
            np.testing.assert_array_equal(p, q)
        np.testing.assert_array_equal(columns, unit_columns)
        # Exact unless an eigenvalue of f is subnormal.
        tiny = math.ldexp(1.0, -1074) / s
        np.testing.assert_allclose(np.array(dec.eigenvalues) / s, unit.eigenvalues, rtol=0, atol=tiny)
        np.testing.assert_allclose(w / s, unit_w, rtol=0, atol=tiny)

    def test_not_selfadjoint_rejected(self):
        _, ip = _random_ip(89)
        with pytest.raises(SymmetryError):
            spectral_representation(np.array([[0.0, 1.0], [0.0, 0.0]]), standard_inner_product(SPACE2))

    def test_eigenpairs_of_a_non_selfadjoint_operator_are_refused(self):
        # The eigenpairs of the Hermitian part of a nilpotent are +-1/2; its spectrum is {0, 0}.
        from kreinalg.unitary import g_selfadjoint_eigen

        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        ip = standard_inner_product(SPACE2)
        message = "operator is not selfadjoint w.r.t. the inner product within tolerance"
        for decompose in (spectral_representation, g_selfadjoint_eigen):
            with pytest.raises(SymmetryError, match=message):
                decompose(nilpotent, ip)

    def test_a_refusal_says_by_how_much(self):
        # Each SymmetryError gives ||m^+ - m|| / (TOL ||m||), the number its rule compared with 1.
        from kreinalg.unitary import g_selfadjoint_eigen

        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        ip = standard_inner_product(SPACE2)
        ratios = []
        for refuse in (lambda: spectral_representation(nilpotent, ip), lambda: g_selfadjoint_eigen(nilpotent, ip),
                       lambda: InnerProduct(SPACE2, np.array([[2.0, 1.0], [0.0, 2.0]]))):
            with pytest.raises(SymmetryError, match=r"within tolerance \(residual/bound = [^)]+\)$") as info:
                refuse()
            ratios.append(float(str(info.value).rsplit("= ", 1)[1][:-1]))
        assert min(ratios) > 1.0
        # The nilpotent's unit matrix m has ||m^+ - m|| = sqrt(2) and ||m|| = 1.
        assert ratios[:2] == [float(f"{math.sqrt(2.0) / TOL:.3e}")] * 2


class TestUnitaryMembership:
    def test_identity(self):
        _, ip = _random_ip(90)
        assert is_unitary_wrt(np.eye(3, dtype=complex), ip)

    def test_rotation(self):
        theta = 0.7
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        assert is_unitary_wrt(rot, standard_inner_product(SPACE2))
        np.testing.assert_allclose(rot.T @ rot, np.eye(2), atol=1e-15)

    def test_image_of_orthonormal_basis_is_orthonormal(self):
        rng, ip = _random_ip(91)
        u = ip.frame @ random_unitary(rng, 3, "complex") @ ip.frame_inv
        assert is_unitary_wrt(u, ip)
        basis = orthonormalize([random_ket(rng, 3, "complex") for _ in range(3)], ip)
        moved = u @ basis.matrix
        np.testing.assert_allclose(
            hermitian_conjugate(moved) @ ip.gram @ moved, np.eye(3), atol=1e-10
        )

    def test_transition_between_orthonormal_bases_is_unitary(self):
        rng, ip = _random_ip(92)
        b1 = orthonormalize([random_ket(rng, 3, "complex") for _ in range(3)], ip)
        b2 = orthonormalize([random_ket(rng, 3, "complex") for _ in range(3)], ip)
        m = change_of_basis(b1, b2)
        np.testing.assert_allclose(
            hermitian_conjugate(m) @ m, np.eye(3), atol=1e-9
        )

    def test_non_unitary(self):
        _, ip = _random_ip(93)
        assert not is_unitary_wrt(2.0 * np.eye(3, dtype=complex), ip)


def _conditioned_ip(rng, n, field, cond):
    """The inner product of ``G = U diag(geomspace(1, cond, n)) U^+``, U random unitary."""
    u = random_unitary(rng, n, field)
    g = (u * np.geomspace(1.0, cond, n)) @ hermitian_conjugate(u)
    return InnerProduct(VectorSpace(n, field), (g + hermitian_conjugate(g)) / 2.0)


def _of_relative_size(x, y, size=1e-6):
    """``x`` rescaled to ``size ||y||``."""
    return x * (size * np.linalg.norm(y) / np.linalg.norm(x))


_CONDITIONED = dict(
    n=st.integers(2, 8),
    field=st.sampled_from(["real", "complex"]),
    seed=st.integers(0, 2**32 - 1),
    log_cond=st.floats(0.0, 7.0),
)


class TestConditionedGram:
    """The G-rules and the spectral solve hold up to cond(G) = 1e7.

    Members are built in the frame W of G: ``W M W^{-1}`` for a Hermitian M
    and ``W Q W^{-1}`` for a unitary Q.  The non-members move M by an
    anti-Hermitian and Q by ``Q S`` for a Hermitian S, each of relative size
    1e-6 (1000 TOL).  Building f in floating point leaves an error of about
    ``eps cond(G) ||f||``, still below TOL at cond(G) = 1e7; measured in the
    frame, that is all the rules see.  The reconstruction is bounded to first
    order by ``4 n eps cond(G) ||f||``.
    """

    @settings(max_examples=80, deadline=None)
    @given(**_CONDITIONED)
    @example(n=3, field="real", seed=3, log_cond=7.0)
    @example(n=3, field="complex", seed=0, log_cond=7.0)
    @example(n=8, field="real", seed=36, log_cond=6.0)
    def test_frame_members_accepted_and_perturbations_rejected(self, n, field, seed, log_cond):
        rng = np.random.default_rng(seed)
        ip = _conditioned_ip(rng, n, field, 10.0**log_cond)
        m = random_hermitian(rng, n, field)
        q = random_unitary(rng, n, field)
        a = random_matrix(rng, n, n, field)
        s = random_hermitian(rng, n, field)

        def in_frame(x):
            return ip.frame @ x @ ip.frame_inv

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_selfadjoint(in_frame(m), ip)
            assert is_unitary_wrt(in_frame(q), ip)
            assert not is_selfadjoint(in_frame(m + _of_relative_size(a - hermitian_conjugate(a), m)), ip)
            assert not is_unitary_wrt(in_frame(q + q @ _of_relative_size(s, q)), ip)

    @settings(max_examples=60, deadline=None)
    @given(**_CONDITIONED)
    @example(n=3, field="real", seed=3, log_cond=7.0)
    @example(n=3, field="complex", seed=0, log_cond=7.0)
    def test_spectral_representation_reconstructs(self, n, field, seed, log_cond):
        rng = np.random.default_rng(seed)
        ip = _conditioned_ip(rng, n, field, 10.0**log_cond)
        f = ip.frame @ random_hermitian(rng, n, field) @ ip.frame_inv
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = spectral_representation(f, ip).reconstruct()
        bound = 4 * n * np.finfo(float).eps * np.linalg.cond(ip.gram) * np.linalg.norm(f)
        assert np.linalg.norm(rec - f) <= bound
