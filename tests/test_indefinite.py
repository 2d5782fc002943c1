import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kreinalg import (
    UP,
    CompatibilityError,
    DegenerateFormError,
    FieldError,
    HForm,
    InnerProduct,
    ShapeError,
    SingularBasisError,
    SymmetryError,
    Tensor,
    VectorSpace,
    adjoint,
    canonical_form_bases,
    classify,
    canonical_projectors,
    compatible_structure_from_hform,
    dirac_adjoint_covector,
    dirac_adjoint_operator,
    dirac_adjoint_vector,
    dirac_spectral,
    eigen_hermitian,
    h_orthonormal_basis,
    hermitian_conjugate,
    hform_value,
    inner_product,
    is_dirac_selfadjoint,
    is_orthogonal,
    is_pseudo_orthogonal,
    is_pseudo_unitary,
    is_selfadjoint,
    is_unitary_wrt,
    kernel_dimension,
    metric_structure_from,
    minkowski_structure,
    policy,
    raise_lower_index,
    spectral_representation,
)
from kreinalg import eigen, matrices
from kreinalg.generators import (
    lorentz_boost,
    random_dirac_selfadjoint,
    random_g_selfadjoint,
    random_hermitian,
    random_invertible,
    random_ket,
    random_matrix,
    random_nondegenerate_hform,
    random_positive_definite,
    random_pseudo_unitary,
    random_unitary,
)
from kreinalg.unitary import _in_frame, g_selfadjoint_eigen


def _swap_structure():
    return compatible_structure_from_hform(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestConstruction:
    def test_identity_pair_is_unitary_space(self):
        ms = metric_structure_from(np.eye(3), np.eye(3))
        np.testing.assert_array_equal(ms.h, np.eye(3))
        assert ms.signature == (3, 0)

    def test_canonical_two_dimensional(self):
        ms = metric_structure_from(np.eye(2), np.diag([1.0, -1.0]))
        np.testing.assert_array_equal(ms.h, np.diag([1.0, -1.0]))
        assert ms.signature == (1, 1)

    def test_swap_matrix(self):
        ms = metric_structure_from(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(ms.h, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)
        np.testing.assert_allclose(ms.h @ ms.h, np.eye(2), atol=1e-14)
        # char poly of the swap matrix is l^2 - 1: eigenvalues +-1
        assert ms.signature == (1, 1)

    def test_incompatible_pair_rejected(self):
        with pytest.raises(CompatibilityError):
            metric_structure_from(np.eye(2), np.diag([2.0, -1.0]))

    def test_degenerate_form_rejected(self):
        with pytest.raises(DegenerateFormError):
            metric_structure_from(np.eye(2), np.diag([1.0, 0.0]))

    def test_defining_identity(self):
        rng = np.random.default_rng(100)
        ms = compatible_structure_from_hform(random_nondegenerate_hform(rng, 4, "complex"))
        x, y = random_ket(rng, 4, "complex"), random_ket(rng, 4, "complex")
        assert inner_product(x, ms.h @ y, ms.ip) == pytest.approx(
            hform_value(x, y, ms), abs=1e-12
        )


class TestOneHFormConstructor:
    """Every H-form is built by ``HForm.__init__``; the factories decide K's floor."""

    @pytest.mark.parametrize("kind", ["hform", "pair"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_each_construction_calls_init_once(self, monkeypatch, kind, field):
        k = random_nondegenerate_hform(np.random.default_rng(3), 3, field)
        gram = compatible_structure_from_hform(k).ip.gram
        built = []
        original = HForm.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(HForm, "__init__", counted)
        ms = compatible_structure_from_hform(k) if kind == "hform" else metric_structure_from(gram, k)
        assert built == [ms.hform]

    def test_a_degenerate_form_constructs_and_fails_both_factories(self):
        k = np.array([[1.0, 1.0], [1.0, 1.0]])
        hf = HForm(VectorSpace(2), k)
        np.testing.assert_array_equal(hf.matrix, k)
        with pytest.raises(DegenerateFormError):
            compatible_structure_from_hform(k)
        with pytest.raises(DegenerateFormError):
            metric_structure_from(np.eye(2), k)

    def test_a_non_hermitian_form_is_rejected_by_the_constructor(self):
        with pytest.raises(SymmetryError):
            HForm(VectorSpace(2), np.array([[1.0, 2.0], [0.0, -1.0]]))


class TestCompatibleFromHForm:
    def test_diagonal_example(self):
        ms = compatible_structure_from_hform(np.diag([2.0, -3.0]))
        np.testing.assert_allclose(ms.ip.gram, np.diag([2.0, 3.0]), atol=1e-13)
        np.testing.assert_allclose(ms.h, np.diag([1.0, -1.0]), atol=1e-13)

    def test_positive_definite_collapses_to_unitary(self):
        rng = np.random.default_rng(101)
        k = random_nondegenerate_hform(rng, 3, "complex", n_plus=3)
        ms = compatible_structure_from_hform(k)
        np.testing.assert_allclose(ms.h, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(ms.ip.gram, k, atol=1e-12)

    def test_minkowski(self):
        ms = minkowski_structure(1, 3)
        np.testing.assert_array_equal(ms.ip.gram, np.eye(4))
        assert ms.signature == (1, 3)

    def test_split_identity(self):
        rng = np.random.default_rng(102)
        ms = compatible_structure_from_hform(random_nondegenerate_hform(rng, 4, "complex"))
        p_plus, p_minus = canonical_projectors(ms)
        x, y = random_ket(rng, 4, "complex"), random_ket(rng, 4, "complex")
        split = hform_value(x, p_plus @ y, ms) - hform_value(x, p_minus @ y, ms)
        assert inner_product(x, y, ms.ip) == pytest.approx(split, abs=1e-10)


class TestSignature:
    def test_identity(self):
        assert metric_structure_from(np.eye(3), np.eye(3)).signature == (3, 0)

    def test_canonical_diagonal(self):
        ms = metric_structure_from(np.eye(5), np.diag([1.0, 1.0, -1.0, -1.0, -1.0]))
        assert ms.signature == (2, 3)

    def test_swap(self):
        assert _swap_structure().signature == (1, 1)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_sylvester_invariance(self, n):
        rng = np.random.default_rng(103 + n)
        k = random_nondegenerate_hform(rng, n, "complex")
        sig = compatible_structure_from_hform(k).signature
        for _ in range(5):
            b = random_invertible(rng, n, "complex")
            congruent = hermitian_conjugate(b) @ k @ b
            assert compatible_structure_from_hform(congruent).signature == sig


class TestCanonicalProjectors:
    def test_definite_case(self):
        ms = metric_structure_from(np.eye(2), np.eye(2))
        p_plus, p_minus = canonical_projectors(ms)
        np.testing.assert_array_equal(p_plus, np.eye(2))
        np.testing.assert_array_equal(p_minus, np.zeros((2, 2)))

    def test_diagonal_case(self):
        ms = metric_structure_from(np.eye(2), np.diag([1.0, -1.0]))
        p_plus, p_minus = canonical_projectors(ms)
        np.testing.assert_array_equal(p_plus, np.diag([1.0, 0.0]))
        np.testing.assert_array_equal(p_minus, np.diag([0.0, 1.0]))

    def test_projector_algebra(self):
        rng = np.random.default_rng(104)
        ms = compatible_structure_from_hform(random_nondegenerate_hform(rng, 4, "complex"))
        p_plus, p_minus = canonical_projectors(ms)
        np.testing.assert_allclose(p_plus @ p_plus, p_plus, atol=1e-12)
        np.testing.assert_allclose(p_plus @ p_minus, np.zeros((4, 4)), atol=1e-12)
        np.testing.assert_allclose(p_plus + p_minus, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(p_plus - p_minus, ms.h, atol=1e-12)
        np.testing.assert_allclose(adjoint(p_plus, ms.ip), p_plus, atol=1e-10)


class TestHOrthonormalBasis:
    def test_already_canonical(self):
        ms = metric_structure_from(np.eye(2), np.diag([1.0, -1.0]))
        hb = h_orthonormal_basis(ms)
        np.testing.assert_allclose(hb.basis.matrix, np.eye(2), atol=1e-12)
        assert hb.eta_diag == (1, -1)

    def test_diagonal_scaling(self):
        ms = compatible_structure_from_hform(np.diag([4.0, -9.0]))
        hb = h_orthonormal_basis(ms)
        np.testing.assert_allclose(hb.basis.matrix, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)
        assert hb.eta_diag == (1, -1)

    def test_swap_eigenvectors(self):
        hb = h_orthonormal_basis(_swap_structure())
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(hb.basis.matrix), [[s, s], [s, s]], atol=1e-12)
        np.testing.assert_allclose(hb.basis.matrix[:, 0] * np.sign(hb.basis.matrix[0, 0]), [s, s], atol=1e-12)
        assert hb.eta_diag == (1, -1)

    def test_congruence_to_canonical_diagonal(self):
        rng = np.random.default_rng(105)
        for field in ("real", "complex"):
            ms = compatible_structure_from_hform(random_nondegenerate_hform(rng, 5, field))
            hb = h_orthonormal_basis(ms)
            eta = np.diag(np.asarray(hb.eta_diag, dtype=float))
            b = hb.basis.matrix
            np.testing.assert_allclose(
                hermitian_conjugate(b) @ ms.hform.matrix @ b, eta, atol=1e-9
            )
            assert sum(1 for e in hb.eta_diag if e == 1) == ms.signature[0]


class TestDiracAdjointVector:
    def test_definite_case_is_hermitian_conjugate(self):
        ms = metric_structure_from(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
        x = np.array([[1.0 + 2.0j], [3.0j]])
        np.testing.assert_array_equal(dirac_adjoint_vector(x, ms), hermitian_conjugate(x))

    def test_sign_pattern(self):
        ms = metric_structure_from(np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex))
        a, b = 1.0 + 2.0j, -0.5 + 1.0j
        out = dirac_adjoint_vector(np.array([[a], [b]]), ms)
        np.testing.assert_allclose(out, [[np.conj(a), -np.conj(b)]], atol=1e-15)

    def test_pairing_gives_hform(self):
        rng = np.random.default_rng(106)
        ms = compatible_structure_from_hform(random_nondegenerate_hform(rng, 4, "complex"))
        x, y = random_ket(rng, 4, "complex"), random_ket(rng, 4, "complex")
        assert (dirac_adjoint_vector(x, ms) @ y)[0, 0] == pytest.approx(
            hform_value(x, y, ms), abs=1e-12
        )

    def test_covector_inverse(self):
        rng = np.random.default_rng(107)
        ms = compatible_structure_from_hform(random_nondegenerate_hform(rng, 4, "complex"))
        x = random_ket(rng, 4, "complex")
        np.testing.assert_allclose(
            dirac_adjoint_covector(dirac_adjoint_vector(x, ms), ms), x, atol=1e-12
        )

    def test_canonical_representation_rule(self):
        # In an h-orthonormal basis the vector Dirac adjoint is the
        # conjugate row times the canonical diagonal.
        rng = np.random.default_rng(108)
        ms = compatible_structure_from_hform(random_nondegenerate_hform(rng, 3, "complex"))
        hb = h_orthonormal_basis(ms)
        x = random_ket(rng, 3, "complex")
        components = hb.basis.inverse @ x
        eta = np.diag(np.asarray(hb.eta_diag, dtype=float)).astype(complex)
        adjoint_components = dirac_adjoint_vector(x, ms) @ hb.basis.matrix
        np.testing.assert_allclose(
            adjoint_components, hermitian_conjugate(components) @ eta, atol=1e-12
        )


class TestDiracAdjointOperator:
    def test_definite_case_is_adjoint(self):
        rng = np.random.default_rng(109)
        ms = metric_structure_from(np.eye(3, dtype=complex), np.eye(3, dtype=complex))
        f = random_invertible(rng, 3, "complex")
        np.testing.assert_allclose(
            dirac_adjoint_operator(f, ms), hermitian_conjugate(f), atol=1e-13
        )

    def test_two_by_two_entry_formula(self):
        ms = metric_structure_from(np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex))
        a, b, c, d = 1 + 1j, 2 - 1j, -3j, 0.5
        f = np.array([[a, b], [c, d]])
        expected = np.array(
            [[np.conj(a), -np.conj(c)], [-np.conj(b), np.conj(d)]]
        )
        np.testing.assert_allclose(dirac_adjoint_operator(f, ms), expected, atol=1e-14)

    def test_defining_identity(self):
        rng = np.random.default_rng(110)
        ms = compatible_structure_from_hform(random_nondegenerate_hform(rng, 4, "complex"))
        f = random_invertible(rng, 4, "complex")
        x, y = random_ket(rng, 4, "complex"), random_ket(rng, 4, "complex")
        assert hform_value(x, f @ y, ms) == pytest.approx(
            hform_value(dirac_adjoint_operator(f, ms) @ x, y, ms), abs=1e-11
        )

    def test_product_reversal(self):
        rng = np.random.default_rng(111)
        ms = compatible_structure_from_hform(random_nondegenerate_hform(rng, 4, "complex"))
        f = random_invertible(rng, 4, "complex")
        g = random_invertible(rng, 4, "complex")
        np.testing.assert_allclose(
            dirac_adjoint_operator(f @ g, ms),
            dirac_adjoint_operator(g, ms) @ dirac_adjoint_operator(f, ms),
            atol=1e-10,
        )

    def test_involution(self):
        rng = np.random.default_rng(112)
        ms = compatible_structure_from_hform(random_nondegenerate_hform(rng, 4, "complex"))
        f = random_invertible(rng, 4, "complex")
        np.testing.assert_allclose(
            dirac_adjoint_operator(dirac_adjoint_operator(f, ms), ms), f, atol=1e-12
        )


class TestMembership:
    def test_metric_is_selfadjoint_and_pseudo_unitary(self):
        rng = np.random.default_rng(113)
        ms = compatible_structure_from_hform(random_nondegenerate_hform(rng, 4, "complex"))
        assert is_dirac_selfadjoint(ms.h, ms)
        assert is_pseudo_unitary(ms.h, ms)

    def test_boost_is_pseudo_orthogonal(self):
        ms = minkowski_structure(1, 1)
        boost = lorentz_boost(0.8)
        eta = np.diag([1.0, -1.0])
        np.testing.assert_allclose(boost.T @ eta @ boost, eta, atol=1e-14)
        assert is_pseudo_orthogonal(boost, ms)
        assert not is_orthogonal(boost)

    def test_four_dimensional_boost(self):
        ms = minkowski_structure(1, 3)
        assert is_pseudo_orthogonal(lorentz_boost(1.3, dim=4), ms)

    def test_group_closure(self):
        rng = np.random.default_rng(114)
        ms = minkowski_structure(2, 2, field="complex")
        f = random_pseudo_unitary(rng, 2, 2, "complex")
        g = random_pseudo_unitary(rng, 2, 2, "complex")
        assert is_pseudo_unitary(f, ms)
        assert is_pseudo_unitary(g, ms)
        assert is_pseudo_unitary(f @ g, ms)
        assert is_pseudo_unitary(np.linalg.inv(f), ms)

    def test_rotation_is_orthogonal(self):
        rot = lorentz_boost(0.0)
        assert is_orthogonal(rot)
        theta = 0.3
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        assert is_orthogonal(rot)

    def test_identity_everywhere(self):
        ms = minkowski_structure(1, 2)
        eye = np.eye(3)
        assert is_orthogonal(eye)
        assert is_pseudo_orthogonal(eye, ms)

    def test_complex_input_rejected_for_real_predicates(self):
        ms = minkowski_structure(1, 1)
        with pytest.raises(FieldError):
            is_orthogonal(np.eye(2, dtype=complex))
        with pytest.raises(FieldError):
            is_pseudo_orthogonal(np.eye(2, dtype=complex), ms)


class TestDiracSpectral:
    def test_metric_itself(self):
        rng = np.random.default_rng(115)
        ms = compatible_structure_from_hform(random_nondegenerate_hform(rng, 3, "complex"))
        dec = dirac_spectral(ms.h, ms)
        assert dec.eigenvalues == pytest.approx((1.0,), abs=1e-12)
        np.testing.assert_allclose(dec.reconstruct(), ms.h, atol=1e-12)

    def test_diagonal_hand_case(self):
        ms = metric_structure_from(np.eye(2), np.diag([1.0, -1.0]))
        f = np.diag([2.0, 3.0])
        dec = dirac_spectral(f, ms)
        # partner f h = diag(2, -3); eigenvalues descending
        assert dec.eigenvalues == pytest.approx((2.0, -3.0))
        np.testing.assert_allclose(
            dec.eigenvalues[0] * dec.projectors[0] @ ms.h
            + dec.eigenvalues[1] * dec.projectors[1] @ ms.h,
            f,
            atol=1e-12,
        )

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_random_reconstruction(self, field):
        rng = np.random.default_rng(116)
        ms = compatible_structure_from_hform(random_nondegenerate_hform(rng, 5, field))
        f = random_dirac_selfadjoint(rng, ms)
        assert is_dirac_selfadjoint(f, ms)
        dec = dirac_spectral(f, ms)
        np.testing.assert_allclose(dec.reconstruct(), f, atol=1e-9)

    def test_not_dirac_selfadjoint_rejected(self):
        ms = minkowski_structure(1, 1)
        with pytest.raises(SymmetryError):
            dirac_spectral(np.array([[0.0, 1.0], [0.0, 0.0]]), ms)


class TestRaiseLower:
    def test_definite_metric_only_flips_tag(self):
        rng = np.random.default_rng(117)
        ms = metric_structure_from(np.eye(3), np.eye(3))
        space = ms.space
        t = Tensor(space, (UP,), rng.uniform(-1, 1, 3))
        lowered = raise_lower_index(t, 1, ms)
        assert lowered.variance == ("down",)
        np.testing.assert_array_equal(lowered.components, t.components)

    def test_minkowski_sign_application(self):
        ms = minkowski_structure(1, 3)
        t = Tensor(ms.space, (UP,), np.array([1.0, 2.0, 3.0, 4.0]))
        lowered = raise_lower_index(t, 1, ms)
        np.testing.assert_array_equal(lowered.components, [1.0, -2.0, -3.0, -4.0])

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(118)
        ms = minkowski_structure(2, 3)
        t = Tensor(ms.space, (UP, "down", UP), rng.uniform(-1, 1, (5, 5, 5)))
        slot = 2
        back = raise_lower_index(raise_lower_index(t, slot, ms), slot, ms)
        assert back.variance == t.variance
        np.testing.assert_array_equal(back.components, t.components)


class TestDefiniteDegeneration:
    def test_whole_machinery_collapses_when_metric_is_identity(self):
        # With G = K = 1 the canonical frame is the identity and h h = 1, so
        # the Dirac problem is the Hermitian one: the same bits, the same answers.
        rng = np.random.default_rng(119)
        for n in range(1, 9):
            for field, dtype in (("real", float), ("complex", complex)):
                ms = metric_structure_from(np.eye(n, dtype=dtype), np.eye(n, dtype=dtype))
                f = random_invertible(rng, n, field)
                np.testing.assert_allclose(dirac_adjoint_operator(f, ms), hermitian_conjugate(f), atol=1e-12)
                h = f + hermitian_conjugate(f)
                dirac, hermitian, plain = dirac_spectral(h, ms), spectral_representation(h, ms.ip), eigen_hermitian(h)
                assert np.array(dirac.eigenvalues).tobytes() == np.array(hermitian.eigenvalues).tobytes()
                assert dirac.multiplicities == hermitian.multiplicities
                assert [p.tobytes() for p in dirac.projectors] == [p.tobytes() for p in hermitian.projectors]
                np.testing.assert_allclose(hermitian.eigenvalues, plain.eigenvalues, atol=1e-12)
                for a, b in zip(hermitian.projectors, plain.projectors):
                    np.testing.assert_allclose(a, b, atol=1e-12)
                # Non-members are off by 1e-6 relative; a real 1 x 1 h has no skew direction.
                skew = random_matrix(rng, n, n, field)
                skew = skew - hermitian_conjugate(skew)
                selfadjoint = [(h, True)]
                if skew.any():
                    selfadjoint.append((h + 1e-6 * np.linalg.norm(h) / np.linalg.norm(skew) * skew, False))
                for g, member in selfadjoint:
                    assert is_dirac_selfadjoint(g, ms) == is_selfadjoint(g, ms.ip) == member
                u, e = random_unitary(rng, n, field), random_matrix(rng, n, n, field)
                for g, member in ((u, True), (u + 1e-6 * np.linalg.norm(u) / np.linalg.norm(e) * e, False)):
                    assert is_pseudo_unitary(g, ms) == is_unitary_wrt(g, ms.ip) == member


EPS = np.finfo(np.float64).eps


def _gamma(k):
    """The standard bound on the relative error of a length-k inner product."""
    return k * EPS / (1.0 - k * EPS)


def _conditioned_structure(rng, kind, n, field):
    """A structure of either kind whose inner product has cond(G) up to 1e3.

    The hform kind starts from K = U diag(+-m) U^+, the pair kind from
    G = R^2 with R = U diag(sqrt m) U^+ and K = R J R for a unitary
    involution J; the magnitudes m are log-uniform in [1e-3, 1].
    """
    n_plus = int(rng.integers(0, n + 1))
    signs = np.concatenate([np.ones(n_plus), -np.ones(n - n_plus)])
    mags = 10.0 ** -rng.uniform(0.0, 3.0, size=n)
    u = random_unitary(rng, n, field)
    if kind == "hform":
        k = (u * (signs * mags)) @ hermitian_conjugate(u)
        return compatible_structure_from_hform((k + hermitian_conjugate(k)) / 2.0)
    root = (u * np.sqrt(mags)) @ hermitian_conjugate(u)
    v = random_unitary(rng, n, field)
    k = root @ (v * signs) @ hermitian_conjugate(v) @ root
    return metric_structure_from(root @ root, (k + hermitian_conjugate(k)) / 2.0)


class TestRealFieldStaysReal:
    """Every array returned on a real space is float64, with no cast to make it so."""

    @pytest.mark.parametrize("kind", ["hform", "pair"])
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_arrays_are_float64(self, kind, n):
        rng = np.random.default_rng(9200 + n)
        ms = _conditioned_structure(rng, kind, n, "real")
        ip = ms.ip
        f = random_g_selfadjoint(rng, ip)
        _, columns = g_selfadjoint_eigen(f, ip)
        domain_b, codomain_b, _ = canonical_form_bases(random_matrix(rng, n, n), ms.space, ms.space)
        arrays = {
            "eigen_hermitian": eigen_hermitian(random_hermitian(rng, n)).projectors,
            "spectral_representation": spectral_representation(f, ip).projectors,
            "dirac_spectral": dirac_spectral(random_dirac_selfadjoint(rng, ms), ms).projectors,
            "h": [ms.h],
            "frame": [ms.frame.basis.matrix, ms.frame.basis.inverse],
            "inner product": [ip.gram, ip.frame, ip.frame_inv],
            "g_selfadjoint_eigen": [columns],
            "canonical_form_bases": [
                domain_b.matrix, domain_b.inverse, codomain_b.matrix, codomain_b.inverse
            ],
        }
        for name, group in arrays.items():
            assert [a.dtype for a in group] == [np.float64] * len(group), name


FRAME_CASES = [
    (kind, field, n)
    for kind in ("hform", "pair")
    for field in ("real", "complex")
    for n in (1, 2, 8, 32, 64)
]


class TestCanonicalFrame:
    @pytest.mark.parametrize("kind,field,n", FRAME_CASES)
    def test_frame_is_canonical_within_matmul_bounds(self, kind, field, n):
        rng = np.random.default_rng(FRAME_CASES.index((kind, field, n)))
        ms = _conditioned_structure(rng, kind, n, field)
        frame = ms.frame
        b, b_inv = frame.basis.matrix, frame.basis.inverse
        eta = np.diag(np.asarray(frame.eta_diag, dtype=float))
        # Bounds fixed by first-order error analysis, not by observation.
        # B^+ M B - target (M = K or G) collects two products of length n
        # plus the eigensolver's backward error and loss of orthogonality,
        # O(n eps) each: together at most 4 gamma_n |B^+||M||B|, and
        # ||B||_F^2 ||M||_F <= n^1.5 cond(G) because |K| = G.  B^-1 B - 1
        # collects the same relative to ||B^-1||_F ||B||_F <= n sqrt(cond(G)).
        cond = np.linalg.cond(ms.ip.gram)
        congruence_bound = 4 * _gamma(n) * n**1.5 * cond
        inverse_bound = 4 * _gamma(n) * n * np.sqrt(cond)
        assert policy.norm(hermitian_conjugate(b) @ ms.hform.matrix @ b - eta) <= congruence_bound
        assert policy.norm(hermitian_conjugate(b) @ ms.ip.gram @ b - np.eye(n)) <= congruence_bound
        assert policy.norm(b_inv @ b - np.eye(n)) <= inverse_bound
        n_plus, n_minus = ms.signature
        assert frame.eta_diag == (1,) * n_plus + (-1,) * n_minus
        dtype = np.float64 if field == "real" else np.complex128
        assert b.dtype == dtype and b_inv.dtype == dtype

    @pytest.mark.parametrize("kind", ["hform", "pair"])
    def test_h_orthonormal_basis_returns_the_frame_without_solving(self, kind, monkeypatch):
        ms = _conditioned_structure(np.random.default_rng(7), kind, 8, "complex")
        calls = []
        for module in [m for name, m in sys.modules.items() if name.startswith("kreinalg")]:
            solver = getattr(module, "_eigh", None)
            if solver is not None:
                monkeypatch.setattr(
                    module, "_eigh", lambda a, solver=solver: calls.append(a) or solver(a)
                )
        assert h_orthonormal_basis(ms) is ms.frame
        assert calls == []

    def test_frame_of_the_minkowski_structure_is_the_identity(self):
        frame = minkowski_structure(1, 3).frame
        np.testing.assert_array_equal(frame.basis.matrix, np.eye(4))
        np.testing.assert_array_equal(frame.basis.inverse, np.eye(4))
        assert frame.eta_diag == (1, -1, -1, -1)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n_plus,n_minus", [(1, 3), (2, 2), (3, 3), (4, 4), (2, 5)])
    def test_pair_frame_keeps_the_solver_order_within_each_sign(self, n_plus, n_minus, field):
        # Exact +-1 ties: the +1 columns come first, each block in the
        # solver's order, as Python's stable sort on -w leaves them.
        ms = minkowski_structure(n_plus, n_minus, field)
        m, _ = _in_frame(ms.h, ms.ip.frame, ms.ip.frame_inv)
        w, u = eigen._eigh((m + hermitian_conjugate(m)) / 2.0)
        order = sorted(range(len(w)), key=lambda i: -w[i])
        np.testing.assert_array_equal(ms.frame.basis.matrix, ms.ip.frame @ u[:, order])

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_synthesized_gram_has_the_bits_of_the_constructed_one(self, field):
        ms = _conditioned_structure(np.random.default_rng(13), "hform", 8, field)
        lam, u = eigen._eigh(ms.hform.matrix)
        g = (u * np.abs(lam)) @ hermitian_conjugate(u)
        constructed = InnerProduct(ms.space, g.real if field == "real" else g)
        np.testing.assert_array_equal(ms.ip.gram, constructed.gram)
        np.testing.assert_array_equal(ms.ip.gram_inv, constructed.gram_inv)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_hform_frame_is_the_inner_product_frame_reordered(self, field, n):
        ms = _conditioned_structure(np.random.default_rng(17 + n), "hform", n, field)
        lam, _ = eigen._eigh(ms.hform.matrix)
        order = np.concatenate([np.flatnonzero(lam > 0), np.flatnonzero(lam < 0)])
        assert ms.frame.basis.matrix.tobytes() == ms.ip.frame[:, order].tobytes()
        assert ms.frame.basis.inverse.tobytes() == ms.ip.frame_inv[order].tobytes()

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_hform_inverse_is_the_lu_inverse_on_first_use(self, field):
        ms = _conditioned_structure(np.random.default_rng(11), "hform", 8, field)
        assert "inverse" not in vars(ms.hform)
        inverse = ms.hform.inverse
        assert inverse is ms.hform.inverse
        np.testing.assert_array_equal(inverse, np.linalg.inv(ms.hform.matrix))

    @pytest.mark.parametrize("k", [np.zeros((2, 2)), np.ones((2, 2))], ids=["zero", "rank-one"])
    def test_singular_hform_inverse_is_a_singular_basis_error(self, k):
        with pytest.raises(SingularBasisError, match="H-form matrix is numerically singular"):
            HForm(VectorSpace(2), k).inverse


def _pair_parts(seed, n, field, magnitudes):
    """``G = R^2`` and ``K = R V diag(d) V^+ R``, d = signs times ``magnitudes``.

    ``h = G^{-1} K`` is similar to ``V diag(d) V^+``, so the pair is
    compatible exactly when every magnitude is 1, and K is singular
    where a magnitude is 0.
    """
    rng = np.random.default_rng(seed)
    signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    u = random_unitary(rng, n, field)
    root = (u * np.sqrt(10.0 ** -rng.uniform(0.0, 1.0, size=n))) @ hermitian_conjugate(u)
    v = random_unitary(rng, n, field)
    k = root @ (v * (signs * magnitudes)) @ hermitian_conjugate(v) @ root
    return (root @ root, (k + hermitian_conjugate(k)) / 2.0)


_PAIRS = dict(
    n=st.integers(1, 8),
    field=st.sampled_from(["real", "complex"]),
    seed=st.integers(0, 2**32 - 1),
)


class TestPairWithoutFormSolve:
    """The pair kind takes K's signature and floor from the frame solve, not from K's own."""

    @settings(max_examples=60, deadline=None)
    @given(**_PAIRS)
    def test_signature_is_the_count_of_positive_eigenvalues_of_k(self, n, field, seed):
        g, k = _pair_parts(seed, n, field, np.ones(n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ms = metric_structure_from(g, k)
        n_plus = int(np.sum(np.linalg.eigvalsh(k) > 0))
        assert ms.signature == (n_plus, n - n_plus)
        assert ms.frame.eta_diag == (1,) * n_plus + (-1,) * (n - n_plus)

    @settings(max_examples=60, deadline=None)
    @given(**_PAIRS, zero=st.integers(0, 7))
    def test_singular_k_is_degenerate_not_incompatible(self, n, field, seed, zero):
        magnitudes = np.ones(n)
        magnitudes[zero % n] = 0.0
        g, k = _pair_parts(seed, n, field, magnitudes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateFormError):
                metric_structure_from(g, k)

    @settings(max_examples=60, deadline=None)
    @given(**_PAIRS, stretch=st.floats(1.5, 3.0))
    def test_incompatible_nondegenerate_pair_is_incompatible(self, n, field, seed, stretch):
        magnitudes = np.ones(n)
        magnitudes[seed % n] = stretch
        g, k = _pair_parts(seed, n, field, magnitudes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CompatibilityError):
                metric_structure_from(g, k)


def _decision(g, k):
    """The signature of the pair (G, K), or the type of the error it raises."""
    try:
        return metric_structure_from(g, k).signature
    except (CompatibilityError, DegenerateFormError) as exc:
        return type(exc)


class TestPairDecisionAtAnyScale:
    """``(c G, c K)`` is decided as ``(G, K)`` for every ``c = 2^k``, ``|k| <= 1000``.

    The frame W of ``c G`` is ``W / sqrt(c)``, so the frame solve's
    ``W^+ K W`` is the same matrix at every scale and is formed unscaled.
    One magnitude of K's ``V diag(d) V^+`` is 1 (compatible), 0
    (degenerate) or 2 (incompatible).
    """

    @settings(max_examples=80, deadline=None)
    @given(**_PAIRS, odd=st.sampled_from([1.0, 0.0, 2.0]), power=st.integers(-1000, 1000))
    @example(n=4, field="real", seed=0, odd=1.0, power=1000)
    @example(n=4, field="complex", seed=0, odd=1.0, power=-1000)
    @example(n=4, field="complex", seed=0, odd=2.0, power=1000)
    @example(n=4, field="real", seed=0, odd=0.0, power=-1000)
    def test_scaled_pair_decides_as_the_pair(self, n, field, seed, odd, power):
        magnitudes = np.ones(n)
        magnitudes[seed % n] = odd
        g, k = _pair_parts(seed, n, field, magnitudes)
        c = math.ldexp(1.0, power)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _decision(c * g, c * k) == _decision(g, k)


class TestFormsAtAnyScale:
    """Every form is decomposed in its own unit, so ``c G`` is G's object at any power of two c.

    For ``c = 4^j``, ``|j| <= 500``, the frames of ``c G`` and the canonical
    frames of both factories on ``(c G, c K)`` are ``2^-j`` times those of
    ``(G, K)``, bit for bit, with the same signature and h, and
    ``min_eigenvalue`` is c times G's.  At odd powers of two the frames
    differ by the rounding of ``sqrt(2)``, but ``min_eigenvalue`` is still
    exact and every decision is the same.
    """

    @staticmethod
    def _draw(n, field, seed, power):
        """``(G, K, |K|, c)``, with ``c = 2^power`` applied to each exactly (else the draw is skipped)."""
        rng = np.random.default_rng(seed)
        g, k = random_positive_definite(rng, n, field), random_nondegenerate_hform(rng, n, field)
        gk = compatible_structure_from_hform(k).ip.gram
        c = math.ldexp(1.0, power)
        assume(all(np.array_equal(c * x / c, x) for x in (g, k, gk)))  # no entry of c x is subnormal
        return g, k, gk, c

    @settings(max_examples=60, deadline=None)
    @given(**_PAIRS, j=st.integers(-500, 500))
    @example(n=4, field="real", seed=0, j=500)
    @example(n=4, field="complex", seed=0, j=-500)
    def test_frames_scale_by_the_root_of_c(self, n, field, seed, j):
        g, k, gk, c = self._draw(n, field, seed, 2 * j)
        root = math.ldexp(1.0, j)
        space = VectorSpace(n, field)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ip, scaled_ip = InnerProduct(space, g), InnerProduct(space, c * g)
            pairs = [
                (compatible_structure_from_hform(k), compatible_structure_from_hform(c * k)),
                (metric_structure_from(gk, k), metric_structure_from(c * gk, c * k)),
            ]
        assert scaled_ip.frame.tobytes() == (ip.frame / root).tobytes()
        assert scaled_ip.frame_inv.tobytes() == (ip.frame_inv * root).tobytes()
        assert scaled_ip.min_eigenvalue == c * ip.min_eigenvalue
        for ms, scaled in pairs:
            assert scaled.frame.basis.matrix.tobytes() == (ms.frame.basis.matrix / root).tobytes()
            assert scaled.frame.basis.inverse.tobytes() == (ms.frame.basis.inverse * root).tobytes()
            assert scaled.signature == ms.signature
            assert scaled.ip.min_eigenvalue == c * ms.ip.min_eigenvalue
            # The pair's h is G^{-1} K: equal wherever no entry of (c G)^{-1} is below the double range.
            if np.array_equal(scaled.ip.gram_inv * c, ms.ip.gram_inv):
                assert scaled.h.tobytes() == ms.h.tobytes()
        assert pairs[0][1].h.tobytes() == pairs[0][0].h.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(**dict(_PAIRS, n=st.integers(2, 6)), j=st.integers(-500, 499))
    @example(n=4, field="real", seed=0, j=499)
    @example(n=4, field="complex", seed=0, j=-500)
    def test_odd_powers_keep_the_eigenvalues_and_the_decisions(self, n, field, seed, j):
        g, k, gk, c = self._draw(n, field, seed, 2 * j + 1)
        rng = np.random.default_rng(seed)
        space = VectorSpace(n, field)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ip, scaled_ip = InnerProduct(space, g), InnerProduct(space, c * g)
            ms, scaled_ms = metric_structure_from(gk, k), metric_structure_from(c * gk, c * k)
            bare, scaled_bare = compatible_structure_from_hform(k), compatible_structure_from_hform(c * k)
            assert scaled_ip.min_eigenvalue == c * ip.min_eigenvalue
            assert scaled_bare.h.tobytes() == bare.h.tobytes()
            assert (scaled_ms.signature, scaled_bare.signature) == (ms.signature, bare.signature)
            # Members and non-members (moved by 1e-6 relative), built in the frame of G or of (G, K).
            m, a = random_hermitian(rng, n, field), random_matrix(rng, n, n, field)
            lam, eta = random_pseudo_unitary(rng, *ms.signature, field), ms.eta
            skew = _of_relative_size(a - hermitian_conjugate(a), m)
            lifts = (ip.frame, ip.frame_inv), (ms.frame.basis.matrix, ms.frame.basis.inverse)
            for rule, (b, b_inv), structure, scaled, member, other in (
                (is_selfadjoint, lifts[0], ip, scaled_ip, m, m + skew),
                (is_dirac_selfadjoint, lifts[1], ms, scaled_ms, m * eta, (m + skew) * eta),
                (is_pseudo_unitary, lifts[1], ms, scaled_ms, lam,
                 lam + lam @ (_of_relative_size(random_hermitian(rng, n, field), lam) * eta)),
            ):
                member, other = b @ member @ b_inv, b @ other @ b_inv
                assert [rule(member, scaled), rule(other, scaled)] == [True, False]
                assert [rule(member, structure), rule(other, structure)] == [True, False]

    def test_a_gram_near_the_overflow_threshold_has_finite_frames(self):
        g = np.array([[2.0, 1.0], [1.0, 2.0]])
        ip = InnerProduct(VectorSpace(2), 0.8e308 * g)
        assert np.isfinite(ip.frame).all() and np.isfinite(ip.frame_inv).all()
        assert np.count_nonzero(ip.frame) == 4
        # The pair at that scale is refused as the unscaled pair is, by the same measure.
        message = r"max \|\|w\| - 1\| = 1\.547e-01"
        for c in (1.0, 0.8e308):
            with pytest.raises(CompatibilityError, match=message):
                metric_structure_from(c * g, c * np.diag([2.0, -2.0]))

    def test_a_form_whose_inverse_leaves_the_range_is_degenerate(self):
        with pytest.raises(DegenerateFormError, match="inverse leaves the double range"):
            InnerProduct(VectorSpace(2), 5e-324 * np.array([[2.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(DegenerateFormError, match="inverse leaves the double range"):
            compatible_structure_from_hform(5e-324 * np.array([[2.0, -1.0], [-1.0, -2.0]]))


class TestFactorizationCounts:
    """LAPACK factorizations per construction, pinned: a structure factorizes once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        tally = dict.fromkeys(("eigh", "inv", "svd"), 0)
        for name in tally:
            original = getattr(np.linalg, name)

            def counted(*args, name=name, original=original, **kwargs):
                tally[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return tally

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_each_construction_and_the_frame(self, counts, field, n):
        rng = np.random.default_rng(n)
        k = random_nondegenerate_hform(rng, n, field)
        ms = compatible_structure_from_hform(k)
        assert counts == {"eigh": 1, "inv": 0, "svd": 0}  # G^{-1} is not read
        counts.update(eigh=0, inv=0)
        pair = metric_structure_from(ms.ip.gram, ms.hform.matrix)
        assert counts == {"eigh": 2, "inv": 1, "svd": 0}  # G and the frame, and h = G^{-1} K
        counts.update(eigh=0, inv=0)
        for structure in (ms, pair):
            h_orthonormal_basis(structure)
        assert counts == {"eigh": 0, "inv": 0, "svd": 0}

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_the_inverse_gram_is_computed_on_first_read(self, counts, field, n):
        ms = compatible_structure_from_hform(random_nondegenerate_hform(np.random.default_rng(n), n, field))
        counts.update(eigh=0)
        gram_inv = ms.ip.gram_inv
        assert counts == {"eigh": 0, "inv": 1, "svd": 0}
        assert gram_inv.tobytes() == np.linalg.inv(ms.ip.gram).tobytes()
        counts.update(inv=0)
        assert ms.ip.gram_inv is gram_inv
        assert counts == {"eigh": 0, "inv": 0, "svd": 0}

    @pytest.mark.parametrize("kind", ["hform", "pair"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_each_step_of_a_structures_request(self, counts, kind, field, n):
        # A decomposition runs its one eigh; no step inverts G or K.
        rng = np.random.default_rng(n)
        ms = compatible_structure_from_hform(random_nondegenerate_hform(rng, n, field))
        if kind == "pair":
            ms = metric_structure_from(ms.ip.gram, ms.hform.matrix)
        f = random_dirac_selfadjoint(rng, ms)
        a = random_g_selfadjoint(rng, ms.ip)
        b = ms.frame.basis
        u = b.matrix @ random_pseudo_unitary(rng, *ms.signature, field) @ b.inverse
        counts.update(eigh=0, inv=0)
        for step, expected in [
            (lambda: dirac_spectral(f, ms), 1),
            (lambda: spectral_representation(a, ms.ip), 1),
            (lambda: h_orthonormal_basis(ms), 0),
            (lambda: is_pseudo_unitary(u, ms), 0),
        ]:
            step()
            assert counts == {"eigh": expected, "inv": 0, "svd": 0}
            counts.update(eigh=0)


class TestDecisionCounts:
    """Each property is decided once per public call, where the input enters.

    Counted like the factorizations above: the rules of :mod:`kreinalg.policy`,
    the eigensolver seam, the coercions of :class:`VectorSpace` and the casts
    to a field (``matrices._on_field``).
    """

    @pytest.fixture
    def counts(self, monkeypatch):
        tally = dict.fromkeys(
            ("unit", "selfadjoint", "isometric", "involutory", "clears_form_floor", "_eigh", "_coerce",
             "_on_field"),
            0,
        )

        def count(owners, name, key=None):
            original = getattr(owners[0], name)

            def counted(*args, **kwargs):
                tally[key or name] += 1
                return original(*args, **kwargs)

            for owner in owners:
                monkeypatch.setattr(owner, name, counted)

        for name in ("unit", "selfadjoint", "isometric", "involutory", "clears_form_floor"):
            count([policy], name)
        modules = [m for key, m in sys.modules.items() if key.startswith("kreinalg")]
        count([m for m in modules if getattr(m, "_eigh", None) is eigen._eigh], "_eigh")
        count([VectorSpace], "_coerce")
        count([m for m in modules if getattr(m, "_on_field", None) is matrices._on_field], "_on_field")
        return tally

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_each_construction(self, counts, field, n):
        k = random_nondegenerate_hform(np.random.default_rng(n), n, field)
        ms = compatible_structure_from_hform(k)
        # K's one scaling, its Hermitian check, its one eigh and its one floor;
        # |K| is not tested again.  K is cast to its field once.
        assert counts == {
            "unit": 1, "selfadjoint": 1, "isometric": 0, "involutory": 0, "clears_form_floor": 1, "_eigh": 1,
            "_coerce": 1, "_on_field": 1,
        }
        counts.update(dict.fromkeys(counts, 0))
        metric_structure_from(ms.ip.gram, ms.hform.matrix)
        # Two floors: G's and the Ostrowski bound on K; h h = 1 is decided
        # once, on the frame solve's eigenvalues.  G and K are scaled and cast
        # once each.
        assert counts == {
            "unit": 2, "selfadjoint": 2, "isometric": 0, "involutory": 1, "clears_form_floor": 2, "_eigh": 2,
            "_coerce": 2, "_on_field": 2,
        }

    @pytest.mark.parametrize("kind", ["hform", "pair"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_each_decomposition(self, counts, kind, field, n):
        rng = np.random.default_rng(n)
        ms = compatible_structure_from_hform(random_nondegenerate_hform(rng, n, field))
        if kind == "pair":
            ms = metric_structure_from(ms.ip.gram, ms.hform.matrix)
        f = random_g_selfadjoint(rng, ms.ip)
        fd = random_dirac_selfadjoint(rng, ms)
        for decompose in (lambda: spectral_representation(f, ms.ip), lambda: g_selfadjoint_eigen(f, ms.ip),
                          lambda: dirac_spectral(fd, ms)):
            counts.update(dict.fromkeys(counts, 0))
            decompose()
            # The operator is coerced and scaled once; the rule's sharp takes
            # the frame matrix of the scaled operator.
            assert counts == {
                "unit": 1, "selfadjoint": 1, "isometric": 0, "involutory": 0, "clears_form_floor": 0, "_eigh": 1,
                "_coerce": 1, "_on_field": 1,
            }

    @pytest.mark.parametrize("kind", ["hform", "pair"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_each_decision(self, counts, kind, field, n):
        rng = np.random.default_rng(n)
        ms = compatible_structure_from_hform(random_nondegenerate_hform(rng, n, field))
        if kind == "pair":
            ms = metric_structure_from(ms.ip.gram, ms.hform.matrix)
        f = random_g_selfadjoint(rng, ms.ip)
        fd = random_dirac_selfadjoint(rng, ms)
        frame = ms.frame.basis
        u = frame.matrix @ random_pseudo_unitary(rng, *ms.signature, field) @ frame.inverse
        for decide, rule in (
            (lambda: is_selfadjoint(f, ms.ip), "selfadjoint"),
            (lambda: is_dirac_selfadjoint(fd, ms), "selfadjoint"),
            (lambda: is_pseudo_unitary(u, ms), "isometric"),
        ):
            counts.update(dict.fromkeys(counts, 0))
            assert decide()
            # One rule, one coercion, one scaling: the rule's sharp takes the
            # frame matrix of the scaled operator.
            expected = dict.fromkeys(counts, 0)
            expected.update({rule: 1, "unit": 1, "_coerce": 1, "_on_field": 1})
            assert counts == expected

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_classify_scales_once(self, counts, field, n):
        # The one scaled matrix serves both symmetry rules, both isometry
        # rules and the rank rule.
        classify(random_matrix(np.random.default_rng(n), n, n, field))
        expected = dict.fromkeys(counts, 0)
        expected.update({"unit": 1, "selfadjoint": 2, "isometric": 2})
        assert counts == expected


class TestScaleFreeNormCounts:
    """The rules measure unit data with the plain formula: ``policy.scale_free_norm``
    runs only for the isometry residual, which carries ``scale**-2``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        tally = [0]
        original = policy.scale_free_norm

        def counted(*args, **kwargs):
            tally[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(policy, "scale_free_norm", counted)
        return tally

    @pytest.mark.parametrize("kind", ["hform", "pair"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_per_structures_step(self, calls, kind, field, n):
        rng = np.random.default_rng(n)
        k = random_nondegenerate_hform(rng, n, field)
        ms = compatible_structure_from_hform(k)
        if kind == "pair":
            ms = metric_structure_from(ms.ip.gram, ms.hform.matrix)
        assert calls == [0]
        f = random_g_selfadjoint(rng, ms.ip)
        fd = random_dirac_selfadjoint(rng, ms)
        frame = ms.frame.basis
        u = frame.matrix @ random_pseudo_unitary(rng, *ms.signature, field) @ frame.inverse
        spectral_representation(f, ms.ip)
        dirac_spectral(fd, ms)
        assert calls == [0]
        assert is_pseudo_unitary(u, ms)
        assert calls == [1]


def _boosted_pair(rapidity, n, field, shift=0.0):
    """(G, K) whose canonical frame ``B`` is ``lorentz_boost(rapidity, n)``.

    ``B^+ G B = 1`` and ``B^+ K B = eta = diag(1, -1, ..)``, so with the
    boost at ``-rapidity`` as ``B^{-1}``: ``G = B^{-+} B^{-1}``, ``K =
    B^{-+} eta B^{-1}``, and ``h = B eta B^{-1}`` has ``||h||_2 = e^{2 rapidity}``.
    A Hermitian ``shift`` S moves K to ``B^{-+} (eta + S) B^{-1}``.
    """
    b_inv = lorentz_boost(-rapidity, n).astype(np.complex128 if field == "complex" else np.float64)
    return b_inv.T @ b_inv, b_inv.T @ (_eta(n) + shift) @ b_inv


def _eta(n):
    return np.diag(np.concatenate([[1.0], -np.ones(n - 1)]))


class TestDiracSpectralUnderStrongBoosts:
    """``dirac_spectral`` decomposes every f the Dirac rule accepts, at any ``||h||``.

    It decides Dirac-selfadjointness of f once and does not test ``f h``
    again: that second test's residual is bounded by ``||f# - f|| ||h||``
    but its bound by ``TOL ||f h||``, so a strongly boosted structure made
    it reject operators the first test had accepted.  The reconstruction
    error is ``||f - f#|| / 2`` in exact arithmetic; the bound below is the
    looser ``cond(G) ||h||_2^2 / 2`` times ``TOL ||f||``, plus matmul roundoff.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 4),
        field=st.sampled_from(["real", "complex"]),
        seed=st.integers(0, 2**32 - 1),
        rapidity=st.floats(0.5, 2.0),
        size=st.floats(0.0, 1.0),
    )
    def test_accepted_operators_decompose(self, n, field, seed, rapidity, size):
        rng = np.random.default_rng(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ms = metric_structure_from(*_boosted_pair(rapidity, n, field))
            f = random_dirac_selfadjoint(rng, ms)
            e = random_matrix(rng, n, n, field)
            f = f + e * (size * policy.TOL * np.linalg.norm(f) / np.linalg.norm(e))
            if not is_dirac_selfadjoint(f, ms):
                with pytest.raises(SymmetryError, match="Dirac-selfadjoint"):
                    dirac_spectral(f, ms)
                return
            dec = dirac_spectral(f, ms)
            scale = np.linalg.cond(ms.ip.gram) * np.linalg.norm(ms.h, 2) ** 2 * np.linalg.norm(f)
            bound = (0.5 * policy.TOL + 64 * n * np.finfo(float).eps) * scale
            assert np.linalg.norm(dec.reconstruct() - f) <= bound

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 4),
        field=st.sampled_from(["real", "complex"]),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.floats(-300.0, 307.0),
    )
    @example(n=3, field="real", seed=0, exponent=307.0)
    @example(n=3, field="complex", seed=0, exponent=307.0)
    @example(n=3, field="complex", seed=0, exponent=-300.0)
    def test_decomposes_at_any_scale(self, n, field, seed, exponent):
        # f h overflowed for an f with largest entry 1e307 under a
        # lorentz_boost(2.0) frame.  Scaled by a power of two s, f must
        # give the same projectors and s times the eigenvalues.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ms = metric_structure_from(*_boosted_pair(2.0, n, field))
            f = random_dirac_selfadjoint(np.random.default_rng(seed), ms)
            f = f * (10.0**exponent / np.max(np.abs(f)))
            s = math.ldexp(1.0, math.frexp(np.max(np.abs(f)))[1] - 1)  # max |f / s| in [1, 2)
            dec, unit = dirac_spectral(f, ms), dirac_spectral(f / s, ms)
        assert dec.multiplicities == unit.multiplicities
        for p, q in zip(dec.projectors, unit.projectors):
            np.testing.assert_array_equal(p, q)
        # Exact unless an eigenvalue of f is subnormal.
        np.testing.assert_allclose(
            np.array(dec.eigenvalues) / s, unit.eigenvalues, rtol=0, atol=math.ldexp(1.0, -1074) / s
        )
        bound = (0.5 * policy.TOL + 64 * n * np.finfo(float).eps) * (
            np.linalg.cond(ms.ip.gram) * np.linalg.norm(ms.h, 2) ** 2 * np.linalg.norm(f / s)
        )
        assert np.linalg.norm(unit.reconstruct() - f / s) <= bound


_BOOSTED = dict(
    n=st.integers(2, 8),
    field=st.sampled_from(["real", "complex"]),
    seed=st.integers(0, 2**32 - 1),
    rapidity=st.floats(0.0, 4.0),
)


def _of_relative_size(x, y, size=1e-6):
    """``x`` rescaled to ``size ||y||``."""
    return x * (size * np.linalg.norm(y) / np.linalg.norm(x))


class TestConditionedDiracStructures:
    """The pair, the Dirac rules and ``dirac_spectral`` hold under boosts up to rapidity 4.

    ``_boosted_pair`` has ``cond(G) = e^{4 rapidity}``, about 8.9e6 at
    rapidity 4.  The exact pair builds; moving its eta by a Hermitian S of
    relative size 1e-6 (1000 TOL) makes it incompatible.  Members are
    built in the canonical frame B: ``B (M eta) B^{-1}`` for a Hermitian M
    and ``B L B^{-1}`` for L from :func:`random_pseudo_unitary`.  The
    non-members move M by an anti-Hermitian and L by ``L S eta`` for a
    Hermitian S, each of relative size 1e-6.  The reconstruction is
    bounded to first order by ``4 n eps cond(G) ||f||``.
    """

    @settings(max_examples=80, deadline=None)
    @given(**_BOOSTED)
    @example(n=8, field="real", seed=3, rapidity=4.0)
    @example(n=8, field="complex", seed=3, rapidity=4.0)
    def test_exact_pairs_build_and_perturbed_pairs_are_incompatible(self, n, field, seed, rapidity):
        s = _of_relative_size(random_hermitian(np.random.default_rng(seed), n, field), _eta(n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert metric_structure_from(*_boosted_pair(rapidity, n, field)).signature == (1, n - 1)
            with pytest.raises(CompatibilityError):
                metric_structure_from(*_boosted_pair(rapidity, n, field, s))

    @settings(max_examples=80, deadline=None)
    @given(**_BOOSTED)
    @example(n=8, field="real", seed=3, rapidity=4.0)
    @example(n=8, field="complex", seed=3, rapidity=4.0)
    def test_frame_members_accepted_and_perturbations_rejected(self, n, field, seed, rapidity):
        rng = np.random.default_rng(seed)
        ms = metric_structure_from(*_boosted_pair(rapidity, n, field))
        frame, eta = ms.frame.basis, ms.eta
        m = random_hermitian(rng, n, field)
        lam = random_pseudo_unitary(rng, *ms.signature, field)
        a = random_matrix(rng, n, n, field)
        s = random_hermitian(rng, n, field)

        cases = [
            (is_dirac_selfadjoint, m * eta, (m + _of_relative_size(a - hermitian_conjugate(a), m)) * eta),
            (is_pseudo_unitary, lam, lam + lam @ (_of_relative_size(s, lam) * eta)),
        ]
        if field == "real":
            cases.append((is_pseudo_orthogonal, *cases[1][1:]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rule, member, other in cases:
                assert rule(frame.matrix @ member @ frame.inverse, ms)
                assert not rule(frame.matrix @ other @ frame.inverse, ms)

    @settings(max_examples=60, deadline=None)
    @given(**_BOOSTED)
    @example(n=8, field="real", seed=3, rapidity=4.0)
    @example(n=8, field="complex", seed=3, rapidity=4.0)
    def test_dirac_spectral_reconstructs(self, n, field, seed, rapidity):
        rng = np.random.default_rng(seed)
        ms = metric_structure_from(*_boosted_pair(rapidity, n, field))
        frame = ms.frame.basis
        f = frame.matrix @ (random_hermitian(rng, n, field) * ms.eta) @ frame.inverse
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = dirac_spectral(f, ms).reconstruct()
        bound = 4 * n * np.finfo(float).eps * np.linalg.cond(ms.ip.gram) * np.linalg.norm(f)
        assert np.linalg.norm(rec - f) <= bound

    def test_random_dirac_selfadjoint_gives_members(self):
        # Built as (G-selfadjoint) @ h in the natural frame, with roundoff
        # growing with cond(G) ||h||, 21 of these 42 were rejected.
        rejected = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in range(2, 9):
                for field in ("real", "complex"):
                    ms = metric_structure_from(*_boosted_pair(4.0, n, field))
                    rejected += [
                        (n, field, seed) for seed in range(3)
                        if not is_dirac_selfadjoint(random_dirac_selfadjoint(np.random.default_rng(seed), ms), ms)
                    ]
        assert rejected == []


class TestSelfAdjointnessAtAnyScale:
    """The self-adjointness rules decide ``c f`` as they decide ``f``, at any scale.

    Under a ``lorentz_boost(2.0, n)`` frame ``f#`` is up to ~e^8 times
    larger than f, so forming it from an f with largest entry 1e307
    overflowed; the rule now forms it from f scaled by a power of two.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 4),
        field=st.sampled_from(["real", "complex"]),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.floats(-300.0, 307.0),
    )
    @example(n=3, field="real", seed=1, exponent=307.0)
    @example(n=3, field="complex", seed=1, exponent=307.0)
    @example(n=3, field="complex", seed=1, exponent=-300.0)
    def test_members_accepted_and_others_rejected(self, n, field, seed, exponent):
        rng = np.random.default_rng(seed)
        ms = metric_structure_from(*_boosted_pair(2.0, n, field))
        dirac = random_dirac_selfadjoint(rng, ms)
        g_self = random_g_selfadjoint(rng, ms.ip)
        e = random_matrix(rng, n, n, field)

        def at_scale(f):
            return f * (10.0**exponent / np.max(np.abs(f)))

        def perturbed(f):
            return f + 1e-3 * np.max(np.abs(f)) / np.max(np.abs(e)) * e

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_dirac_selfadjoint(at_scale(dirac), ms)
            assert is_selfadjoint(at_scale(g_self), ms.ip)
            assert not is_dirac_selfadjoint(at_scale(perturbed(dirac)), ms)
            assert not is_selfadjoint(at_scale(perturbed(g_self)), ms.ip)


def test_overflowing_metric_operator_is_incompatible():
    # h = G^{-1} K overflows here; a compatible pair has ||h||_2 = cond(B), far below that.
    with np.errstate(over="ignore"), pytest.raises(CompatibilityError, match="not finite"):
        metric_structure_from(1e-300 * np.eye(2), 1e10 * np.diag([1.0, -1.0]))


@pytest.mark.parametrize("value", [1.0, np.ones(3)], ids=["0-D", "1-D"])
@pytest.mark.parametrize(
    "call",
    [lambda a: metric_structure_from(a, a), compatible_structure_from_hform, kernel_dimension],
    ids=["metric_structure_from", "compatible_structure_from_hform", "kernel_dimension"],
)
def test_shape_is_checked_before_it_is_read(call, value):
    with pytest.raises(ShapeError):
        call(value)
