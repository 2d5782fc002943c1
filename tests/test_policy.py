"""The numerical policy: scale-free decisions, non-finite input, and the guard
that keeps every tolerance in :mod:`kreinalg.policy`."""

import ast
import inspect
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import kreinalg
from kreinalg import (
    Basis,
    HForm,
    InnerProduct,
    NonFiniteError,
    ShapeError,
    SingularBasisError,
    VectorSpace,
    DegenerateFormError,
    canonical_form_bases,
    classify,
    cluster_eigenvalues,
    compatible_structure_from_hform,
    dirac_spectral,
    eigen_hermitian,
    hermitian_conjugate,
    is_dirac_selfadjoint,
    is_orthogonal,
    is_pseudo_orthogonal,
    is_pseudo_unitary,
    is_selfadjoint,
    is_unitary_wrt,
    kernel_dimension,
    metric_structure_from,
    minkowski_structure,
    natural_basis,
    policy,
    rank,
    spectral_representation,
    standard_inner_product,
    tensor_from_ket,
    transform_tensor,
)
from kreinalg.generators import (
    lorentz_boost,
    random_hermitian,
    random_matrix,
    random_pseudo_unitary,
    random_unitary,
    separated_eigenvalues,
)
from kreinalg import eigen, indefinite
from kreinalg.unitary import g_selfadjoint_eigen

SRC = Path(__file__).resolve().parent.parent / "src" / "kreinalg"
README = SRC.parent.parent / "README.md"


def _basis_matrix(rng, n, kind):
    return np.eye(n) if kind == "identity" else random_unitary(rng, n, "real")


class TestSingularIsRankBelowN:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 64),
        exponent=st.integers(-150, 150),
        kind=st.sampled_from(["identity", "orthogonal"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_well_conditioned_bases_accepted_at_any_scale(self, n, exponent, kind, seed):
        m = 10.0**exponent * _basis_matrix(np.random.default_rng(seed), n, kind)
        space = VectorSpace(n)
        Basis(space, m)
        t = tensor_from_ket(space, np.ones((n, 1)))
        np.testing.assert_allclose(transform_tensor(t, m).components, m @ np.ones(n))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 64),
        exponent=st.integers(-150, 150),
        kind=st.sampled_from(["identity", "orthogonal"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2, exponent=308, kind="orthogonal", seed=0)
    def test_rank_deficient_bases_rejected_at_any_scale(self, n, exponent, kind, seed):
        rng = np.random.default_rng(seed)
        m = _basis_matrix(rng, n, kind)
        j = int(rng.integers(1, n))
        m[:, j] = m[:, 0] * 0.5
        m = 10.0**exponent * m
        space = VectorSpace(n)
        with pytest.raises(SingularBasisError):
            Basis(space, m)
        with pytest.raises(SingularBasisError):
            transform_tensor(tensor_from_ket(space, np.ones((n, 1))), m)

    @pytest.mark.parametrize("fill", [0.0, np.nan, np.inf])
    def test_zero_is_singular_and_non_finite_is_rejected(self, fill):
        with pytest.raises(SingularBasisError if fill == 0.0 else NonFiniteError):
            Basis(VectorSpace(2), np.full((2, 2), fill))

    def test_a_basis_is_scaled_once(self, monkeypatch):
        # The rank rule hands the LU the matrix it scaled; the inverse keeps the bits of inv(m).
        m = random_unitary(np.random.default_rng(3), 3, "real") * 3.0
        scalings = []
        unit = policy.unit
        monkeypatch.setattr(policy, "unit", lambda a, what: scalings.append(what) or unit(a, what))
        basis = Basis(VectorSpace(3), m)
        assert scalings == ["basis matrix"]
        assert basis.inverse.tobytes() == np.linalg.inv(m).tobytes()

    def test_natural_basis_beyond_dimension_18(self):
        assert natural_basis(VectorSpace(19)).matrix.shape == (19, 19)


class TestRankAtAnyScale:
    """Every numerical-rank rule counts the same rank for ``c A`` as for ``A``."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 8),
        field=st.sampled_from(["real", "complex"]),
        exponent=st.integers(-300, 308),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_same_rank_from_1e_minus_300_to_1e308(self, n, field, exponent, seed, data):
        r = data.draw(st.integers(0, n))
        rng = np.random.default_rng(seed)
        stretch = np.diag(rng.uniform(1.0, 2.0, r))
        a = random_unitary(rng, n, field)[:, :r] @ stretch @ random_unitary(rng, n, field)[:r]
        peak = np.max(np.abs(a))
        a = 10.0**exponent * (a / peak if peak else a)  # largest entry 10**exponent
        space = VectorSpace(n, field)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rank(a) == r
            assert kernel_dimension(a) == n - r
            assert ("singular" in classify(a)) == (r < n)
            domain, codomain, found = canonical_form_bases(a, space, space)
            assert found == r
            block = codomain.inverse @ a @ domain.matrix
            if r == n:
                basis = Basis(space, a)
                np.testing.assert_allclose(basis.inverse @ a, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(block, np.diag([1.0] * r + [0.0] * (n - r)), atol=1e-9)

    def test_a_unitary_basis_near_the_overflow_threshold(self):
        m = 1.5e308 * np.array([[1.0, 1.0], [1.0, -1.0]])
        space = VectorSpace(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            basis = Basis(space, m)
            np.testing.assert_allclose(basis.inverse @ m, np.eye(2), atol=1e-12)
            assert kernel_dimension(m) == 0
            assert canonical_form_bases(m, space, space)[2] == 2
            assert kernel_dimension(1e308 * np.ones((2, 2))) == 1
            assert rank(1e308 * np.ones((2, 2))) == 1

    @pytest.mark.parametrize("a, first", [
        (np.diag([np.inf, 1.0]), (0, 0)),
        (np.array([[np.nan]]), (0, 0)),
        (np.array([[1.0, 2.0], [-np.inf, np.nan]]), (1, 0)),
    ], ids=["inf", "nan", "both"])
    @pytest.mark.parametrize("call", [
        rank,
        kernel_dimension,
        lambda a: canonical_form_bases(a, VectorSpace(len(a)), VectorSpace(len(a))),
    ], ids=["rank", "kernel_dimension", "canonical_form_bases"])
    def test_non_finite_input_names_its_first_bad_entry(self, a, first, call):
        with pytest.raises(NonFiniteError, match=re.escape(f"first at {first}")):
            call(a)
        with pytest.raises(NonFiniteError, match=re.escape(f"first at {first}")):
            classify(a)


def _rank_answers(a):
    """The five rank answers for a square ``a``: three ranks and two singularity verdicts."""
    n = len(a)
    space = VectorSpace(n, "complex" if np.iscomplexobj(a) else "real")
    try:
        Basis(space, a)
        rejected = False
    except SingularBasisError:
        rejected = True
    ranks = {rank(a), n - kernel_dimension(a), canonical_form_bases(a, space, space)[2]}
    return ranks, "singular" in classify(a), rejected


def _kahan(n, theta=1.2):
    """Kahan's matrix ``diag(sin^i theta) (1 - cos theta U)``, U the strict upper ones.

    Every pivot of partial pivoting is ``sin^i theta``, far above its
    smallest singular value, so a pivot count does not reveal its rank.
    """
    upper = np.triu(np.ones((n, n)), 1)
    return np.sin(theta) ** np.arange(n)[:, np.newaxis] * (np.eye(n) - np.cos(theta) * upper)


class TestOneRankRule:
    """Every rank and nonsingularity answer is the one singular-value count of the unit matrix."""

    @pytest.mark.parametrize("n, r", [(40, 40), (60, 59), (80, 79)])
    def test_kahan_matrix(self, n, r):
        assert _rank_answers(_kahan(n)) == ({r}, r < n, r < n)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 8),
        field=st.sampled_from(["real", "complex"]),
        k=st.integers(-900, 1000),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_singular_values_on_both_sides_of_the_floor(self, n, field, k, seed, data):
        # sigma_0 in [1, 2); the others at 2**j times the floor RANK_TOL sigma_0,
        # with j != 0: far from it in the rule's terms, and far above round-off.
        rng = np.random.default_rng(seed)
        sides = data.draw(st.lists(st.sampled_from([-8, -2, -1, 1, 2, 8]), min_size=n - 1, max_size=n - 1))
        sigma0 = rng.uniform(1.0, 2.0)
        sigma = np.array([sigma0] + [2.0**j * policy.RANK_TOL * sigma0 for j in sides])
        u, v = random_unitary(rng, n, field), random_unitary(rng, n, field)
        a = math.ldexp(1.0, k) * (u * sigma) @ v
        expected = 1 + sum(j > 0 for j in sides)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            answers = _rank_answers(a)
        assert answers == ({expected}, expected < n, expected < n)


def _entry_points(n, field):
    space = VectorSpace(n, field)
    return {
        "eigen_hermitian": eigen_hermitian,
        "InnerProduct": lambda a: InnerProduct(space, a),
        "HForm": lambda a: HForm(space, a),
        "spectral_representation": lambda a: spectral_representation(
            a, standard_inner_product(space)
        ),
        "g_selfadjoint_eigen": lambda a: g_selfadjoint_eigen(a, standard_inner_product(space)),
    }


class TestNonFiniteInputRejected:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 5),
        field=st.sampled_from(["real", "complex"]),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        mirrored=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_every_hermitian_checked_entry_point(self, n, field, bad, mirrored, seed, data):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, n, field) + n * np.eye(n)
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        a[i, j] = bad
        if mirrored:
            a[j, i] = bad
        for name, entry in _entry_points(n, field).items():
            with pytest.raises(NonFiniteError, match="non-finite entries") as info:
                entry(a)
            assert f"({i}, {j})" in str(info.value) or f"({j}, {i})" in str(info.value), name


class TestComplexModulusBeyondTheDoubleRange:
    """A complex entry with finite parts whose modulus overflows is finite input."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_decided_as_finite(self, n):
        rng = np.random.default_rng(n)
        a = 1.5e308 * np.diag(rng.choice([-1.0, 1.0], n) + 1j * rng.choice([-1.0, 1.0], n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rank(a) == n and kernel_dimension(a) == 0
            assert classify(a) == {"symmetric"}
            basis = Basis(VectorSpace(n, "complex"), a)
        np.testing.assert_allclose(basis.inverse @ a, np.eye(n), atol=1e-15)


class TestNormBeyondTheDoubleRange:
    """A finite operator whose Frobenius norm overflows is decided and clustered as at any other scale.

    ``F`` has entries 1e308, norm 2e308 and eigenvalues ``+-sqrt(2) 1e308``,
    all but the norm inside the double range.
    """

    F = np.array([[1e308, 1e308], [1e308, -1e308]])

    def test_selfadjointness_is_decided_as_at_a_smaller_scale(self):
        ip = standard_inner_product(VectorSpace(2))
        skew = np.array([[1e308, 1e308], [-1e308, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_selfadjoint(self.F, ip) and is_selfadjoint(self.F / 2.0**1000, ip)
            assert not is_selfadjoint(skew, ip) and not is_selfadjoint(skew / 2.0**1000, ip)
            assert classify(self.F) >= {"hermitian", "symmetric"}

    def test_opposite_eigenvalues_are_two_clusters(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cluster_eigenvalues([1.414e308, -1.414e308]) == ([1.414e308, -1.414e308], [[0], [1]])
            assert cluster_eigenvalues([1.7e308, 1.7e308]) == ([1.7e308], [[1, 0]])

    def test_every_decomposition_splits_the_spectrum(self):
        ip = standard_inner_product(VectorSpace(2))
        ms = minkowski_structure(1, 1)
        root2 = math.sqrt(2.0) * 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for dec in (eigen_hermitian(self.F), spectral_representation(self.F, ip)):
                assert dec.multiplicities == (1, 1)
                assert dec.eigenvalues == pytest.approx((root2, -root2), rel=4 * np.finfo(float).eps)
                reference = eigen_hermitian(self.F / 2.0**1000).projectors
                for p, q in zip(dec.projectors, reference):
                    assert policy.norm(p - q) <= 16 * np.finfo(float).eps
            # f h = diag(1.5e308, -1e308): norm 1.8e308.
            dec = dirac_spectral(np.diag([1.5e308, 1e308]), ms)
            assert dec.eigenvalues == (1.5e308, -1e308) and dec.multiplicities == (1, 1)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 8),
        field=st.sampled_from(["real", "complex"]),
        repeats=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_answers_as_at_unit_scale(self, n, field, repeats, seed):
        # Eigenvalues in [-2, 2] times 2**1022 stay finite; the norm of most such
        # operators does not.
        rng = np.random.default_rng(seed)
        lam = separated_eigenvalues(rng, n, multiplicities=repeats)
        u = random_unitary(rng, n, field)
        a = u @ np.diag(lam).astype(u.dtype) @ np.conj(u).T
        a = (a + np.conj(a).T) / 2.0
        c = 2.0**1022
        ip = standard_inner_product(VectorSpace(n, field))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_selfadjoint(c * a, ip) == is_selfadjoint(a, ip)
            assert cluster_eigenvalues(c * lam)[1] == cluster_eigenvalues(lam)[1]
            big, unit = eigen_hermitian(c * a), eigen_hermitian(a)
        assert big.multiplicities == unit.multiplicities
        scale = np.finfo(float).eps * n * np.max(np.abs(lam))
        assert np.max(np.abs(np.array(big.eigenvalues) / c - unit.eigenvalues)) <= 64 * scale


class TestFormFloorBeyondTheDoubleRange:
    """A finite form whose Frobenius norm overflows clears the floor as at any other scale."""

    def test_overflowing_forms_build(self):
        big = np.diag([1.5e308, 1.5e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ms = compatible_structure_from_hform(TestNormBeyondTheDoubleRange.F)
            ip = InnerProduct(VectorSpace(2), big)
            pair = metric_structure_from(big, np.diag([1.5e308, -1.5e308]))
        assert ms.signature == pair.signature == (1, 1)
        assert np.all(np.isfinite(ms.ip.gram)) and ip.min_eigenvalue == 1.5e308
        assert policy.norm(pair.h - np.diag([1.0, -1.0])) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(
        field=st.sampled_from(["real", "complex"]),
        entries=st.lists(st.integers(-8, 8), min_size=18, max_size=18),
        n=st.integers(1, 3),
        exponent=st.floats(-300.0, 308.0),
    )
    @example(field="real", entries=[8, 8, 8, -8] + [0] * 14, n=2, exponent=308.0)
    @example(field="complex", entries=[8, 0, 0, -8, 0, 8, -8, 0] + [0] * 10, n=2, exponent=308.0)
    @example(field="real", entries=[8, 8, 8, 8] + [0] * 14, n=2, exponent=307.0)
    @example(field="real", entries=[0, 0, 0, 0, 4, 8, 4, 8, 8] + [0] * 9, n=3, exponent=308.0)
    def test_c_k_is_decided_as_k(self, field, entries, n, exponent):
        # Dyadic K: min |eigenvalue| is either round-off or far above the floor.
        parts = np.array(entries[: 2 * n * n], dtype=float).reshape(2, n, n) / 8.0
        p = parts[0] + 1j * parts[1] if field == "complex" else parts[0]
        k = (p + np.conj(p).T) / 2.0
        c = 10.0**exponent
        # Divided, not multiplied: c max|eig(k)| would overflow before kreinalg runs.
        assume(np.abs(np.linalg.eigvalsh(k)).max(initial=0.0) < 1.7e308 / c)

        def degenerate(form):
            try:
                compatible_structure_from_hform(form)
            except DegenerateFormError:
                return True
            return False

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert degenerate(c * k) == degenerate(k)


class TestScaledNorm:
    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        field=st.sampled_from(["real", "complex"]),
        exponent=st.integers(-300, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_frobenius_scales_without_overflow_or_underflow(self, rows, cols, field, exponent, seed):
        a = random_matrix(np.random.default_rng(seed), rows, cols, field)
        c = 10.0**exponent
        # c * a is rounded entrywise (relative eps), and so is the scaled norm.
        assert policy.norm(c * a) == pytest.approx(c * np.linalg.norm(a), rel=8 * np.finfo(float).eps)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_equals_numpy_inside_its_range(self, field):
        rng = np.random.default_rng(5)
        for exponent in range(-100, 101, 10):
            a = 10.0**exponent * random_matrix(rng, 5, 3, field)
            assert policy.norm(a) == np.linalg.norm(a)
            assert policy.norm(a.T) == np.linalg.norm(a.T)

    def test_zero_and_non_finite(self):
        assert policy.norm(np.zeros((2, 2))) == 0.0
        assert policy.norm(np.zeros((0, 3))) == 0.0
        assert np.isnan(policy.norm(np.array([[np.nan, 1.0]])))
        assert policy.norm(np.array([[1.0, -np.inf]])) == np.inf

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("shape", [(1, 1), (4, 3), (8, 8)])
    def test_bit_identical_to_the_scaled_formula_at_every_exponent(self, field, shape):
        rng = np.random.default_rng(13)
        for exponent in range(-320, 309):
            a = 10.0**exponent * random_matrix(rng, *shape, field)
            for m in (a, a.T):
                assert policy.norm(m).hex() == _scaled_norm(m).hex(), exponent

    def test_equals_numpy_on_every_layout_and_dtype(self):
        rng = np.random.default_rng(15)
        real = random_matrix(rng, 9, 12, "real")
        cplx = random_matrix(rng, 9, 12, "complex")
        arrays = {
            "int": rng.integers(-9, 10, size=(5, 4)),
            "bool": rng.random((5, 4)) < 0.5,
            "fortran real": np.asfortranarray(real),
            "fortran complex": np.asfortranarray(cplx),
            "strided real": real[::2, ::3],
            "strided complex": cplx[::2, ::3],
            "real part": cplx.real,
            "imaginary part": cplx.imag,
            "strided real part": cplx[1::2, ::3].real,
            "vector": real[:, 4],
        }
        for name, a in arrays.items():
            assert policy.norm(a).hex() == float(np.linalg.norm(a)).hex(), name

    def test_subnormal_complex(self):
        a = np.array([[3e-320 + 4e-320j]])  # 6072 and 8096 ulps of 0: |a| is exactly 10120
        assert policy.norm(a) == abs(a[0, 0]) == 10120 * 2.0**-1074

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("c", [1e300, 1e200, 1e-200, 1e-300, 1e-320])
    def test_no_warning_at_the_extremes(self, field, c):
        a = c * random_matrix(np.random.default_rng(14), 8, 8, field)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 0.0 < policy.norm(a) < math.inf


def _scaled_norm(a):
    """``s ||a / s||`` for every input, no plain-norm shortcut: the reference.

    The real and imaginary parts are divided as reals, which is exact for
    any power of two ``s``, subnormal ones included.
    """
    a = np.asarray(a)
    if not a.size:
        return 0.0
    peak = float(np.max(np.abs(a)))
    if peak == 0.0 or not math.isfinite(peak):
        return peak
    scale = math.ldexp(1.0, math.frexp(peak)[1] - 1)
    scaled = a.real / scale + 1j * (a.imag / scale) if np.iscomplexobj(a) else a / scale
    return scale * float(np.linalg.norm(scaled))


# The rules as they were when every one measured with policy.norm, kept as
# the reference that the plain Frobenius formula must decide exactly as.
def _reference_holds(residual, size):
    return bool(residual <= policy.TOL * size < math.inf)


def _reference_selfadjoint(m, sharp):
    return _reference_holds(policy.norm(sharp(m) - m), policy.norm(m))


def _reference_isometric(m, scale, sharp):
    m_sharp = sharp(m)
    scale = max(scale, 2.0**-511)
    residual = policy.norm(m_sharp @ m - scale**-2 * np.eye(m.shape[1]))
    return _reference_holds(residual, policy.norm(m_sharp) * policy.norm(m))


def _reference_clears_form_floor(values, k, scale):
    return bool((values / scale).min() > policy.FORM_TOL * policy.norm(k))


def _reference_cluster_eigenvalues(values):
    values = np.asarray(values, dtype=np.float64)
    if not values.size:
        return [], []
    order = np.argsort(values, kind="stable")[::-1]
    values = values[order]
    listed = values.tolist()
    finite = [v for v in listed if math.isfinite(v)]
    scale = policy.scale_of(max(map(abs, finite), default=0.0))
    scaled = measured = values / scale
    if len(finite) < len(listed):
        measured = np.divide(finite, scale)
        scaled[~np.isfinite(scaled)] = np.nan
    tol = policy.CLUSTER_TOL * policy.norm(measured)
    cuts = (np.flatnonzero(~(scaled[:-1] - scaled[1:] <= tol)) + 1).tolist()
    bounds = list(zip([0] + cuts, cuts + [len(listed)]))
    distinct = [
        listed[start] if end - start == 1 else scale * float(np.mean(scaled[start:end]))
        for start, end in bounds
    ]
    indices = order.tolist()
    return distinct, [indices[start:end] for start, end in bounds]


def _times_power_of_two(a, k):
    """``2**k a``, rounded once per part (subnormal where ``2**k a`` is).

    k is lowered where needed so that ``2**k a`` and its eigenvalues, which
    for n <= 6 are below 8 times its largest entry, stay finite.
    """
    a = np.asarray(a)
    peak = max(np.abs(a.real).max(initial=0.0), np.abs(np.imag(a)).max(initial=0.0))
    if peak:
        k = min(k, 1021 - math.frexp(peak)[1])
    if a.dtype.kind == "c":
        return np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)
    return np.ldexp(a, k)


def _unit_direction(rng, n, field, hermitian):
    """A random matrix of Frobenius norm 1, Hermitian or anti-Hermitian."""
    e = random_matrix(rng, n, n, field)
    e = (e + np.conj(e).T) if hermitian else (e - np.conj(e).T)
    size = np.linalg.norm(e)
    return e / size if size else e


_EXPONENTS = st.one_of(st.just(0), st.sampled_from([-1074, -1060, -1022, -1000, 1000, 1023]),
                       st.integers(-1074, 1023))


class TestPlainNormDecidesAsTheScaleFreeNorm:
    """The rules measure unit data with the plain Frobenius formula and decide as with ``policy.norm``.

    Inputs are scaled by ``2**k`` over the whole exponent range (zero and
    subnormal inputs included, which ``policy.unit`` clamps at ``2**-1022``)
    and perturbed by 0 to 3 tolerances around each rule's threshold.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 6),
        field=st.sampled_from(["real", "complex"]),
        k=_EXPONENTS,
        t=st.floats(0.0, 3.0),
        framed=st.booleans(),
        zero=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_selfadjoint(self, n, field, k, t, framed, zero, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, n, field)
        # ||a^+ - a|| is 2 t TOL ||h||: the threshold TOL ||a|| lies near t = 1/2.
        a = h + t * policy.TOL * np.linalg.norm(h) * _unit_direction(rng, n, field, False)
        if zero:
            a = np.zeros_like(a)
        m, _ = policy.unit(_times_power_of_two(a, k))
        if framed:
            b = random_unitary(rng, n, field) * rng.uniform(0.01, 10.0, n)
            m = np.linalg.inv(b) @ m @ b
        eta = np.where(np.arange(n) < rng.integers(0, n + 1), 1.0, -1.0)
        for sharp in (hermitian_conjugate, np.transpose, eigen._adjoint_view, indefinite._eta_sharp(eta)):
            assert policy.selfadjoint(m, sharp) == _reference_selfadjoint(m, sharp)
        # Dirac self-adjointness is decided as ``m eta`` Hermitian.
        assert policy.selfadjoint(m * eta, eigen._adjoint_view) == _reference_selfadjoint(m * eta, eigen._adjoint_view)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 6),
        field=st.sampled_from(["real", "complex"]),
        k=_EXPONENTS,
        t=st.floats(0.0, 3.0),
        zero=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_isometric(self, n, field, k, t, zero, seed):
        rng = np.random.default_rng(seed)
        n_plus = int(rng.integers(0, n + 1))
        eta = np.where(np.arange(n) < n_plus, 1.0, -1.0)
        for u, sharp in ((random_unitary(rng, n, field), hermitian_conjugate),
                         (random_pseudo_unitary(rng, n_plus, n - n_plus, field), indefinite._eta_sharp(eta))):
            e = _unit_direction(rng, n, field, True)
            # ||f# f - 1|| is about 2 t TOL ||f# f|| for f = u + t TOL ||u|| e.
            f = u + t * policy.TOL * np.linalg.norm(u) * e
            if zero:
                f = np.zeros_like(f)
            m, scale = policy.unit(_times_power_of_two(f, k))
            assert policy.isometric(m, scale, sharp) == _reference_isometric(m, scale, sharp)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 6),
        field=st.sampled_from(["real", "complex"]),
        k=_EXPONENTS,
        t=st.floats(0.0, 3.0),
        zero=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_clears_form_floor(self, n, field, k, t, zero, seed):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
        # The smallest |eigenvalue| at t FORM_TOL ||K||: the floor lies at t = 1.
        lam[0] = np.sign(lam[0]) * t * policy.FORM_TOL * np.linalg.norm(lam)
        u = random_unitary(rng, n, field)
        form = u @ np.diag(lam).astype(u.dtype) @ np.conj(u).T
        form = (form + np.conj(form).T) / 2.0  # exactly Hermitian, even where lam[0] is subnormal
        if zero:
            form, lam = np.zeros_like(form), np.zeros(n)
        h, scale = eigen._hermitian_form(_times_power_of_two(form, k), "H-form matrix")
        for values in (np.abs(np.linalg.eigvalsh(h)) * scale, np.abs(_times_power_of_two(lam, k))):
            assert policy.clears_form_floor(values, h, scale) == _reference_clears_form_floor(values, h, scale)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 8),
        k=_EXPONENTS,
        gaps=st.lists(st.one_of(st.none(), st.floats(0.0, 3.0)), min_size=8, max_size=8),
        zero=st.booleans(),
        extra=st.sampled_from([None, math.nan, math.inf, -math.inf]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cluster_eigenvalues(self, n, k, gaps, zero, extra, seed):
        rng = np.random.default_rng(seed)
        lam = np.sort(rng.uniform(-2.0, 2.0, n))
        # Some neighbours t CLUSTER_TOL ||lam|| apart: the threshold lies near t = 1.
        for i in range(1, n):
            if gaps[i] is not None:
                lam[i] = lam[i - 1] + gaps[i] * policy.CLUSTER_TOL * np.linalg.norm(lam)
        values = np.zeros(n) if zero else _times_power_of_two(lam, k)
        if extra is not None:
            values = np.append(values, extra)
        values = rng.permutation(values)
        distinct, groups = cluster_eigenvalues(values)
        ref_distinct, ref_groups = _reference_cluster_eigenvalues(values)
        assert groups == ref_groups
        assert np.array(distinct).tobytes() == np.array(ref_distinct).tobytes()


class TestSelfAdjointness:
    def test_is_selfadjoint_wrt_a_gram_matrix(self):
        ip = InnerProduct(VectorSpace(2), np.diag([1.0, 4.0]))
        f = np.array([[1.0, 4.0], [1.0, 2.0]])  # G f is symmetric
        assert is_selfadjoint(f, ip)
        assert not is_selfadjoint(f.T, ip)
        with pytest.raises(NonFiniteError):
            is_selfadjoint(np.full((2, 2), np.nan), ip)
        assert is_selfadjoint(np.zeros((2, 2)), ip)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_before_any_arithmetic(self, bad):
        f = np.eye(2)
        f[0, 1] = bad
        ip = InnerProduct(VectorSpace(2), np.diag([1.0, 4.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=re.escape("first at (0, 1)")):
                is_selfadjoint(f, ip)
            with pytest.raises(NonFiniteError, match=re.escape("first at (0, 1)")):
                is_dirac_selfadjoint(f, minkowski_structure(1, 1))


class TestRelativeIsometry:
    # From rapidity ~355 the unscaled product f# f overflows; boost entries
    # stay finite up to ~710.
    @settings(max_examples=60, deadline=None)
    @given(rapidity=st.floats(0.0, 709.0), dim=st.integers(2, 6))
    def test_boosts_are_pseudo_orthogonal_at_any_rapidity(self, rapidity, dim):
        boost = lorentz_boost(rapidity, dim=dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_pseudo_orthogonal(boost, minkowski_structure(1, dim - 1))
            if rapidity >= 1e-3:
                assert not is_orthogonal(boost)

    @pytest.mark.parametrize("rapidity", [356.0, 400.0, 700.0, 709.0])
    def test_boosts_past_the_overflow_of_f_sharp_f(self, rapidity):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_pseudo_orthogonal(lorentz_boost(rapidity, dim=4), minkowski_structure(1, 3))

    def test_non_members_still_rejected(self):
        ms = minkowski_structure(1, 3)
        shear = np.eye(4)
        shear[0, 1] = 1e-6
        for f in (2.0 * np.eye(4), shear):
            assert not is_pseudo_orthogonal(f, ms)
            assert not is_pseudo_unitary(f, ms)
            assert not is_orthogonal(f)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 5),
        field=st.sampled_from(["real", "complex"]),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_non_finite_rejected_before_any_arithmetic(self, n, field, bad, seed, data):
        f = random_unitary(np.random.default_rng(seed), n, field)
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        f[i, j] = bad
        space = VectorSpace(n, field)
        ms = minkowski_structure(1, n - 1, field)
        calls = [
            policy.unit,
            lambda f: is_unitary_wrt(f, standard_inner_product(space)),
            lambda f: is_pseudo_unitary(f, ms),
            classify,
            lambda f: metric_structure_from(np.eye(n, dtype=f.dtype), f),
        ]
        if field == "real":
            calls += [is_orthogonal, lambda f: is_pseudo_orthogonal(f, ms)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(NonFiniteError, match=re.escape(f"first at {(i, j)}")):
                    call(f)

    def test_classify_rejects_non_finite_input(self):
        with pytest.raises(NonFiniteError, match=re.escape("first at (0, 1)")):
            classify(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_is_orthogonal_scalar_is_shape_error(self):
        with pytest.raises(ShapeError):
            is_orthogonal(np.float64(1.0))


class TestIsometryAtEveryPowerOfTwo:
    """``2^k f`` of an exact member f is a member exactly at ``k = 0``.

    Every public isometry decision scales its input once, by
    :func:`policy.unit`, so ``2^k f`` reaches the rule as the matrix of f
    with its scale multiplied by ``2^k``.  The range covers a subnormal
    ``2^k f``, the ``2**-511`` clamp of the scale, the scales whose
    ``scale**-2`` underflows, and entries that overflow to infinity,
    which are rejected as non-finite input.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 6),
        field=st.sampled_from(["real", "complex"]),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(-1070, 1020),
    )
    @example(n=4, field="complex", seed=0, k=0)
    @example(n=4, field="complex", seed=0, k=-1070)
    @example(n=4, field="real", seed=1, k=-1022)
    @example(n=4, field="complex", seed=2, k=-512)
    @example(n=4, field="real", seed=3, k=-511)
    @example(n=4, field="complex", seed=4, k=-1)
    @example(n=4, field="real", seed=5, k=1)
    @example(n=4, field="complex", seed=6, k=511)
    @example(n=4, field="real", seed=7, k=512)
    @example(n=4, field="complex", seed=8, k=1020)
    def test_members_hold_only_at_their_own_scale(self, n, field, seed, k):
        rng = np.random.default_rng(seed)
        v = random_unitary(rng, n, field)
        g = (v * np.geomspace(1.0, 1e6, n)) @ hermitian_conjugate(v)
        ip = InnerProduct(VectorSpace(n, field), (g + hermitian_conjugate(g)) / 2.0)
        u = ip.frame @ random_unitary(rng, n, field) @ ip.frame_inv
        b_inv = lorentz_boost(-2.0, n).astype(v.dtype)  # the canonical frame is the boost at 2
        ms = metric_structure_from(b_inv.T @ b_inv, b_inv.T @ np.diag([1.0] + [-1.0] * (n - 1)) @ b_inv)
        p = ms.frame.basis.matrix @ random_pseudo_unitary(rng, *ms.signature, field) @ ms.frame.basis.inverse
        q = random_unitary(rng, n, "real")
        c = math.ldexp(1.0, k)
        with np.errstate(over="ignore", under="ignore"):
            scaled = [c * u, c * p, c * q]
        decisions = [lambda f: is_unitary_wrt(f, ip), lambda f: is_pseudo_unitary(f, ms),
                     lambda f: "unitary" in classify(f)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f, decide in zip(scaled, decisions):
                if np.isfinite(f).all():
                    assert decide(f) == (k == 0)
                else:
                    with pytest.raises(NonFiniteError):
                        decide(f)


def _production_modules():
    return sorted(p for p in SRC.glob("*.py") if p.name != "policy.py")


def _registry_node(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "REGISTRY" for t in node.targets
        ):
            return node
    return None


def _sites(matches, paths=None):
    """``module:function`` of every node of a production module for which ``matches`` holds.

    ``paths`` are the modules searched, by default every one but :mod:`kreinalg.policy`.
    """
    sites = []
    for path in paths or _production_modules():
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):  # breadth first: inner functions overwrite outer
            if isinstance(fn, ast.FunctionDef):
                owner.update((id(node), fn.name) for node in ast.walk(fn))
        sites += [f"{path.name}:{owner.get(id(node), '<module>')}" for node in ast.walk(tree) if matches(node)]
    return sorted(sites)


def _call_sites(names, paths=None):
    """``module:function`` of every call, in a production module, to a function in ``names``."""
    return _sites(lambda node: isinstance(node, ast.Call) and not names.isdisjoint(
        (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ), paths)


class TestPolicyGuard:
    def test_tolerance_literals_live_in_policy(self):
        offenders = []
        for path in _production_modules():
            tree = ast.parse(path.read_text())
            registry = _registry_node(tree) if path.name == "lemmas.py" else None
            allowed = {id(n) for n in ast.walk(registry)} if registry else set()
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, float)
                    and 0.0 < node.value <= 1e-6
                    and id(node) not in allowed
                ):
                    offenders.append(f"{path.name}:{node.lineno} {node.value!r}")
        assert not offenders

    def test_only_the_runner_loops_over_fields(self):
        # A lemma check answers for one field; the runner's _run_share alone
        # reads _FIELDS, loops over it and reduces the residuals.
        tree = ast.parse((SRC / "lemmas.py").read_text())
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                owner.update((id(node), fn.name) for node in ast.walk(fn))
        readers = sorted(
            owner.get(id(node), "<module>")
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "_FIELDS" and isinstance(node.ctx, ast.Load)
        )
        assert readers == ["_run_share"]

    def test_every_check_takes_one_field(self):
        from kreinalg.lemmas import REGISTRY

        signatures = {lemma.lemma_id: list(inspect.signature(lemma.check).parameters)
                      for lemma in REGISTRY}
        assert {k: v for k, v in signatures.items() if v != ["rng", "n", "field"]} == {}

    def test_checked_entry_points_are_not_reentered(self):
        # Each public entry point decides its properties once and hands the
        # checked arrays to private kernels; only the front ends call the
        # public checks and decompositions.
        checked = {
            "is_selfadjoint", "is_unitary_wrt", "is_dirac_selfadjoint", "is_pseudo_unitary",
            "spectral_representation", "g_selfadjoint_eigen",
        }
        sites = _call_sites(checked)
        assert sites and {site.split(":")[0] for site in sites} <= {"cli.py", "lemmas.py"}

    def test_package_binds_layer_names_only_through_their_all(self):
        # Each layer's __all__ is the one declaration of what the package
        # exports: __init__ imports modules only, never a named symbol of a
        # layer, and spells none of the layers' public names.
        tree = ast.parse((SRC / "__init__.py").read_text())
        imports = [
            (node.level, node.module, [alias.name for alias in node.names])
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        ]
        assert imports == [(1, None, ["errors"])]
        layers = ["errors", "matrices", "spaces", "tensors", "eigen", "unitary", "indefinite"]
        exported = {name for layer in layers for name in getattr(kreinalg, layer).__all__}
        spelled = {getattr(node, "id", None) for node in ast.walk(tree)}
        spelled |= {getattr(node, "attr", None) for node in ast.walk(tree)}
        spelled |= {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
        assert not spelled & exported

    def test_objects_are_built_by_their_constructors(self):
        # The two back doors: a bare H-form's inner product, cached from K's
        # eigenpairs, and a canonical frame, whose inverse is known in closed form.
        assert _call_sites({"__new__"}) == [
            "indefinite.py:compatible_structure_from_hform", "spaces.py:_with_inverse",
        ]
        # Each construction solves its Hermitian eigenproblem where the result is
        # consumed; every spectral decomposition goes through the one kernel.
        assert _call_sites({"_eigh"}) == [
            "eigen.py:_eigenpairs", "indefinite.py:_structure_on",
            "indefinite.py:compatible_structure_from_hform", "unitary.py:__init__",
        ]

    def test_only_the_natural_frame_formulas_read_the_inverse_gram(self):
        # Every operator property is decided in a frame, on the plain identity
        # it satisfies there.  G^{-1} enters only the public natural-frame
        # formulas and the metric operator h = G^{-1} K, so no decision can
        # bring back a natural-frame sharp.
        reads = _sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "gram_inv"
                       and isinstance(node.ctx, ast.Load))
        assert reads == ["indefinite.py:_structure_on", "unitary.py:adjoint", "unitary.py:riesz_inverse"]

    def test_in_place_tolerance_reads_are_the_three_named_sites(self):
        # The module docstring of policy names the three decisions that compare
        # against one of its tolerances in place; every other one asks a rule.
        reads = _sites(lambda node: isinstance(node, (ast.Attribute, ast.Name))
                       and isinstance(node.ctx, ast.Load)
                       and re.fullmatch(r"(\w+_)?TOL", getattr(node, "attr", getattr(node, "id", ""))))
        assert reads == [
            "eigen.py:_clusters", "eigen.py:jacobi_hermitian", "unitary.py:orthonormalize",
        ]

    def test_rules_do_not_scale(self):
        # Each input is scaled once, where it enters: the rules decide plain
        # identities on the matrices of policy.unit and choose no scale.
        scalings = {"scale_of", "unit", "scale_free_norm",
                    "_scale_exponent", "ldexp", "frexp"}
        tree = ast.parse((SRC / "policy.py").read_text())
        rules = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
                 and fn.name in {"selfadjoint", "isometric", "involutory", "clears_form_floor"}}
        assert len(rules) == 4
        calls = {
            name: sorted({getattr(node.func, "id", getattr(node.func, "attr", None))
                          for node in ast.walk(fn) if isinstance(node, ast.Call)} & scalings)
            for name, fn in rules.items()
        }
        assert calls == dict.fromkeys(rules, [])

    def test_inputs_are_scaled_where_they_enter(self):
        assert _call_sites({"unit", "scale_of"}) == [
            "eigen.py:_clusters", "eigen.py:_hermitian_form",
            "eigen.py:characteristic_polynomial", "eigen.py:charpoly_eigenvalues",
            "eigen.py:jacobi_hermitian",
            "indefinite.py:is_orthogonal", "matrices.py:classify", "matrices.py:determinant",
            "matrices.py:determinant_permutation_sum", "spaces.py:_inverse",
            "spaces.py:canonical_form_bases", "unitary.py:_in_frame",
        ]
        assert _call_sites({"ldexp", "frexp"}) == []

    def test_non_finite_input_is_rejected_in_one_place(self):
        # policy.unit scales every input where it enters and is the one place
        # that rejects a non-finite one, so every entry point answers it alike.
        assert _call_sites({"NonFiniteError"}, sorted(SRC.glob("*.py"))) == ["policy.py:unit"]

    def test_one_rank_rule(self):
        # Singular values are computed only by the two entries of the rank rule
        # (policy.singular_rank) and by the canonical form, which needs the
        # vectors too and counts by the same rule.  The one nonsingularity gate,
        # spaces._inverse, guards every LU inverse of an input.
        assert _call_sites({"svd"}, sorted(SRC.glob("*.py"))) == [
            "policy.py:numerical_rank", "policy.py:rank_deficient", "spaces.py:canonical_form_bases",
        ]
        assert _call_sites({"_inverse"}) == [
            "indefinite.py:inverse", "spaces.py:__init__", "tensors.py:transform_tensor",
        ]

    def test_one_spectral_kernel(self):
        # The Hermitian, G-selfadjoint and Dirac eigenproblems all reach the seam's
        # eigenpairs through eigen_hermitian or the one frame kernel of unitary.
        assert _call_sites({"_eigenpairs"}) == ["eigen.py:eigen_hermitian", "unitary.py:_selfadjoint_eigenpairs"]

    def test_no_dense_diagonal_products(self):
        # U diag(x) V^+ is the broadcast (U * x) @ V^+: no O(n^3) product with a diagonal matrix.
        def is_diag(node):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "astype":
                node = node.func.value
            return (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "diag"
                    and getattr(node.func.value, "id", None) == "np")

        assert _sites(lambda node: isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                      and (is_diag(node.left) or is_diag(node.right)), sorted(SRC.glob("*.py"))) == []

    def test_eigensolver_call_sites(self):
        lapack = _call_sites({"eigh", "eigvalsh", "eig", "eigvals"})
        assert lapack == ["eigen.py:_eigh"]
        # The lemma suite keeps Jacobi as an independent oracle; nothing else calls it.
        jacobi = _call_sites({"jacobi_hermitian"})
        assert jacobi and all(site.startswith("lemmas.py:") for site in jacobi)


def _gfm_cells(row):
    """The cells of a GitHub-flavoured Markdown table row.

    GFM splits a row on every pipe that no backslash escapes, inside code
    spans too; the pipes at either end of the row only delimit it.
    """
    body = row.strip().removeprefix("|")
    if body.endswith("|") and not body.endswith("\\|"):
        body = body[:-1]
    return re.split(r"(?<!\\)\|", body)


class TestToleranceTable:
    def test_every_row_has_the_header_cell_count(self):
        section = README.read_text().split("\n## Tolerances\n")[1].split("\n## ")[0]
        rows = [line for line in section.splitlines() if line.startswith("|")]
        width = len(_gfm_cells(rows[0]))
        assert len(rows) > 2 and width == 4
        assert [row[:60] for row in rows if len(_gfm_cells(row)) != width] == []
