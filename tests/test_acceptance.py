"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and never loosened at run time; the
random instances are seeded, so the suite is reproducible.
"""

import json
import time

import numpy as np

from kreinalg import (
    InnerProduct,
    Tensor,
    UP,
    VectorSpace,
    canonical_projectors,
    compatible_structure_from_hform,
    determinant,
    determinant_permutation_sum,
    dirac_adjoint_operator,
    dirac_spectral,
    dual_basis,
    eigen_hermitian,
    h_orthonormal_basis,
    hermitian_conjugate,
    hform_value,
    inner_product,
    is_orthogonal,
    is_pseudo_orthogonal,
    is_pseudo_unitary,
    kron_flatten,
    kronecker_product,
    metric_structure_from,
    minkowski_structure,
    norm,
    rep_covector,
    rep_vector,
    represent_map,
    spectral_representation,
    tensor_from_ket,
    tensor_product,
    transform_tensor,
)
from kreinalg.eigen import charpoly_eigenvalues, jacobi_hermitian
from kreinalg.generators import (
    lorentz_boost,
    random_basis,
    random_dirac_selfadjoint,
    random_g_selfadjoint,
    random_invertible,
    random_ket,
    random_matrix,
    random_nondegenerate_hform,
    random_positive_definite,
    random_pseudo_unitary,
    random_tensor,
)
FIELDS = ("real", "complex")


def report(number, label, worst, bound, extra=""):
    status = "PASS" if worst <= bound else "FAIL"
    print(f"{status} criterion {number}: {label} (worst {worst:.3e} <= {bound:.1e}{extra})")
    assert worst <= bound, f"criterion {number} failed: {worst} > {bound}"


def test_criterion_1_determinant_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst_oracle = 0.0
    worst_product = 0.0
    for i in range(500):
        n = int(rng.integers(1, 7))
        field = FIELDS[i % 2]
        a = random_invertible(rng, n, field)
        lu = determinant(a)
        perm = determinant_permutation_sum(a)
        worst_oracle = max(worst_oracle, abs(lu - perm) / abs(perm))
        b = random_invertible(rng, n, field)
        prod = determinant(a @ b)
        worst_product = max(worst_product, abs(prod - lu * determinant(b)) / abs(prod))
    elapsed = time.perf_counter() - t0
    report(1, "LU vs permutation-sum determinant, 500 instances", worst_oracle, 1e-10,
           extra=f", {elapsed:.1f}s")
    report(1, "det(AB) = det(A) det(B)", worst_product, 1e-9)
    assert elapsed < 10.0


def test_criterion_2_duality_suite():
    rng = np.random.default_rng(1002)
    worst_dual = 0.0
    worst_pairing = 0.0
    worst_functorial = 0.0
    for i in range(500):
        n = int(rng.integers(1, 9))
        field = FIELDS[i % 2]
        space = VectorSpace(n, field, "V")
        basis = random_basis(rng, space)
        worst_dual = max(
            worst_dual, float(np.linalg.norm(dual_basis(basis) @ basis.matrix - np.eye(n)))
        )
        x = random_matrix(rng, n, 1, field)
        y = random_matrix(rng, 1, n, field)
        natural = (y @ x)[0, 0]
        represented = rep_covector(y, basis).pair(rep_vector(x, basis))
        worst_pairing = max(worst_pairing, abs(natural - represented))
    for i in range(100):
        n = int(rng.integers(1, 9))
        field = FIELDS[i % 2]
        space = VectorSpace(n, field, "V")
        basis = random_basis(rng, space)
        f = random_invertible(rng, n, field)
        g = random_invertible(rng, n, field)
        lhs = represent_map(f @ g, basis, basis).matrix
        rhs = represent_map(f, basis, basis).matrix @ represent_map(g, basis, basis).matrix
        worst_functorial = max(worst_functorial, float(np.linalg.norm(lhs - rhs)) / max(1.0, float(np.linalg.norm(rhs))))
        lhs_inv = represent_map(np.linalg.inv(f), basis, basis).matrix
        rhs_inv = np.linalg.inv(represent_map(f, basis, basis).matrix)
        worst_functorial = max(worst_functorial, float(np.linalg.norm(lhs_inv - rhs_inv)) / max(1.0, float(np.linalg.norm(rhs_inv))))
    report(2, "dual basis times basis is the identity", worst_dual, 1e-10)
    report(2, "dual-form invariance, 500 basis changes", worst_pairing, 1e-10)
    report(2, "representation functoriality (composition, inverse)", worst_functorial, 1e-9)


def test_criterion_3_tensor_suite():
    rng = np.random.default_rng(1003)
    worst_multi = 0.0
    exact_failures = 0
    worst_commute = 0.0
    for i in range(100):
        n = int(rng.integers(1, 6))
        field = FIELDS[i % 2]
        space = VectorSpace(n, field, "V")
        x = random_tensor(rng, space, (UP,))
        x2 = random_tensor(rng, space, (UP,))
        y = random_tensor(rng, space, (UP, "down"))
        alpha, beta = rng.uniform(-1, 1, size=2)
        combo = Tensor(space, (UP,), alpha * x.components + beta * x2.components)
        lhs = tensor_product(combo, y).components
        rhs = alpha * tensor_product(x, y).components + beta * tensor_product(x2, y).components
        worst_multi = max(worst_multi, float(np.max(np.abs(lhs - rhs))))

        ints = [
            Tensor(space, (tag,), rng.integers(-4, 5, size=n).astype(float))
            for tag in (UP, "down", UP)
        ]
        assoc_l = tensor_product(tensor_product(ints[0], ints[1]), ints[2])
        assoc_r = tensor_product(ints[0], tensor_product(ints[1], ints[2]))
        if not np.array_equal(assoc_l.components, assoc_r.components):
            exact_failures += 1

        t = random_tensor(rng, space, (UP, UP, "down"))
        m = random_invertible(rng, n, field)
        commute_l = contracted(transform_tensor(t, m))
        commute_r = transform_tensor(contracted(t), m)
        worst_commute = max(worst_commute, float(np.max(np.abs(commute_l.components - commute_r.components))))
    for i in range(200):
        n = int(rng.integers(1, 6))
        field = FIELDS[i % 2]
        space = VectorSpace(n, field, "V")
        x = random_ket(rng, n, field)
        y = random_ket(rng, n, field)
        flat = kron_flatten(tensor_product(tensor_from_ket(space, x), tensor_from_ket(space, y)))
        if not np.array_equal(flat, kronecker_product(x, y)):
            exact_failures += 1
    report(3, "tensor multilinearity", worst_multi, 1e-12)
    report(3, "associativity and kron-flatten, exact instances", float(exact_failures), 0.0)
    report(3, "contraction commutes with transformation", worst_commute, 1e-10)


def contracted(t):
    from kreinalg import contract

    return contract(t, 1, 3)


def test_criterion_4_cauchy_schwarz():
    rng = np.random.default_rng(1004)
    worst_margin = 0.0
    worst_equality = 0.0
    for i in range(5000):
        n = int(rng.integers(1, 7))
        field = FIELDS[i % 2]
        space = VectorSpace(n, field, "V")
        ip = InnerProduct(space, random_positive_definite(rng, n, field))
        x = random_ket(rng, n, field)
        y = random_ket(rng, n, field)
        margin = abs(inner_product(x, y, ip)) - norm(x, ip) * norm(y, ip)
        worst_margin = max(worst_margin, margin)
        if i % 10 == 0:
            alpha = complex(*rng.uniform(-1, 1, 2)) if field == "complex" else float(rng.uniform(-1, 1))
            y_aligned = alpha * x
            gap = abs(abs(inner_product(x, y_aligned, ip)) - norm(x, ip) * norm(y_aligned, ip))
            worst_equality = max(worst_equality, gap)
    report(4, "Cauchy-Schwarz margin over 5000 pairs", worst_margin, 1e-12)
    report(4, "equality for aligned pairs", worst_equality, 1e-9)


def test_criterion_5_spectral_theorem():
    rng = np.random.default_rng(1005)
    t0 = time.perf_counter()
    worst_imag = 0.0
    worst_cross = 0.0
    worst_projector = 0.0
    worst_reconstruct = 0.0
    worst_oracle = 0.0
    for field in FIELDS:
        for i in range(200):
            n = int(rng.integers(1, 13))
            space = VectorSpace(n, field, "V")
            ip = InnerProduct(space, random_positive_definite(rng, n, field))
            f = random_g_selfadjoint(rng, ip)

            work = ip.frame_inv @ f @ ip.frame
            diag, vectors, _ = jacobi_hermitian(work)
            worst_imag = max(worst_imag, float(np.max(np.abs(diag.imag))))

            columns = ip.frame @ vectors
            gram = hermitian_conjugate(columns) @ ip.gram @ columns
            off = np.abs(gram - np.eye(n))
            worst_cross = max(worst_cross, float(np.max(off)))

            dec = spectral_representation(f, ip)
            total = np.zeros((n, n), dtype=dec.projectors[0].dtype)
            for a, p in enumerate(dec.projectors):
                total = total + p
                for b, q in enumerate(dec.projectors):
                    expected = p if a == b else 0.0
                    worst_projector = max(
                        worst_projector, float(np.linalg.norm(p @ q - expected))
                    )
            worst_projector = max(worst_projector, float(np.linalg.norm(total - np.eye(n))))
            scale = max(1.0, float(np.linalg.norm(f)))
            worst_reconstruct = max(
                worst_reconstruct, float(np.linalg.norm(f - dec.reconstruct())) / scale
            )

            if n <= 6:
                mine = np.repeat(dec.eigenvalues, dec.multiplicities)
                oracle = np.sort(charpoly_eigenvalues(work).real)[::-1]
                worst_oracle = max(worst_oracle, float(np.max(np.abs(mine - oracle))))
    elapsed = time.perf_counter() - t0
    report(5, "eigenvalue imaginary parts", worst_imag, 1e-10, extra=f", {elapsed:.1f}s")
    report(5, "cross-eigenspace inner products", worst_cross, 1e-9)
    report(5, "projector orthogonality and completeness", worst_projector, 1e-9)
    report(5, "spectral reconstruction", worst_reconstruct, 1e-9)
    report(5, "eigenvalues vs char-poly oracle (n <= 6)", worst_oracle, 1e-8)
    assert elapsed < 30.0


def test_criterion_6_indefinite_suite():
    rng = np.random.default_rng(1006)
    worst_involution = 0.0
    signature_flips = 0
    worst_canonical = 0.0
    worst_split = 0.0
    for i in range(200):
        n = int(rng.integers(2, 9))
        field = FIELDS[i % 2]
        k = random_nondegenerate_hform(rng, n, field)
        ms = compatible_structure_from_hform(k)
        worst_involution = max(
            worst_involution, float(np.linalg.norm(ms.h @ ms.h - np.eye(n)))
        )
        for _ in range(50):
            b = random_invertible(rng, n, field)
            congruent = hermitian_conjugate(b) @ k @ b
            diag, _, _ = jacobi_hermitian((congruent + hermitian_conjugate(congruent)) / 2.0)
            n_plus = int(np.sum(diag.real > 0))
            if (n_plus, n - n_plus) != ms.signature:
                signature_flips += 1
        hb = h_orthonormal_basis(ms)
        eta = np.diag(np.asarray(hb.eta_diag, dtype=float))
        worst_canonical = max(
            worst_canonical,
            float(np.linalg.norm(hermitian_conjugate(hb.basis.matrix) @ k @ hb.basis.matrix - eta)),
        )
        p_plus, p_minus = canonical_projectors(ms)
        x = random_ket(rng, n, field)
        y = random_ket(rng, n, field)
        split = inner_product(x, ms.h @ y, ms.ip)
        direct = hform_value(x, y, ms)
        worst_split = max(worst_split, abs(direct - split))
        parts = hform_value(x, p_plus @ y, ms) - hform_value(x, p_minus @ y, ms)
        worst_split = max(worst_split, abs(inner_product(x, y, ms.ip) - parts))
    report(6, "metric involution h@h = 1, 200 forms", worst_involution, 1e-9)
    report(6, "signature invariance, 50 congruences each", float(signature_flips), 0.0)
    report(6, "canonical congruence B+KB = diag(+-1)", worst_canonical, 1e-9)
    report(6, "projector split of the form", worst_split, 1e-10)


def test_criterion_7_dirac_suite():
    rng = np.random.default_rng(1007)
    worst_canonical = 0.0
    worst_rules = 0.0
    worst_reconstruct = 0.0
    for i in range(200):
        n = int(rng.integers(1, 9))
        field = FIELDS[i % 2]
        ms = compatible_structure_from_hform(random_nondegenerate_hform(rng, n, field))
        hb = h_orthonormal_basis(ms)
        eta = np.diag(np.asarray(hb.eta_diag, dtype=float))
        f = random_matrix(rng, n, n, field)
        g = random_matrix(rng, n, n, field)
        rep_f = hb.basis.inverse @ f @ hb.basis.matrix
        rep_conj = hb.basis.inverse @ dirac_adjoint_operator(f, ms) @ hb.basis.matrix
        expected = eta.astype(rep_f.dtype) @ hermitian_conjugate(rep_f) @ eta.astype(rep_f.dtype)
        worst_canonical = max(
            worst_canonical,
            float(np.linalg.norm(rep_conj - expected)) / max(1.0, float(np.linalg.norm(rep_f))),
        )
        twice = dirac_adjoint_operator(dirac_adjoint_operator(f, ms), ms)
        worst_rules = max(worst_rules, float(np.linalg.norm(twice - f)) / max(1.0, float(np.linalg.norm(f))))
        reversal = dirac_adjoint_operator(f @ g, ms) - dirac_adjoint_operator(g, ms) @ dirac_adjoint_operator(f, ms)
        worst_rules = max(worst_rules, float(np.linalg.norm(reversal)))
        fd = random_dirac_selfadjoint(rng, ms)
        dec = dirac_spectral(fd, ms)
        worst_reconstruct = max(
            worst_reconstruct,
            float(np.linalg.norm(fd - dec.reconstruct())) / max(1.0, float(np.linalg.norm(fd))),
        )
    worst_degenerate = 0.0
    for field in FIELDS:
        n = 5
        eye = np.eye(n, dtype=np.complex128 if field == "complex" else np.float64)
        ms = metric_structure_from(eye, eye)
        f = random_matrix(rng, n, n, field)
        h = f + hermitian_conjugate(f)
        worst_degenerate = max(
            worst_degenerate,
            float(np.linalg.norm(dirac_adjoint_operator(f, ms) - hermitian_conjugate(f))),
        )
        dirac = dirac_spectral(h, ms)
        plain = eigen_hermitian(h)
        worst_degenerate = max(
            worst_degenerate,
            float(np.max(np.abs(np.array(dirac.eigenvalues) - np.array(plain.eigenvalues)))),
        )
        for a, b in zip(dirac.projectors, plain.projectors):
            worst_degenerate = max(worst_degenerate, float(np.linalg.norm(a - b)))
    report(7, "Dirac adjoint matrix rule in canonical bases", worst_canonical, 1e-10)
    report(7, "Dirac involution and product reversal", worst_rules, 1e-10)
    report(7, "Dirac-spectral reconstruction, 200 operators", worst_reconstruct, 1e-9)
    report(7, "metric = identity degenerates to Hermitian machinery", worst_degenerate, 1e-12)


def test_criterion_8_group_membership():
    rng = np.random.default_rng(1008)
    worst_closure = 0.0
    worst_det = 0.0
    for i in range(50):
        n_plus = int(rng.integers(1, 4))
        n_minus = int(rng.integers(0, 4))
        field = FIELDS[i % 2]
        ms = minkowski_structure(n_plus, n_minus, field=field)
        eye = np.eye(n_plus + n_minus)
        product = eye.astype(np.complex128 if field == "complex" else np.float64)
        for _ in range(10):
            product = product @ random_pseudo_unitary(rng, n_plus, n_minus, field)
        conj = dirac_adjoint_operator(product, ms)
        worst_closure = max(worst_closure, float(np.linalg.norm(conj @ product - eye)))
        inverse = np.linalg.inv(product)
        conj_inv = dirac_adjoint_operator(inverse, ms)
        worst_closure = max(worst_closure, float(np.linalg.norm(conj_inv @ inverse - eye)))
        assert is_pseudo_unitary(product, ms)

        if n_minus == 0:
            if field == "complex":
                worst_det = max(worst_det, abs(abs(determinant(product)) - 1.0))
            else:
                d = determinant(product)
                worst_det = max(worst_det, min(abs(d - 1.0), abs(d + 1.0)))
    for rapidity in (0.3, -1.2, 2.0):
        assert is_pseudo_orthogonal(lorentz_boost(rapidity), minkowski_structure(1, 1))
        assert is_pseudo_orthogonal(lorentz_boost(rapidity, dim=4), minkowski_structure(1, 3))
        assert not is_orthogonal(lorentz_boost(rapidity))
    report(8, "pseudo-unitary closure after 10 compositions", worst_closure, 1e-8)
    report(8, "unitary/orthogonal determinant values", worst_det, 1e-9)
    print("PASS criterion 8: Lorentz boosts are pseudo-orthogonal for diag(1,-1) and diag(1,-1,-1,-1)")


def test_criterion_9_cli(capsys):
    import test_cli

    failures = 0
    for name, argv in test_cli.GOLDEN_CASES.items():
        code = test_cli.main(list(argv))
        out = capsys.readouterr().out
        if code != 0 or test_cli.golden_differences(name, out):
            failures += 1
    covered = {argv[0] for argv in test_cli.GOLDEN_CASES.values()}
    assert covered == set(test_cli.SUBCOMMANDS)

    verify_argv = ["verify", "--seed", "42", "--dims", "2,3", "--instances", "2"]
    code1 = test_cli.main(list(verify_argv))
    out1 = capsys.readouterr().out
    code2 = test_cli.main(list(verify_argv))
    out2 = capsys.readouterr().out
    deterministic = code1 == code2 == 0 and out1 == out2
    all_pass = json.loads(out1)["status"] == "pass"

    neg_ok = True
    neg_ok &= test_cli.main(["eig", "--in", test_cli.inpath("a22.json")]) == 1
    capsys.readouterr()
    neg_ok &= (
        test_cli.main(
            ["signature", "--gram", test_cli.inpath("eye2.json"),
             "--hform", test_cli.inpath("k_incompat.json")]
        )
        == 1
    )
    capsys.readouterr()
    neg_ok &= test_cli.main(["det", "--in", test_cli.inpath("malformed.json")]) == 1
    capsys.readouterr()
    neg_ok &= test_cli.main(["nonsense"]) == 2
    capsys.readouterr()

    with capsys.disabled():
        status = "PASS" if (failures == 0 and deterministic and all_pass and neg_ok) else "FAIL"
        print(f"\n{status} criterion 9: CLI golden files ({len(test_cli.GOLDEN_CASES)} cases), "
              f"byte-deterministic verify, negative-control exit codes")
    assert failures == 0
    assert deterministic and all_pass
    assert neg_ok
