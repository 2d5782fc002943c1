import argparse
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import kreinalg
from kreinalg import InnerProduct, VectorSpace, cli, hermitian_conjugate
from kreinalg.cli import CHECK_KINDS, OPERATION_COVERAGE, SUBCOMMANDS, main
from kreinalg.generators import random_g_selfadjoint, random_positive_definite, random_unitary
from kreinalg.io import serialize_matrix_document

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def inpath(name: str) -> str:
    return str(GOLDEN / "in" / name)


GOLDEN_CASES = {
    "det.txt": ["det", "--in", inpath("a22.json")],
    "eig.txt": ["eig", "--in", inpath("herm3.json")],
    "eig_complex.txt": ["eig", "--in", inpath("pauli_y.json")],
    "spectral.txt": ["spectral", "--in", inpath("fdiag.json"), "--gram", inpath("gram2.json")],
    "spectral_dirac.txt": ["spectral", "--in", inpath("fdirac.json"), "--hform", inpath("eta2.json")],
    "adjoint.txt": ["adjoint", "--in", inpath("a22.json"), "--gram", inpath("gram2.json")],
    "dirac_adjoint_ket.txt": ["dirac-adjoint", "--in", inpath("ket2.json"), "--hform", inpath("eta2.json")],
    "dirac_adjoint_op.txt": ["dirac-adjoint", "--in", inpath("a22.json"), "--hform", inpath("eta2.json")],
    "signature.txt": ["signature", "--hform", inpath("mink4.json")],
    "canonical_basis.txt": ["canonical-basis", "--hform", inpath("swap.json")],
    "projectors.txt": ["projectors", "--hform", inpath("eta2.json")],
    "tensor_product.txt": ["tensor-product", "--in", inpath("ket2.json"), "--in", inpath("ket2.json")],
    "contract.txt": ["contract", "--in", inpath("a22.json")],
    "kron.txt": ["kron", "--in", inpath("a22.json"), "--in", inpath("swap.json")],
    "change_basis.txt": [
        "change-basis",
        "--in", inpath("eye2.json"),
        "--in", inpath("b_new.json"),
        "--in", inpath("a22.json"),
    ],
    "check_pseudo_orthogonal.txt": [
        "check", "--kind", "pseudo-orthogonal",
        "--in", inpath("boost.json"), "--hform", inpath("eta2.json"),
    ],
    "check_hermitian.txt": ["check", "--kind", "hermitian", "--in", inpath("pauli_y.json")],
    "verify.txt": ["verify", "--seed", "7", "--dims", "2", "--instances", "1"],
    # The default suite (dims 1-6, 5 instances), as `kreinalg verify` runs it.
    "verify_default.txt": ["verify", "--seed", "42"],
}


# Residuals of lemmas with a non-zero tolerance come from LAPACK/BLAS calls
# (inv, qr, matmul), whose last-ulp rounding depends on the numpy build, so
# across builds they may drift this far (~7.1e-15) from the pinned value.
# The smallest non-zero lemma tolerance (1e-12) is ~140 times larger, and a
# residual that leaves round-off level (1e-13, say) still fails.
VERIFY_RESIDUAL_DRIFT = 32 * np.finfo(np.float64).eps

VERIFY_EXACT_KEYS = ("seed", "dims", "instances", "status")
REPORT_EXACT_KEYS = ("lemma_id", "instances", "tolerance", "status", "seed")


def golden_differences(name: str, out: str) -> list:
    """How ``out`` departs from the golden file ``name``; empty if it matches.

    Every case is compared byte for byte except the ``verify*`` cases.
    There the mathematically unique fields and the exact (tolerance 0)
    residuals must match exactly, and every other residual within
    VERIFY_RESIDUAL_DRIFT.
    """
    expected = (GOLDEN / "expected" / name).read_text()
    if not name.startswith("verify"):
        return [] if out == expected else [f"{name}: output differs from golden bytes"]
    doc, pinned = json.loads(out), json.loads(expected)
    if out != json.dumps(doc, separators=(",", ":")) + "\n":
        return ["verify output is not compact single-line JSON"]
    if list(doc) != list(pinned):
        return [f"top-level keys {list(doc)} != {list(pinned)}"]
    diffs = [f"{key}: {doc[key]!r} != {pinned[key]!r}"
             for key in VERIFY_EXACT_KEYS if doc[key] != pinned[key]]
    if len(doc["reports"]) != len(pinned["reports"]):
        return diffs + [f"{len(doc['reports'])} reports != {len(pinned['reports'])}"]
    for i, (got, want) in enumerate(zip(doc["reports"], pinned["reports"])):
        where = f"reports[{i}] ({want['lemma_id']})"
        if list(got) != list(want):
            diffs.append(f"{where}: keys {list(got)} != {list(want)}")
            continue
        diffs += [f"{where}.{key}: {got[key]!r} != {want[key]!r}"
                  for key in REPORT_EXACT_KEYS if got[key] != want[key]]
        drift = abs(got["max_error"] - want["max_error"])
        allowed = 0.0 if want["tolerance"] == 0.0 else VERIFY_RESIDUAL_DRIFT
        if not drift <= allowed:
            diffs.append(f"{where}.max_error: {got['max_error']!r} vs pinned "
                         f"{want['max_error']!r}, drift {drift:.3g} > {allowed:.3g}")
    return diffs


class TestGoldenFiles:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_output_matches_golden(self, capsys, name):
        code, out, err = run(capsys, *GOLDEN_CASES[name])
        assert code == 0, err
        assert golden_differences(name, out) == []

    def test_verify_dim_1_passes_every_lemma(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "42", "--dims", "1", "--instances", "5")
        doc = json.loads(out)
        assert [r["lemma_id"] for r in doc["reports"] if r["status"] != "pass"] == []
        assert code == 0 and doc["status"] == "pass"

    def test_every_subcommand_has_a_golden_case(self):
        covered = {argv[0] for argv in GOLDEN_CASES.values()}
        assert covered == set(SUBCOMMANDS)

    def test_golden_values_against_oracles(self):
        # The frozen documents carry independently derivable numbers.
        det = json.loads((GOLDEN / "expected" / "det.txt").read_text())["det"]
        assert det[0] == pytest.approx(-2.0, abs=1e-10) and det[1] == 0.0

        eig = json.loads((GOLDEN / "expected" / "eig.txt").read_text())
        assert eig["eigenvalues"] == pytest.approx([2.0, -1.0], abs=1e-12)
        assert eig["multiplicities"] == [2, 1]

        sig = json.loads((GOLDEN / "expected" / "signature.txt").read_text())
        assert sig == {"n_plus": 1, "n_minus": 3}

        contract = json.loads((GOLDEN / "expected" / "contract.txt").read_text())
        assert contract["result"] == pytest.approx([5.0, 0.0])

        tensor = json.loads((GOLDEN / "expected" / "tensor_product.txt").read_text())
        assert tensor["result"]["data"] == [[1.0], [2.0], [2.0], [4.0]]

        basis = json.loads((GOLDEN / "expected" / "canonical_basis.txt").read_text())
        b = np.array(basis["basis"]["data"])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(b.T @ swap @ b, np.diag([1.0, -1.0]), atol=1e-12)


class TestGoldenComparison:
    """golden_differences must still reject every change it is meant to catch."""

    PINNED = (GOLDEN / "expected" / "verify.txt").read_text()

    def edited(self, report=None, shift=0.0, **changes) -> str:
        """The pinned document with ``changes`` applied to ``report`` (to the
        top level when None) and ``shift`` added to that report's max_error."""
        doc = json.loads(self.PINNED)
        target = doc
        if report is not None:
            target = next(r for r in doc["reports"] if r["lemma_id"] == report)
            target["max_error"] += shift
        target.update(changes)
        return json.dumps(doc, separators=(",", ":")) + "\n"

    def test_pinned_file_matches_itself(self):
        assert golden_differences("verify.txt", self.PINNED) == []

    # -4.7e-16 is the drift seen between two builds (1.227e-15 -> 7.569e-16).
    @pytest.mark.parametrize("shift", [-4.7e-16, VERIFY_RESIDUAL_DRIFT / 2])
    def test_drift_within_bound_is_accepted(self, shift):
        out = self.edited("spectral.basis-independence", shift=shift)
        assert golden_differences("verify.txt", out) == []

    @pytest.mark.parametrize("report,changes", [
        (None, {"status": "fail"}),
        (None, {"seed": 8}),
        ("metric.compatibility", {"status": "fail"}),
        ("metric.compatibility", {"tolerance": 1e-08}),
        ("metric.compatibility", {"lemma_id": "metric.compatible"}),
        ("metric.compatibility", {"instances": 2}),
        ("metric.compatibility", {"shift": 2 * VERIFY_RESIDUAL_DRIFT}),
        ("inner.cauchy-schwarz", {"max_error": 1e-13}),
        ("tensor.kron-flatten", {"max_error": 5e-324}),
    ])
    def test_rejects(self, report, changes):
        assert golden_differences("verify.txt", self.edited(report, **changes)) != []

    def test_rejects_reordered_reports(self):
        doc = json.loads(self.PINNED)
        doc["reports"][0], doc["reports"][1] = doc["reports"][1], doc["reports"][0]
        out = json.dumps(doc, separators=(",", ":")) + "\n"
        assert golden_differences("verify.txt", out) != []

    def test_rejects_layout_change(self):
        assert golden_differences("verify.txt", self.PINNED.replace(",", ", ")) != []

    def test_other_cases_stay_byte_exact(self):
        det = (GOLDEN / "expected" / "det.txt").read_text()
        assert golden_differences("det.txt", det) == []
        assert golden_differences("det.txt", det.replace(",", ", ")) != []


class TestDeterminism:
    def test_verify_is_byte_deterministic(self, capsys):
        argv = ["verify", "--seed", "42", "--dims", "2,3", "--instances", "2"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_verify_passes_all_lemmas(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "42", "--dims", "2,4", "--instances", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "pass"
        assert all(r["status"] == "pass" for r in doc["reports"])
        assert len(doc["reports"]) >= 20

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "det", "--in", inpath("a22.json"), "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == (GOLDEN / "expected" / "det.txt").read_text()


def _n64_documents(directory: pathlib.Path, field: str) -> dict:
    """Seeded n = 64 documents: a Gram matrix G, a G-selfadjoint operator, a compatible K.

    K is ``W^{-+} Q S Q^+ W^{-1}`` for the frame W of G, a unitary Q and a
    sign diagonal S, so ``h = G^{-1} K`` squares to the identity.
    """
    n = 64
    rng = np.random.default_rng(6400 if field == "real" else 6401)
    ip = InnerProduct(VectorSpace(n, field), random_positive_definite(rng, n, field))
    q = random_unitary(rng, n, field)
    signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    k = hermitian_conjugate(ip.frame_inv) @ (q * signs) @ hermitian_conjugate(q) @ ip.frame_inv
    documents = {
        "gram": ip.gram,
        "operator": random_g_selfadjoint(rng, ip),
        "hform": (k + hermitian_conjugate(k)) / 2.0,
    }
    paths = {}
    for name, matrix in documents.items():
        path = directory / f"{name}.json"
        path.write_text(serialize_matrix_document(matrix))
        paths[name] = str(path)
    return paths


class TestBlasThreadDeterminism:
    """Outputs of the frame path have the same bytes under one and two BLAS threads.

    Each run is a fresh interpreter, since OpenBLAS reads its thread count
    at start-up.  Eigenvector bits do differ across thread counts from
    n = 112 up (see the README), so the documents are n = 64.
    """

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("command", ["spectral", "canonical-basis"])
    def test_same_bytes_under_one_and_two_threads(self, tmp_path, command, field):
        docs = _n64_documents(tmp_path, field)
        argv = {
            "spectral": ["spectral", "--in", docs["operator"], "--gram", docs["gram"]],
            "canonical-basis": ["canonical-basis", "--gram", docs["gram"], "--hform", docs["hform"]],
        }[command]
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-m", "kreinalg.cli", *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestErrorPaths:
    def test_non_hermitian_eig_is_domain_error(self, capsys):
        code, out, err = run(capsys, "eig", "--in", inpath("a22.json"))
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "SymmetryError"

    def test_incompatible_pair_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "signature",
            "--gram", inpath("eye2.json"), "--hform", inpath("k_incompat.json"),
        )
        assert code == 1
        assert json.loads(err)["error"] == "CompatibilityError"

    def test_malformed_json_is_domain_error(self, capsys):
        code, _, err = run(capsys, "det", "--in", inpath("malformed.json"))
        assert code == 1
        assert json.loads(err)["error"] == "ParseError"

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run(capsys, "det", "--in", inpath("does_not_exist.json"))
        assert code == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "nonsense")
        assert code == 2

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "det")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--in", "1", "--dims", "1"],  # not --instances
            ["adjoint", "--gr", inpath("gram2.json"), "--in", inpath("a22.json")],  # not --gram
        ],
        ids=["verify-in", "adjoint-gr"],
    )
    def test_abbreviated_option_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert re.search(r"^kreinalg: error: unrecognized arguments: ", err, re.M), err

    def test_bad_dims_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--dims", "0,5")
        assert code == 2

    def test_bad_instances_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--instances", "0")
        assert code == 2

    def test_check_kind_without_hform_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "--kind", "pseudo-unitary", "--in", inpath("eye2.json"))
        assert code == 2
        assert "requires --hform" in err

    def test_extra_in_documents_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "det", "--in", inpath("a22.json"), "--in", inpath("eye2.json"))
        assert code == 2

    def test_unwritable_out_is_io_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.json"
        code, out, err = run(capsys, "det", "--in", inpath("a22.json"), "--out", str(target))
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "IOError"

    # The optional operator document of change-basis.
    OPTIONAL_DOCUMENTS = {"change-basis": 1}

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_wrong_number_of_in_documents_is_usage_error(self, capsys, name):
        argv = next(argv for argv in GOLDEN_CASES.values() if argv[0] == name)
        most = argv.count("--in")
        fewest = most - self.OPTIONAL_DOCUMENTS.get(name, 0)
        flags = [a for i, a in enumerate(argv) if "--in" not in argv[i - 1 : i + 1]]  # no --in
        for count in [most + 1] + ([fewest - 1] if fewest else []):
            code, out, err = run(capsys, *flags, *["--in", inpath("a22.json")] * count)
            assert code == 2, (count, err)
            assert out == ""
            assert re.search(r"^kreinalg( verify)?: error: ", err, re.M), err

    def test_degenerate_form_is_domain_error(self, capsys):
        code, _, err = run(capsys, "check", "--kind", "pseudo-unitary",
                           "--in", inpath("eye2.json"), "--hform", inpath("malformed.json"))
        assert code == 1


class TestDispatch:
    """Handlers are looked up when a command runs, so a rebinding of
    ``_cmd_<name>`` (as a span tracer does) is the one that runs."""

    def test_main_calls_the_current_handler(self, capsys, monkeypatch):
        calls = []
        original = cli._cmd_det

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, "_cmd_det", spy)
        code, out, _ = run(capsys, "det", "--in", inpath("a22.json"))
        assert code == 0 and len(calls) == 1
        assert out == (GOLDEN / "expected" / "det.txt").read_text()

    def test_subcommands_are_the_parser_choices(self):
        actions = cli.build_parser()._subparsers._group_actions
        choices = [a.choices for a in actions if isinstance(a, argparse._SubParsersAction)]
        assert [tuple(c) for c in choices] == [SUBCOMMANDS]


class TestCheckKinds:
    @pytest.mark.parametrize("kind,doc,expected", [
        ("hermitian", "pauli_y.json", True),
        ("hermitian", "a22.json", False),
        ("unitary", "swap.json", True),
        ("orthogonal", "swap.json", True),
        ("orthogonal", "boost.json", False),
        ("selfadjoint", "herm3.json", True),
        ("dirac-selfadjoint", "fdirac.json", True),
        ("pseudo-unitary", "eta2.json", True),
        ("pseudo-orthogonal", "boost.json", True),
        ("pseudo-orthogonal", "a22.json", False),
    ])
    def test_kind_results(self, capsys, kind, doc, expected):
        argv = ["check", "--kind", kind, "--in", inpath(doc)]
        if kind in ("dirac-selfadjoint", "pseudo-unitary", "pseudo-orthogonal"):
            argv += ["--hform", inpath("eta2.json")]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert json.loads(out)["result"] is expected

    def test_all_kinds_enumerated(self):
        assert set(CHECK_KINDS) == {
            "hermitian", "unitary", "orthogonal", "selfadjoint",
            "dirac-selfadjoint", "pseudo-unitary", "pseudo-orthogonal",
        }


class TestOperationRegistry:
    PUBLIC_OPERATIONS = {
        # matrices
        "matmul", "hermitian_conjugate", "determinant",
        "determinant_permutation_sum", "kronecker_product", "classify",
        # spaces
        "dual_basis", "rep_vector", "rep_covector", "change_of_basis",
        "represent_map", "conjugate_representation", "operator_determinant",
        # tensors
        "tensor_product", "contract", "transform_tensor", "sort_slots",
        "kron_flatten", "kron_unflatten",
        # unitary
        "inner_product", "norm", "riesz_map", "orthonormalize", "adjoint",
        "eigen_hermitian", "spectral_representation", "is_selfadjoint",
        "is_unitary_wrt",
        # indefinite
        "metric_structure_from", "compatible_structure_from_hform",
        "canonical_projectors", "h_orthonormal_basis",
        "dirac_adjoint_vector", "dirac_adjoint_covector",
        "dirac_adjoint_operator", "is_dirac_selfadjoint",
        "is_pseudo_unitary", "dirac_spectral", "raise_lower_index",
        "is_orthogonal", "is_pseudo_orthogonal",
        # cli-level
        "run_lemma_suite", "parse_matrix_document",
    }

    def test_registry_covers_every_operation_exactly_once(self):
        assert set(OPERATION_COVERAGE) == self.PUBLIC_OPERATIONS

    def test_registry_targets_real_subcommands(self):
        assert set(OPERATION_COVERAGE.values()) <= set(SUBCOMMANDS)

    def test_registered_operations_exist(self):
        from kreinalg import io as io_mod
        from kreinalg import lemmas as lemmas_mod

        for name in self.PUBLIC_OPERATIONS:
            assert (
                hasattr(kreinalg, name)
                or hasattr(io_mod, name)
                or hasattr(lemmas_mod, name)
            ), name
