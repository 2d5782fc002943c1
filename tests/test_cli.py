import argparse
import ast
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import kreinalg
from kreinalg import InnerProduct, VectorSpace, cli, hermitian_conjugate
from kreinalg.cli import CHECK_KINDS, OPERATION_COVERAGE, SUBCOMMANDS, main
from kreinalg.generators import (
    lorentz_boost,
    random_dirac_selfadjoint,
    random_g_selfadjoint,
    random_positive_definite,
    random_unitary,
)
from kreinalg.io import serialize_matrix_document

GOLDEN = pathlib.Path(__file__).parent / "golden"
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def inpath(name: str) -> str:
    return str(GOLDEN / "in" / name)


def _run_cli(*argv, code=None, env=None):
    """``python -m kreinalg.cli ARGV`` (or ``python -c CODE``) in a fresh interpreter."""
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    command = ["-c", code] if code is not None else ["-m", "kreinalg.cli"]
    return subprocess.run([sys.executable, *command, *argv],
                          env=env, capture_output=True, text=True, timeout=120)


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
        outputs = []
        for threads in ("1", "2"):
            proc = _run_cli(*argv, env={"OPENBLAS_NUM_THREADS": threads})
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

    @pytest.mark.parametrize("data,error", [
        ("[[" + "9" * 400 + "]]", "SchemaError"),  # beyond the double range
        ("[[" + "9" * 5000 + "]]", "ParseError"),  # more digits than int() reads
    ], ids=["huge", "long"])
    def test_oversized_integer_is_domain_error(self, tmp_path, data, error):
        path = tmp_path / "doc.json"
        path.write_text(f'{{"field":"real","rows":1,"cols":1,"data":{data}}}')
        proc = _run_cli("det", "--in", str(path))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert json.loads(proc.stderr)["error"] == error

    def test_dirac_spectral_near_the_double_range_never_tracebacks(self, tmp_path):
        # Under a lorentz_boost(2.0) frame f h overflowed for an f with
        # largest entry 1e307, and LinAlgError escaped as a traceback.
        b_inv = lorentz_boost(-2.0, 3)
        gram, hform = b_inv.T @ b_inv, b_inv.T @ np.diag([1.0, -1.0, -1.0]) @ b_inv
        f = random_dirac_selfadjoint(np.random.default_rng(0), kreinalg.metric_structure_from(gram, hform))
        paths = {}
        for name, matrix in {"f": f * (1e307 / np.max(np.abs(f))), "g": gram, "k": hform}.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(serialize_matrix_document(matrix))
        proc = _run_cli("spectral", "--in", str(paths["f"]), "--gram", str(paths["g"]),
                        "--hform", str(paths["k"]))
        assert "Traceback" not in proc.stderr
        if proc.returncode == 1:
            assert "error" in json.loads(proc.stderr)
        else:
            assert (proc.returncode, proc.stderr) == (0, "")
            assert np.all(np.isfinite(json.loads(proc.stdout)["eigenvalues"]))

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


_CHOICES = ("{det,eig,spectral,adjoint,dirac-adjoint,signature,canonical-basis,projectors,"
            "tensor-product,contract,kron,change-basis,check,verify}")
_TOP_USAGE = f"usage: kreinalg [-h]\n                {_CHOICES}\n                ...\n"
_TOP_HELP = _TOP_USAGE + f"""
Linear algebra over definite and indefinite inner products.

positional arguments:
  {_CHOICES}
    det                 determinant of a square document
    eig                 spectral decomposition of a Hermitian document
    spectral            spectral decomposition w.r.t. a Gram matrix (or Dirac-
                        spectral with --hform)
    adjoint             adjoint w.r.t. a Gram matrix
    dirac-adjoint       Dirac adjoint of a ket, bra, or operator document
    signature           signature of an indefinite form
    canonical-basis     basis bringing the form to diag(+1.., -1..)
    projectors          projectors onto the positive/negative metric subspaces
    tensor-product      tensor product of two documents, slot-sorted and
                        flattened
    contract            trace contraction of an operator document
    kron                Kronecker product of two documents
    change-basis        change-of-basis matrix (and optional operator
                        conjugation)
    check               membership/structure predicates
    verify              run the seeded lemma verification suite

options:
  -h, --help            show this help message and exit
"""
_DET_HELP = """usage: kreinalg det [-h] [--in DOC.json] [--out PATH]

options:
  -h, --help     show this help message and exit
  --in DOC.json  input matrix document (repeat for multi-input commands)
  --out PATH     write the JSON result to a file
"""
_COMMAND_LIST = ", ".join(repr(name) for name in _CHOICES[1:-1].split(","))


class TestContract:
    """``contract`` reads its document as an operator, so a 1 x 1 one is square, not a ket."""

    @pytest.mark.parametrize("doc,result", [
        ('{"field":"real","rows":1,"cols":1,"data":[[3.0]]}', [3.0, 0.0]),
        ('{"field":"complex","rows":1,"cols":1,"data":[[[3.0,-2.0]]]}', [3.0, -2.0]),
    ], ids=["real", "complex"])
    def test_one_by_one_is_its_trace(self, capsys, tmp_path, doc, result):
        path = tmp_path / "f.json"
        path.write_text(doc)
        code, out, err = run(capsys, "contract", "--in", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out) == {"result": result}

    def test_non_square_is_shape_error(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"field":"real","rows":1,"cols":2,"data":[[3.0,4.0]]}')
        code, out, err = run(capsys, "contract", "--in", str(path))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "ShapeError"


class TestResultOutsideTheDoubleRange:
    """A result that overflows is one SchemaError document, never a warning or a traceback."""

    @staticmethod
    def _documents(tmp_path):
        b = lorentz_boost(2.0, 3)
        b_inv = np.linalg.inv(b)
        eta = np.diag([1.0, -1.0, -1.0])
        m = np.zeros((3, 3))
        m[:2, :2] = [[-0.9320430210885293, 0.9298929885015395],
                     [0.9298929885015395, -0.9266651825182575]]
        f = b @ m @ eta @ b_inv  # Dirac-selfadjoint; max|eig(f h)| is ~58.6 max|f|
        matrices = {
            "det": np.diag([1e200, 1e200]),
            "big": np.full((2, 2), 1e300),
            "adj": np.array([[1.0, 1e306], [1e306, 1.0]]),
            "gdiag": np.diag([1.0, 1e-3]),
            "g": b_inv.T @ b_inv,
            "k": b_inv.T @ eta @ b_inv,
            "f": f * (4e306 / np.max(np.abs(f))),
        }
        paths = {}
        for name, matrix in matrices.items():
            paths[name] = str(tmp_path / f"{name}.json")
            pathlib.Path(paths[name]).write_text(serialize_matrix_document(matrix))
        return paths

    @pytest.mark.parametrize("command", [
        "det --in {det}",
        "kron --in {big} --in {big}",
        "tensor-product --in {big} --in {big}",
        "adjoint --in {adj} --gram {gdiag}",
        "spectral --gram {g} --hform {k} --in {f}",
    ], ids=["det", "kron", "tensor-product", "adjoint", "spectral-hform"])
    def test_is_one_schema_error_document(self, capsys, tmp_path, command):
        argv = command.format(**self._documents(tmp_path)).split()
        out_file = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv, "--out", str(out_file))
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "SchemaError", "message": "result has a number outside the double range"
        }
        assert err.count("\n") == 1
        assert not out_file.exists()

    def test_dirac_rule_accepts_the_spectral_input(self, tmp_path):
        paths = self._documents(tmp_path)
        g, k, f = (kreinalg.io.parse_matrix_document(pathlib.Path(paths[x]).read_text())
                   for x in ("g", "k", "f"))
        assert kreinalg.is_dirac_selfadjoint(f, kreinalg.metric_structure_from(g, k))

    def test_fresh_interpreter_prints_only_the_error_document(self, tmp_path):
        proc = _run_cli("det", "--in", self._documents(tmp_path)["det"])
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr)["error"] == "SchemaError"

    def test_library_calls_keep_numpys_warnings(self, capsys, tmp_path):
        # The CLI silences overflow around its handler only.  The library's
        # products answer +-inf without a warning by their own contract, so
        # a plain numpy product, after a request that overflowed, is the witness.
        big = self._documents(tmp_path)["big"]
        assert run(capsys, "kron", "--in", big, "--in", big)[0] == 1
        with pytest.warns(RuntimeWarning, match="overflow"):
            np.full(2, 1e300) * 1e300


class TestUsageBytes:
    """Help and usage errors, byte for byte, with their exit codes (80 columns)."""

    CASES = {
        "help": (["-h"], 0, _TOP_HELP, ""),
        "det-help": (["det", "-h"], 0, _DET_HELP, ""),
        "unknown-command": (["frobnicate"], 2, "", _TOP_USAGE + (
            "kreinalg: error: argument command: invalid choice: 'frobnicate' "
            f"(choose from {_COMMAND_LIST})\n")),
        "no-command": ([], 2, "", _TOP_USAGE + (
            "kreinalg: error: the following arguments are required: command\n")),
        "missing-hform": (["signature"], 2, "", (
            "usage: kreinalg signature [-h] [--gram G.json] --hform K.json [--out PATH]\n"
            "kreinalg signature: error: the following arguments are required: --hform\n")),
        "abbreviated-option": (["verify", "--in", "1", "--dims", "1"], 2, "", _TOP_USAGE + (
            "kreinalg: error: unrecognized arguments: --in 1\n")),
        "extra-argument": (["det", "--in", "a.json", "extra"], 2, "", _TOP_USAGE + (
            "kreinalg: error: unrecognized arguments: extra\n")),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bytes_and_exit_code(self, capsys, monkeypatch, case):
        monkeypatch.setenv("COLUMNS", "80")
        argv, code, out, err = self.CASES[case]
        assert run(capsys, *argv) == (code, out, err)

    TAILS = (["-h"], [], ["--nope"], ["--out"], ["extra"], ["--in", "a", "--in"],
             ["--kind", "bogus"], ["--seed", "x"], ["--dims", "1,x"], ["--hform", "K"])

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_one_subparser_parses_as_the_full_parser(self, capsys, monkeypatch, name):
        monkeypatch.setenv("COLUMNS", "80")

        def outcome(parser, argv):
            try:
                result = vars(parser.parse_args(argv))
            except SystemExit as exc:
                result = exc.code
            return result, capsys.readouterr()

        for tail in self.TAILS:
            argv = [name, *tail]
            assert outcome(cli.build_parser(name), argv) == outcome(cli.build_parser(), argv)


# Runs ``python -m kreinalg.cli ARGV`` and prints, after its output, the JSON
# list of source files whose module bodies ran, as seen by the "exec" audit
# event, and then the JSON pair [gc.isenabled(), gc.get_freeze_count()].
_EXECUTED_MODULES = """
import gc, json, runpy, sys
ran = []
sys.addaudithook(lambda event, args: event == "exec" and ran.append(args[0].co_filename))
sys.argv[0] = "kreinalg"
try:
    runpy.run_module("kreinalg.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(json.dumps(ran))
print(json.dumps([gc.isenabled(), gc.get_freeze_count()]))
"""


# The kreinalg module bodies (file stems) each golden request runs besides
# the package's own, the CLI's and the ones every request needs to parse and print.
_EVERY_REQUEST = {"__init__", "cli", "errors", "io", "matrices"}
_STRUCTURE = {"policy", "spaces", "tensors", "eigen", "unitary", "indefinite"}
_GRAM = {"policy", "spaces", "eigen", "unitary"}
_TENSOR = {"spaces", "tensors"}
LOADED = {
    "det.txt": {"policy"},
    "eig.txt": {"policy", "eigen"},
    "eig_complex.txt": {"policy", "eigen"},
    "spectral.txt": _GRAM,
    "spectral_dirac.txt": _STRUCTURE,
    "adjoint.txt": _GRAM,
    "dirac_adjoint_ket.txt": _STRUCTURE,
    "dirac_adjoint_op.txt": _STRUCTURE,
    "signature.txt": _STRUCTURE,
    "canonical_basis.txt": _STRUCTURE,
    "projectors.txt": _STRUCTURE,
    "tensor_product.txt": _TENSOR,
    "contract.txt": _TENSOR,
    "kron.txt": set(),
    "change_basis.txt": {"policy", "spaces"},
    "check_pseudo_orthogonal.txt": _STRUCTURE,
    "check_hermitian.txt": {"policy"},
    "verify.txt": _STRUCTURE | {"lemmas", "generators"},
}


class TestLazyLoading:
    """Every layer but ``errors`` is bound at import but runs only when first used."""

    def test_every_golden_case_is_pinned(self):
        assert set(LOADED) == set(GOLDEN_CASES) - {"verify_default.txt"}

    @pytest.mark.parametrize("name", sorted(LOADED))
    def test_request_runs_only_the_layers_its_subcommand_uses(self, name):
        proc = _run_cli(*GOLDEN_CASES[name], code=_EXECUTED_MODULES)
        assert proc.returncode == 0, proc.stderr
        out, ran, collector = proc.stdout.splitlines()
        assert golden_differences(name, out + "\n") == []
        package = pathlib.Path(SRC, "kreinalg")
        stems = {pathlib.Path(p).stem for p in json.loads(ran) if pathlib.Path(p).parent == package}
        assert stems == _EVERY_REQUEST | LOADED[name]
        # The request ran with the cyclic collector off and froze its heap before exit.
        enabled, frozen = json.loads(collector)
        assert enabled is False and frozen > 0

    def test_import_binds_every_traced_layer_without_running_the_suite(self):
        proc = _run_cli(code=(
            "import json, sys\n"
            "import kreinalg.cli\n"
            "hashlib = 'hashlib' in sys.modules\n"
            f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
            "from tracing import LAYERS\n"
            "print(json.dumps([hashlib, [l for l in LAYERS if 'kreinalg.' + l not in sys.modules]]))"
        ))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [False, []]

    def test_lazy_names_resolve(self):
        proc = _run_cli(code=(
            "import kreinalg\n"
            "from kreinalg import LemmaReport\n"
            "from kreinalg.generators import random_unitary\n"
            "assert kreinalg.run_lemma_suite is kreinalg.lemmas.run_lemma_suite\n"
            "assert LemmaReport is kreinalg.lemmas.LemmaReport\n"
            "assert random_unitary is kreinalg.generators.random_unitary\n"
            "try:\n"
            "    kreinalg.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
        ))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "module 'kreinalg' has no attribute 'no_such_name'\n"

    def test_default_verify_in_a_fresh_interpreter(self):
        proc = _run_cli("verify", "--seed", "42")
        assert proc.returncode == 0, proc.stderr
        assert golden_differences("verify_default.txt", proc.stdout) == []


def _is_main_guard(node) -> bool:
    """Whether ``node`` is an ``if __name__ == "__main__":`` statement."""
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def _gc_attributes(node) -> list:
    """The ``gc.<name>`` attributes read under ``node``, in source order."""
    found = [n for n in ast.walk(node) if isinstance(n, ast.Attribute)
             and isinstance(n.value, ast.Name) and n.value.id == "gc"]
    return [n.attr for n in sorted(found, key=lambda n: (n.lineno, n.col_offset))]


class TestPolicyGuard:
    """Only a request process turns the cyclic collector off; library use
    (``import kreinalg.cli``, in-process ``main(argv)``) leaves it as it found it."""

    def test_gc_is_used_only_by_the_main_guard_and_the_entry(self):
        found = []
        for path in sorted(pathlib.Path(SRC, "kreinalg").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
            assert path.name == "cli.py" or not any(
                "gc" in (getattr(n, "module", None), *(a.name for a in n.names)) for n in imports
            ), f"{path.name} imports gc"
            for stmt in tree.body:
                where = "guard" if _is_main_guard(stmt) else getattr(stmt, "name", None)
                found += [(path.stem, where, attr) for attr in _gc_attributes(stmt)]
        assert found == [("cli", "guard", "disable"), ("cli", "run", "disable"), ("cli", "run", "freeze")]

    def test_collector_is_off_before_the_imports_and_frozen_before_the_exit(self):
        tree = ast.parse(pathlib.Path(SRC, "kreinalg", "cli.py").read_text(encoding="utf-8"))
        guards = [i for i, stmt in enumerate(tree.body) if _is_main_guard(stmt)]
        first, last = (tree.body[i] for i in (guards[0], guards[-1]))
        head = [ast.unparse(stmt) for stmt in tree.body[1:guards[0]]]  # after the docstring
        assert head == ["from __future__ import annotations", "import gc"]
        assert ast.unparse(first.body) == "gc.disable()"
        assert guards[-1] == len(tree.body) - 1 and ast.unparse(last.body) == "run()"
        entry = next(stmt for stmt in tree.body if getattr(stmt, "name", None) == "run")
        assert [ast.unparse(stmt) for stmt in entry.body[1:]] == [  # after the docstring
            "gc.disable()", "code = main()", "gc.freeze()", "sys.exit(code)"
        ]

    def test_library_use_leaves_the_collector_and_the_entry_turns_it_off(self):
        doc = inpath("a22.json")
        proc = _run_cli(code=(
            "import gc, json, sys\n"
            "import kreinalg, kreinalg.cli as cli\n"
            "states = [[gc.isenabled(), gc.get_freeze_count()]]\n"
            f"code = cli.main(['det', '--in', {doc!r}])\n"
            "states.append([gc.isenabled(), gc.get_freeze_count(), code])\n"
            f"sys.argv = ['kreinalg', 'det', '--in', {doc!r}]\n"
            "try:\n"
            "    cli.run()\n"
            "except SystemExit as exc:\n"
            "    states.append([gc.isenabled(), gc.get_freeze_count() > 0, exc.code])\n"
            "print(json.dumps(states))\n"
        ))
        assert (proc.returncode, proc.stderr) == (0, "")
        *outs, states = proc.stdout.split("\n")[:-1]
        assert "\n".join(outs) + "\n" == 2 * (GOLDEN / "expected" / "det.txt").read_text()
        assert json.loads(states) == [[True, 0], [True, 0, 0], [False, True, 0]]

    def test_installed_command_is_the_entry(self):
        tomllib = pytest.importorskip("tomllib")
        scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]
        module, _, attr = scripts["kreinalg"].partition(":")
        assert getattr(importlib.import_module(module), attr) is cli.run


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
