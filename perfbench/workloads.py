"""The three benchmark workloads.

Each is a closed loop with one client and one request in flight.  A
workload provides ``setup()`` (untimed by the loop; run.py times it as
set-up), ``run_op(i, tracer)`` (the timed op) and ``check(i, out)``
(untimed oracle checks, returning a Tally); see Workload for the rest.
Op ``i`` is a pure function of the workload seed and ``i``, so a traced
pass can replay exactly the ops of an untraced one.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass
class Tally:
    """Checked steps or requests: attempted, failed (raised or missed the oracle), wrong (missed)."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: Counter = field(default_factory=Counter)

    def __iadd__(self, other: "Tally") -> "Tally":
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.notes.update(other.notes)
        return self


class Raised:
    """Marks a step that raised instead of answering."""

    def __init__(self, exc: BaseException) -> None:
        self.name = type(exc).__name__


def attempt(step):
    """Run one step; an exception becomes a Raised marker so later steps still run."""
    try:
        return step()
    except Exception as exc:  # the benchmark records every failure and keeps going
        return Raised(exc)


def grade(steps, results, oracle_args, label: str) -> Tally:
    """Check each step result with its oracle; see Tally for the counts."""
    tally = Tally(attempted=len(steps))
    for (name, oracle), result in zip(steps, results):
        if isinstance(result, Raised):
            tally.failed += 1
            tally.notes[f"{label} {name}: raised {result.name}"] += 1
            continue
        try:
            ok = oracle(*oracle_args, result)
        except Exception:  # a malformed answer is a wrong answer
            ok = False
        if not ok:
            tally.failed += 1
            tally.wrong += 1
            tally.notes[f"{label} {name}: wrong answer"] += 1
    return tally


class Workload:
    """Defaults shared by the workloads."""

    setup_samples = 5  # set-ups timed per run: this process plus fresh children

    def collect(self, i, out, seconds, tracer) -> None:
        """Traced runs only: add the counts that spans cannot see."""

    def failed_ratio(self, tally: Tally) -> float:
        return tally.failed / tally.attempted


# --------------------------------------------------------------------------
# structures


STRUCTURE_CLASSES = (
    (2, inputs.REAL), (2, inputs.COMPLEX),
    (8, inputs.REAL), (8, inputs.COMPLEX),
    (32, inputs.REAL), (32, inputs.COMPLEX),
)
STRUCTURE_POOL = 32  # seeded instances per class, one per round; kinds alternate hform, pair
STRUCTURE_STEPS = (
    ("build", oracles.check_structure),
    ("dirac_spectral", oracles.check_dirac),
    ("spectral_representation", oracles.check_spectral),
    ("h_orthonormal_basis", oracles.check_h_basis),
    ("is_pseudo_unitary", oracles.check_pseudo_unitary),
)


class Structures(Workload):
    """One indefinite-structure request per op, equal share per (n, field) class."""

    round_len = len(STRUCTURE_CLASSES)
    in_process = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        import kreinalg  # noqa: F401

        self.kreinalg = sys.modules["kreinalg"]
        rng = np.random.default_rng(self.seed)
        self.pool = [
            [inputs.structure_instance(rng, n, fld, ("hform", "pair")[j % 2])
             for j in range(STRUCTURE_POOL)]
            for n, fld in STRUCTURE_CLASSES
        ]
        self.run_op(3)  # warm-up: one op of class (8, complex)

    def instance(self, i: int):
        return self.pool[i % self.round_len][(i // self.round_len) % STRUCTURE_POOL]

    def run_op(self, i: int, tracer=None):
        inst = self.instance(i)
        # Module attributes are looked up per call, so traced runs see the wrappers.
        ind = self.kreinalg.indefinite
        uni = self.kreinalg.unitary
        if inst.kind == "hform":
            ms = attempt(lambda: ind.compatible_structure_from_hform(inst.k))
        else:
            ms = attempt(lambda: ind.metric_structure_from(inst.g, inst.k))
        return (
            ms,
            attempt(lambda: ind.dirac_spectral(inst.f, ms)),
            attempt(lambda: uni.spectral_representation(inst.a, ms.ip)),
            attempt(lambda: ind.h_orthonormal_basis(ms)),
            attempt(lambda: ind.is_pseudo_unitary(inst.u, ms)),
        )

    def check(self, i: int, out) -> Tally:
        inst = self.instance(i)
        return grade(STRUCTURE_STEPS, out, (inst,), f"n={inst.n} {inst.field}")


# --------------------------------------------------------------------------
# verify

# Suite seeds per run.  Two, so that a seed at which kron-flatten happens
# to pass (seed 1) still leaves the known defect in failed_ratio.
SUITE_SEEDS = 2


class Verify(Workload):
    """One full ``verify`` suite (dims 1-6, 5 instances) per op, in process.

    Op i runs suite seed ``seed + i % SUITE_SEEDS``.  A round is one suite
    of each seed, so every run covers the same fixed set of suite seeds,
    however many ops fit in its time.  Every suite of one seed is the same
    request, so each seed counts once in attempted and failed: both are then
    the same for every run of a workload seed.
    """

    round_len = SUITE_SEEDS
    in_process = True
    setup_samples = 3  # each one runs a whole warm-up suite

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.failing: dict = {}  # op -> failing reports
        self.failing_at: dict = {}  # suite seed -> failing lemma ids of its first suite

    def setup(self) -> None:
        import kreinalg.cli  # noqa: F401

        self.kreinalg = sys.modules["kreinalg"]
        out = self.run_op(0)  # warm-up
        if not isinstance(out, Raised):
            out[1].unlink()

    def suite_seed(self, i: int) -> int:
        return self.seed + i % SUITE_SEEDS

    def run_op(self, i: int, tracer=None):
        path = self.workdir / f"verify-{i}.json"
        argv = ["verify", "--seed", str(self.suite_seed(i)), "--out", str(path)]
        return attempt(lambda: (self.kreinalg.cli.main(argv), path))

    def check(self, i: int, out) -> Tally:
        """Lemma reports of op i; a repeated suite seed adds only a mismatch with its first suite."""
        registry = self.kreinalg.lemmas.REGISTRY
        suite_seed = self.suite_seed(i)
        if not isinstance(out, Raised) and not out[1].exists():
            out = Raised(FileNotFoundError(out[1]))
        if isinstance(out, Raised):
            failing = [lemma.lemma_id for lemma in registry]
            notes = Counter({f"verify raised {out.name}": 1})
            consistent = True
        else:
            code, path = out
            doc = json.loads(path.read_text())
            path.unlink()
            reports = doc["reports"]
            failing = [r["lemma_id"] for r in reports if r["status"] != "pass"]
            consistent = (
                doc["seed"] == suite_seed
                and doc["dims"] == [1, 2, 3, 4, 5, 6]
                and doc["instances"] == 5
                and len(reports) == len(registry)
                and all(r["status"] == ("pass" if r["max_error"] <= r["tolerance"] else "fail")
                        for r in reports)
                and doc["status"] == ("fail" if failing else "pass")
                and code == (1 if failing else 0)
            )
            notes = Counter(f"seed {suite_seed}: {lemma} fails" for lemma in failing)
            if not consistent:
                notes[f"seed {suite_seed}: inconsistent report"] += 1
        self.failing[i] = len(failing)
        if suite_seed not in self.failing_at:
            self.failing_at[suite_seed] = failing
            return Tally(len(registry), len(failing), 0 if consistent else 1, notes)
        if failing == self.failing_at[suite_seed] and consistent:
            return Tally()
        return Tally(0, 0, 1, Counter({f"seed {suite_seed}: suite differs from its first run": 1}))

    def collect(self, i, out, seconds, tracer) -> None:
        tracer.counters["lemmas.failed"] += self.failing[i]

    def failed_ratio(self, tally: Tally) -> float:
        """Lemmas that failed at any of the run's suite seeds, over all lemmas.

        Every run covers the same suite seeds, so this does not depend on
        how many ops fit in the run.
        """
        failing = set().union(*self.failing_at.values())
        return len(failing) / len(self.kreinalg.lemmas.REGISTRY)


# --------------------------------------------------------------------------
# cli

O = oracles
# (label, argv with @document references, oracle, oracle document names)
TINY_REQUESTS = (
    ("det", ["det", "--in", "@a22"], O.cli_det, ["a22"]),
    ("eig", ["eig", "--in", "@herm3"], O.cli_eig, ["herm3"]),
    ("eig_complex", ["eig", "--in", "@pauli_y"], O.cli_eig, ["pauli_y"]),
    ("spectral", ["spectral", "--in", "@fdiag", "--gram", "@gram2"],
     O.cli_spectral_gram, ["fdiag", "gram2"]),
    ("spectral_dirac", ["spectral", "--in", "@fdirac", "--hform", "@eta2"],
     O.cli_spectral_dirac, ["fdirac", "eta2"]),
    ("adjoint", ["adjoint", "--in", "@a22", "--gram", "@gram2"], O.cli_adjoint, ["a22", "gram2"]),
    ("dirac_adjoint_ket", ["dirac-adjoint", "--in", "@ket2", "--hform", "@eta2"],
     O.cli_dirac_adjoint_ket, ["ket2", "eta2"]),
    ("dirac_adjoint_op", ["dirac-adjoint", "--in", "@a22", "--hform", "@eta2"],
     O.cli_dirac_adjoint_op, ["a22", "eta2"]),
    ("signature", ["signature", "--hform", "@mink4"], O.cli_signature, ["mink4"]),
    ("canonical_basis", ["canonical-basis", "--hform", "@swap"], O.cli_canonical_basis, ["swap"]),
    ("projectors", ["projectors", "--hform", "@eta2"], O.cli_projectors, ["eta2"]),
    ("tensor_product", ["tensor-product", "--in", "@ket2", "--in", "@ket2"],
     O.cli_tensor_product, ["ket2", "ket2"]),
    ("contract", ["contract", "--in", "@a22"], O.cli_contract, ["a22"]),
    ("kron", ["kron", "--in", "@a22", "--in", "@swap"], O.cli_kron, ["a22", "swap"]),
    ("change_basis", ["change-basis", "--in", "@eye2", "--in", "@b_new", "--in", "@a22"],
     O.cli_change_basis, ["eye2", "b_new", "a22"]),
    ("check_pseudo_orthogonal",
     ["check", "--kind", "pseudo-orthogonal", "--in", "@boost", "--hform", "@eta2"],
     O.cli_check_pseudo_orthogonal, ["boost", "eta2"]),
    ("check_hermitian", ["check", "--kind", "hermitian", "--in", "@pauli_y"],
     O.cli_check_hermitian, ["pauli_y"]),
)
LARGE_REQUESTS = (
    ("det64", ["det", "--in", "@det64"], O.cli_det, ["det64"]),
    ("kron16", ["kron", "--in", "@kron16a", "--in", "@kron16b"], O.cli_kron, ["kron16a", "kron16b"]),
    ("tensor_product64", ["tensor-product", "--in", "@ket64a", "--in", "@ket64b"],
     O.cli_tensor_product, ["ket64a", "ket64b"]),
    ("contract64", ["contract", "--in", "@op64"], O.cli_contract, ["op64"]),
    ("adjoint64", ["adjoint", "--in", "@adj64"], O.cli_adjoint, ["adj64"]),
    ("change_basis64", ["change-basis", "--in", "@basis64a", "--in", "@basis64b", "--in", "@op64"],
     O.cli_change_basis, ["basis64a", "basis64b", "op64"]),
)
CLI_REQUESTS = TINY_REQUESTS + LARGE_REQUESTS
CHILD_TIMEOUT_S = 120


class Cli(Workload):
    """One ``python -m kreinalg.cli`` subprocess per op, run one at a time.

    Each round runs every request once, in a seeded order.
    """

    round_len = len(CLI_REQUESTS)
    in_process = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.docs = dict(inputs.TINY_DOCUMENTS, **inputs.large_documents(rng))
        inputs.write_documents(self.workdir, self.docs)
        self.orders: dict = {}

    def request(self, i: int):
        rnd, pos = divmod(i, self.round_len)
        if rnd not in self.orders:
            self.orders[rnd] = np.random.default_rng([self.seed, rnd]).permutation(self.round_len)
        return CLI_REQUESTS[self.orders[rnd][pos]]

    def run_op(self, i: int, tracer=None):
        _label, argv, _oracle, _names = self.request(i)
        argv = [str(self.workdir / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
        if tracer is None:
            cmd = [sys.executable, "-m", "kreinalg.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "launch.py"), str(self.spans_path(i)), str(i), *argv]
        try:
            return subprocess.run(cmd, capture_output=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return subprocess.CompletedProcess(
                cmd, -9, b"", f"timed out after {CHILD_TIMEOUT_S} s".encode())

    def spans_path(self, i: int) -> Path:
        return self.workdir / f"spans-{i}.json"

    def check(self, i: int, proc) -> Tally:
        label, _argv, oracle, names = self.request(i)
        if proc.returncode != 0:
            error = proc.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            return Tally(1, 1, 0, Counter({f"{label}: exit {proc.returncode} {error[0][:80]}": 1}))

        def answer(docs, stdout):
            return oracle(docs, json.loads(stdout), *names)

        return grade((("output", answer),), (proc.stdout,), (self.docs,), label)

    def collect(self, i, proc, seconds, tracer) -> None:
        path = self.spans_path(i)
        if not path.exists():  # killed, or died before tracing; check() counted it as failed
            return
        record = json.loads(path.read_text())
        path.unlink()
        tracer.merge(record["spans"], record["counters"])
        tracer.counters["cli.import_s"] += record["import_s"]
        tracer.counters["cli.interpreter_s"] += seconds - record["inside_s"]


WORKLOADS = {"structures": Structures, "verify": Verify, "cli": Cli}
