import contextlib
import dataclasses
import json
import math
import os
import signal
import time

import numpy as np
import pytest

import kreinalg.lemmas as lemmas
from kreinalg import InnerProduct, metric_structure_from
from kreinalg.cli import main
from kreinalg.errors import SymmetryError
from kreinalg.lemmas import REGISTRY, LemmaReport, run_lemma_suite
from kreinalg.matrices import COMPLEX

LARGEST_DOUBLE = 1.7976931348623157e308


class TestRegistry:
    def test_at_least_twenty_lemmas(self):
        assert len(REGISTRY) >= 20

    def test_ids_unique(self):
        ids = [lemma.lemma_id for lemma in REGISTRY]
        assert len(ids) == len(set(ids))

    def test_every_module_area_covered(self):
        prefixes = {lemma.lemma_id.split(".")[0] for lemma in REGISTRY}
        assert {"matrix", "duality", "tensor", "inner", "spectral", "metric", "dirac"} <= prefixes

    def test_tolerances_are_pinned(self):
        for lemma in REGISTRY:
            assert lemma.tolerance >= 0.0


class TestRunner:
    def test_deterministic_reports(self):
        a = run_lemma_suite(7, dims=(2, 3), instances=2)
        b = run_lemma_suite(7, dims=(2, 3), instances=2)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_different_seeds_differ(self):
        a = run_lemma_suite(7, dims=(3,), instances=2)
        b = run_lemma_suite(8, dims=(3,), instances=2)
        assert [r.max_error for r in a] != [r.max_error for r in b]

    def test_all_pass_on_default_seed(self):
        reports = run_lemma_suite(42, dims=(2, 5), instances=2)
        failing = [r.lemma_id for r in reports if r.status != "pass"]
        assert failing == []

    def test_status_matches_tolerance(self):
        for report in run_lemma_suite(3, dims=(3,), instances=1):
            assert (report.status == "pass") == (report.max_error <= report.tolerance)

    def test_dim_filters_respected(self):
        reports = {r.lemma_id: r for r in run_lemma_suite(5, dims=(7,), instances=1)}
        assert reports["matrix.det-oracle"].instances == 0
        assert reports["spectral.charpoly-oracle"].instances == 0
        assert reports["matrix.det-product"].instances == 1

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            run_lemma_suite(1, dims=(0,), instances=1)
        with pytest.raises(ValueError):
            run_lemma_suite(1, dims=(13,), instances=1)
        with pytest.raises(ValueError):
            run_lemma_suite(1, dims=(3,), instances=0)


class TestRandomStructure:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_a_pair_structure_is_built_on_the_inner_product_it_drew(self, field, monkeypatch):
        built = []
        init = InnerProduct.__init__
        monkeypatch.setattr(InnerProduct, "__init__", lambda self, *args: built.append(1) or init(self, *args))
        kinds = set()
        for seed in range(8):
            built.clear()
            pair = not np.random.default_rng(seed).integers(0, 2)
            ms = lemmas._random_structure(np.random.default_rng(seed), 4, field)
            kinds.add(pair)
            assert len(built) == pair
            # Rebuilding the inner product from its own Gram matrix gives its bits.
            rebuilt = metric_structure_from(ms.ip.gram, ms.hform.matrix)
            for a, b in (
                (ms.ip.gram_inv, rebuilt.ip.gram_inv), (ms.ip.frame, rebuilt.ip.frame),
                (ms.h, rebuilt.h), (ms.frame.basis.matrix, rebuilt.frame.basis.matrix),
            ):
                assert not pair or a.tobytes() == b.tobytes()
        assert kinds == {True, False}


class TestNegativeControl:
    def test_broken_compatibility_fails_the_lemma(self, monkeypatch):
        # Tampering the metric so h@h != 1 must flip metric.compatibility
        # to "fail" while leaving the run deterministic.
        original = lemmas._random_structure

        def tampered(rng, n, field):
            ms = original(rng, n, field)
            bad_h = ms.h.copy()
            bad_h[0, 0] += 0.5
            return dataclasses.replace(ms, h=bad_h)

        monkeypatch.setattr(lemmas, "_random_structure", tampered)
        reports = {r.lemma_id: r for r in run_lemma_suite(42, dims=(3,), instances=1)}
        assert reports["metric.compatibility"].status == "fail"
        assert reports["metric.compatibility"].max_error > reports["metric.compatibility"].tolerance

    def test_subseed_mix_separates_lemmas(self):
        a = lemmas._subseed(42, "matrix.det-product", 3, 0)
        b = lemmas._subseed(42, "matrix.det-oracle", 3, 0)
        c = lemmas._subseed(42, "matrix.det-product", 3, 1)
        assert len({a, b, c}) == 3
        assert a == lemmas._subseed(42, "matrix.det-product", 3, 0)


def _replace_check(monkeypatch, lemma_id, complex_half):
    """Keep ``lemma_id``'s real half; its complex half calls ``complex_half()``."""

    def wrap(check):
        def patched(rng, n, field):
            return complex_half() if field == COMPLEX else check(rng, n, field)
        return patched

    monkeypatch.setattr(lemmas, "REGISTRY", tuple(
        dataclasses.replace(lemma, check=wrap(lemma.check)) if lemma.lemma_id == lemma_id else lemma
        for lemma in lemmas.REGISTRY
    ))


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


class TestNonFiniteResiduals:
    def test_nan_in_the_complex_half_fails_the_lemma(self, monkeypatch):
        _replace_check(monkeypatch, "metric.compatibility", lambda: math.nan)
        reports = {r.lemma_id: r for r in run_lemma_suite(42, dims=(3,), instances=1)}
        assert reports["metric.compatibility"].status == "fail"
        assert math.isnan(reports["metric.compatibility"].max_error)
        assert reports["metric.compatibility"].to_dict()["max_error"] == LARGEST_DOUBLE
        assert reports["metric.signature-sum"].status == "pass"

    def test_nan_inside_a_residual_sequence_fails_the_lemma(self, monkeypatch):
        _replace_check(monkeypatch, "matrix.conjugation-rules", lambda: (0.0, math.nan, 0.0))
        reports = {r.lemma_id: r for r in run_lemma_suite(42, dims=(2,), instances=1)}
        assert reports["matrix.conjugation-rules"].status == "fail"

    def test_domain_error_in_the_complex_half_scores_inf(self, monkeypatch):
        def raises():
            raise SymmetryError("complex half only")

        _replace_check(monkeypatch, "metric.compatibility", raises)
        reports = {r.lemma_id: r for r in run_lemma_suite(42, dims=(3,), instances=1)}
        assert reports["metric.compatibility"].max_error == math.inf
        assert reports["metric.compatibility"].status == "fail"

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_report_serializes_non_finite_as_the_largest_double(self, value):
        report = LemmaReport("x", 1, value, 0.0, "fail", 42)
        assert report.to_dict()["max_error"] == LARGEST_DOUBLE

    def test_verify_exits_1_with_finite_json(self, monkeypatch, capsys):
        _replace_check(monkeypatch, "metric.compatibility", lambda: math.nan)
        code = main(["verify", "--seed", "42", "--dims", "2", "--instances", "1"])
        doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert code == 1 and doc["status"] == "fail"
        report = next(r for r in doc["reports"] if r["lemma_id"] == "metric.compatibility")
        assert report["status"] == "fail" and report["max_error"] == LARGEST_DOUBLE


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once ``seconds`` have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _in_child(action, otherwise):
    """A complex half that runs ``action()`` in a forked share and ``otherwise()`` here."""
    parent = os.getpid()
    return lambda: action() if os.getpid() != parent else otherwise()


def _raise(exc):
    raise exc


def _documents(reports):
    return json.dumps([r.to_dict() for r in reports]).encode()


# With dims=(3,) and one instance, unit i is lemma i and runs alone.  Of k
# shares, share j runs unit j first; the units from k on go to whichever
# share asks the queue first.  Share 0 runs in this process.
SHARE_DIMS = (3,)


class TestShares:
    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def shares(monkeypatch, count):
        monkeypatch.setattr(lemmas, "_share_count", lambda units: count)

    @pytest.mark.parametrize("seed", [7, 42])
    @pytest.mark.parametrize("dims", [None, (7, 12)])
    def test_reports_do_not_depend_on_the_share_count(self, monkeypatch, seed, dims):
        runs = []
        for count in (1, 2, 3, 4):
            self.shares(monkeypatch, count)
            runs.append(run_lemma_suite(seed, dims=dims, instances=1))
        assert runs[0] == runs[1] == runs[2] == runs[3]
        assert _documents(runs[0]) == _documents(runs[1]) == _documents(runs[2]) == _documents(runs[3])

    @pytest.mark.parametrize("value, check", [
        (math.nan, math.isnan),
        (SymmetryError("complex half only"), math.isinf),
    ])
    def test_a_non_finite_residual_in_a_child_fails_its_lemma_as_serially(self, monkeypatch, value, check):
        lemma_id = REGISTRY[1].lemma_id
        half = (lambda: _raise(value)) if isinstance(value, Exception) else (lambda: value)
        _replace_check(monkeypatch, lemma_id, _in_child(half, lambda: 0.0))
        self.shares(monkeypatch, 2)
        forked = run_lemma_suite(42, dims=SHARE_DIMS, instances=1)
        report = forked[1]
        assert report.status == "fail" and check(report.max_error)
        _replace_check(monkeypatch, lemma_id, half)
        self.shares(monkeypatch, 1)
        assert _documents(forked) == _documents(run_lemma_suite(42, dims=SHARE_DIMS, instances=1))

    def test_an_exception_in_a_child_propagates(self, monkeypatch):
        # Share 3, a child, runs unit 3 first.
        _replace_check(monkeypatch, REGISTRY[3].lemma_id,
                       _in_child(lambda: _raise(ValueError("bad draw")), lambda: 0.0))
        self.shares(monkeypatch, 4)
        with pytest.raises(ValueError, match="^bad draw$"):
            run_lemma_suite(42, dims=SHARE_DIMS, instances=1)

    @pytest.mark.parametrize("count, first, second", [
        (2, 3, 6),  # two queued units, whichever shares take them
        (2, 2, 5),
        (3, 4, 2),  # a queued unit after a child's first unit
        (2, 1, 0),  # a child's first unit after this process's
        (3, 2, 1),  # two children's first units
    ])
    def test_the_earliest_unit_raises_when_two_shares_do(self, monkeypatch, count, first, second):
        early, late = sorted((first, second))
        for index in (first, second):
            _replace_check(monkeypatch, REGISTRY[index].lemma_id,
                           lambda index=index: _raise(ValueError(f"unit {index}")))
        self.shares(monkeypatch, count)
        with pytest.raises(ValueError, match=f"^unit {early}$"):
            run_lemma_suite(42, dims=SHARE_DIMS, instances=1)

    def test_a_child_that_dies_raises(self, monkeypatch):
        _replace_check(monkeypatch, REGISTRY[1].lemma_id, _in_child(lambda: os._exit(3), lambda: 0.0))
        self.shares(monkeypatch, 2)
        with _deadline(60), pytest.raises(RuntimeError, match="share 1 of 2 ended with exit status 3"):
            run_lemma_suite(42, dims=SHARE_DIMS, instances=1)

    def test_an_interrupt_here_kills_the_children(self, monkeypatch):
        _replace_check(monkeypatch, REGISTRY[1].lemma_id, _in_child(lambda: time.sleep(60), lambda: 0.0))
        _replace_check(monkeypatch, REGISTRY[2].lemma_id,
                       _in_child(lambda: 0.0, lambda: _raise(KeyboardInterrupt())))
        self.shares(monkeypatch, 2)
        with _deadline(30), pytest.raises(KeyboardInterrupt):
            run_lemma_suite(42, dims=SHARE_DIMS, instances=1)

    def test_one_cpu_never_forks(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", lambda: _raise(AssertionError("forked")))
        assert lemmas._share_count(100) == 1
        reports = run_lemma_suite(42, dims=SHARE_DIMS, instances=1)
        assert all(r.status == "pass" for r in reports)

    def test_no_fork_means_one_share(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert lemmas._share_count(100) == 1

    def test_shares_are_capped_at_the_units(self):
        assert lemmas._share_count(1) == 1
        assert 1 <= lemmas._share_count(10**6) <= max(1, os.cpu_count() or 1)

    def test_a_slow_share_takes_fewer_units(self, monkeypatch):
        # A unit takes 0.2 s in the child and no time here, so this process
        # takes the queued units while the child sleeps through its first.
        # A fixed split would give the child every other unit.
        slow = _in_child(lambda: time.sleep(0.2) or 1.0, lambda: 0.0)
        for lemma in REGISTRY:
            _replace_check(monkeypatch, lemma.lemma_id, slow)
        self.shares(monkeypatch, 2)
        with _deadline(60):
            reports = run_lemma_suite(42, dims=SHARE_DIMS, instances=1)
        assert len(reports) == 42
        assert sum(report.max_error == 1.0 for report in reports) <= 3

    def test_a_suite_of_more_units_than_queued_runs_reports_the_same(self, monkeypatch):
        # 1,245 units, more than _MAX_RUNS: the queue hands out runs of two.
        documents = []
        for count in (1, 2, 3):
            self.shares(monkeypatch, count)
            reports = run_lemma_suite(7, dims=(1, 2), instances=15)
            documents.append(_documents(reports))
        assert sum(report.instances for report in reports) > lemmas._MAX_RUNS
        assert documents[0] == documents[1] == documents[2]

    def test_a_large_suite_never_blocks_on_its_queue(self, monkeypatch):
        # 24,350 units in 1,015 runs of 24: the most runs the queue holds, nearly.
        monkeypatch.setattr(lemmas, "REGISTRY", tuple(
            dataclasses.replace(lemma, check=lambda rng, n, field: 0.0) for lemma in lemmas.REGISTRY
        ))
        self.shares(monkeypatch, 2)
        with _deadline(60):
            reports = run_lemma_suite(42, dims=range(1, 13), instances=50)
        assert sum(report.instances for report in reports) == 24350
        assert all(report.max_error == 0.0 for report in reports)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to list open descriptors")
    @pytest.mark.parametrize("outcome", [None, ValueError, KeyboardInterrupt])
    def test_the_suite_leaves_no_file_descriptor_open(self, monkeypatch, outcome):
        if outcome is ValueError:
            _replace_check(monkeypatch, REGISTRY[3].lemma_id, lambda: _raise(ValueError("bad draw")))
        if outcome is KeyboardInterrupt:
            _replace_check(monkeypatch, REGISTRY[1].lemma_id, _in_child(lambda: time.sleep(60), lambda: 0.0))
            _replace_check(monkeypatch, REGISTRY[2].lemma_id,
                           _in_child(lambda: 0.0, lambda: _raise(KeyboardInterrupt())))
        self.shares(monkeypatch, 2)
        before = set(os.listdir("/proc/self/fd"))
        with _deadline(30), pytest.raises(outcome) if outcome else contextlib.nullcontext():
            run_lemma_suite(42, dims=SHARE_DIMS, instances=1)
        assert set(os.listdir("/proc/self/fd")) == before
