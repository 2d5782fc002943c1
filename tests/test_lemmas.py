import dataclasses
import json
import math

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
        for lemma in REGISTRY
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
