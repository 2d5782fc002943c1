import dataclasses

import pytest

import kreinalg.lemmas as lemmas
from kreinalg.lemmas import REGISTRY, run_lemma_suite


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
