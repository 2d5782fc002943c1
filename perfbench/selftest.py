"""Self-tests of the benchmark's own machinery: oracles, failure accounting, spans.

Run from the root of a checkout:  python3 perfbench/selftest.py
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Raised, Workload, attempt, grade  # noqa: E402


class OracleTests(unittest.TestCase):
    def setUp(self):
        self.inst = inputs.structure_instance(np.random.default_rng(0), 4, inputs.COMPLEX, "pair")

    def decomposition(self, eigenvalues, rebuilt):
        return types.SimpleNamespace(eigenvalues=tuple(eigenvalues),
                                     multiplicities=(1,) * len(eigenvalues),
                                     reconstruct=lambda: rebuilt)

    def test_structure_oracle_accepts_the_right_answer(self):
        self.assertTrue(oracles.check_dirac(self.inst, self.decomposition(self.inst.lam, self.inst.f)))

    def test_structure_oracle_rejects_a_wrong_spectrum(self):
        wrong = self.inst.lam + np.array([1e-6, 0, 0, 0])
        self.assertFalse(oracles.check_dirac(self.inst, self.decomposition(wrong, self.inst.f)))

    def test_structure_oracle_rejects_a_wrong_reconstruction(self):
        dec = self.decomposition(self.inst.lam, self.inst.f + 1e-6)
        self.assertFalse(oracles.check_dirac(self.inst, dec))

    def test_instances_satisfy_their_own_identities(self):
        inst = self.inst
        self.assertTrue(oracles.close(inst.h @ inst.h, np.eye(4)))
        self.assertTrue(oracles.close(np.linalg.inv(inst.g) @ inst.k, inst.h))
        self.assertTrue(oracles.close(inst.u.conj().T @ inst.k @ inst.u, inst.k))

    def test_cli_oracle_rejects_a_wrong_answer(self):
        docs = dict(inputs.TINY_DOCUMENTS)
        self.assertTrue(oracles.cli_det(docs, {"det": [-2.0000000000000004, 0.0]}, "a22"))
        self.assertFalse(oracles.cli_det(docs, {"det": [-2.001, 0.0]}, "a22"))
        wrong = np.kron(docs["a22"], docs["swap"]).T
        result = {"matrix": inputs.matrix_document(wrong)}
        self.assertFalse(oracles.cli_kron(docs, result, "a22", "swap"))


class FailureAccountingTests(unittest.TestCase):
    class Fake(Workload):
        round_len = 2
        in_process = True
        steps = (("boom", lambda r: True), ("after", lambda r: r == 7))

        def run_op(self, i, tracer=None):
            def boom():
                time.sleep(0.02)
                raise ValueError("step failed")

            return attempt(boom), attempt(lambda: 7)

        def check(self, i, out):
            return grade(self.steps, out, (), "fake")

    def test_raising_step_is_failed_and_still_timed(self):
        spans, tally = run.measure(self.Fake(), count=3)
        latencies = run.durations(spans)
        self.assertEqual(len(latencies), 3)
        self.assertTrue(all(t >= 0.02 for t in latencies))
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (6, 3, 0))
        self.assertEqual(tally.notes["fake boom: raised ValueError"], 3)

    def test_later_steps_run_after_a_raise(self):
        out = self.Fake().run_op(0)
        self.assertIsInstance(out[0], Raised)
        self.assertEqual(out[1], 7)

    def test_wrong_answer_is_failed_and_wrong(self):
        tally = grade((("s", lambda r: r == 1),), (2,), (), "fake")
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (1, 1, 1))

    def test_timed_loop_runs_whole_rounds(self):
        spans, _ = run.measure(self.Fake(), seconds=0.01)
        self.assertEqual(len(spans) % self.Fake.round_len, 0)


class CliFailureTests(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.workdir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def test_request_that_times_out_is_failed_and_traced_run_goes_on(self):
        cli = workloads.Cli(0, self.workdir)
        cli.setup()
        saved = workloads.CHILD_TIMEOUT_S
        workloads.CHILD_TIMEOUT_S = 0.01
        try:
            tracer = tracing.Tracer()
            spans, tally = run.measure(cli, count=1, tracer=tracer)
        finally:
            workloads.CHILD_TIMEOUT_S = saved
        self.assertEqual(len(spans), 1)
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (1, 1, 0))

    def test_launcher_writes_spans_when_main_raises(self):
        inputs.write_documents(self.workdir, {"a22": inputs.TINY_DOCUMENTS["a22"]})
        out = self.workdir / "spans.json"
        argv = ["launch.py", str(out), "3", "det", "--in", str(self.workdir / "a22.json")]
        # An exception the CLI does not handle, raised inside the det handler.
        code = ("import sys, kreinalg.cli, launch\n"
                "def boom(matrix):\n    raise RuntimeError('unhandled')\n"
                "kreinalg.cli.determinant = boom\n"
                f"sys.argv = {argv!r}\n"
                "launch.main()\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"), str(HERE)]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                              timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn(b"RuntimeError", proc.stderr)
        spans = json.loads(out.read_text())["spans"]
        failed = {name for op, name, _start, _end, _parent, error in spans if error and op == 3}
        self.assertTrue({"cli.main", "cli._cmd_det"} <= failed, failed)


class VerifySeedTests(unittest.TestCase):
    def test_every_round_covers_the_same_suite_seeds(self):
        verify = workloads.Verify(42, Path("."))
        seeds = [verify.suite_seed(i) for i in range(3 * verify.round_len)]
        first = set(seeds[:verify.round_len])
        self.assertIn(42, first)
        for start in range(0, len(seeds), verify.round_len):
            self.assertEqual(set(seeds[start:start + verify.round_len]), first)


class VerifyAccountingTests(unittest.TestCase):
    def setUp(self):
        import kreinalg.cli  # noqa: F401

        self.tmp = tempfile.TemporaryDirectory()
        self.verify = workloads.Verify(42, Path(self.tmp.name))
        self.verify.kreinalg = sys.modules["kreinalg"]

    def tearDown(self):
        self.tmp.cleanup()

    def suite(self, i, failing):
        """A hand-made report of op i's suite in which the lemmas ``failing`` fail."""
        reports = [{"lemma_id": lemma.lemma_id, "status": "fail" if lemma.lemma_id in failing
                    else "pass", "max_error": 1.0 if lemma.lemma_id in failing else 0.0,
                    "tolerance": 0.5} for lemma in self.verify.kreinalg.lemmas.REGISTRY]
        path = Path(self.tmp.name) / f"verify-{i}.json"
        path.write_text(json.dumps({"seed": self.verify.suite_seed(i), "dims": [1, 2, 3, 4, 5, 6],
                                    "instances": 5, "reports": reports,
                                    "status": "fail" if failing else "pass"}))
        return (1 if failing else 0, path)

    def test_a_suite_seed_counts_once_however_often_it_runs(self):
        lemmas = [lemma.lemma_id for lemma in self.verify.kreinalg.lemmas.REGISTRY]
        tally = workloads.Tally()
        for i in range(6):  # three rounds; only the first suite seed fails a lemma
            tally += self.verify.check(i, self.suite(i, lemmas[:1] if i % 2 == 0 else []))
        self.assertEqual((tally.attempted, tally.failed, tally.wrong),
                         (2 * len(lemmas), 1, 0))
        self.assertEqual(self.verify.failed_ratio(tally), 1 / len(lemmas))

    def test_a_repeat_that_differs_from_its_first_suite_is_wrong(self):
        lemmas = [lemma.lemma_id for lemma in self.verify.kreinalg.lemmas.REGISTRY]
        tally = self.verify.check(0, self.suite(0, []))
        tally += self.verify.check(2, self.suite(2, lemmas[:1]))
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (len(lemmas), 0, 1))


class HostSpeedTests(unittest.TestCase):
    def test_scaled_drops_probe_time_and_divides_by_the_local_slowdown(self):
        speed = hostspeed.HostSpeed()
        ref = hostspeed.REF_COMPUTE_S
        speed.starts, speed.seconds = [10.2, 10.5, 30.0], [2 * ref, 2 * ref, 8 * ref]
        self.assertAlmostEqual(speed.scaled(10.0, 11.0), (1.0 - 4 * ref) / 2)
        self.assertAlmostEqual(speed.scaled(30.5, 30.7), 0.2 / 8)
        self.assertEqual(speed.slowdown(20.0, 21.0), 1.0)

    def test_in_process_loop_is_probed_and_probe_time_is_not_op_time(self):
        speed = hostspeed.HostSpeed()
        spans, _ = run.measure(FailureAccountingTests.Fake(), count=20, speed=speed, inside=True)
        latencies = run.durations(spans, speed)
        self.assertGreater(len(speed.seconds), 2)
        self.assertFalse(speed.busy)
        slow = speed.slowdown()
        # Each op sleeps 20 ms; scaling divides it by the host slowdown.
        self.assertAlmostEqual(statistics.median(latencies) * slow, 0.02, delta=0.01)

    def test_cli_loop_probes_child_interpreter_starts_between_ops(self):
        speed = hostspeed.HostSpeed(in_process=False)
        fake = FailureAccountingTests.Fake()
        fake.in_process = False
        run.measure(fake, count=2, speed=speed)
        self.assertEqual(len(speed.seconds), 2 * hostspeed.STARTS_BETWEEN_OPS)
        self.assertGreater(min(speed.seconds), 0.0)

    def test_traced_loop_probes_only_between_ops(self):
        speed = hostspeed.HostSpeed()
        tracer = tracing.Tracer()
        spans, _ = run.measure(FailureAccountingTests.Fake(), count=3, tracer=tracer,
                               speed=speed)
        self.assertEqual(len(speed.seconds), 3 * hostspeed.COMPUTES_BETWEEN_OPS)
        for start, end in spans:
            self.assertFalse(any(start <= probe <= end for probe in speed.starts))


class SpanTests(unittest.TestCase):
    def test_self_time_of_nested_spans_adds_up_to_the_parent(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("t.inner", lambda: time.sleep(0.003))

        def middle_body():
            inner()
            time.sleep(0.002)
            inner()

        middle = tracer.wrap("t.middle", middle_body)

        def outer_body():
            middle()
            time.sleep(0.001)

        tracer.wrap("t.outer", outer_body)()
        stats = tracing.summarize(tracer.spans)
        root = tracer.spans[0]
        self.assertEqual(root[1], "t.outer")
        self.assertAlmostEqual(sum(e[1] for e in stats.values()), root[3] - root[2], delta=1e-9)
        self.assertEqual(stats["t.inner"][0], 2)
        self.assertGreaterEqual(stats["t.middle"][1], 0.002)

    def test_error_is_recorded_and_propagates(self):
        tracer = tracing.Tracer()

        def fail():
            raise KeyError("x")

        with self.assertRaises(KeyError):
            tracer.wrap("t.fail", fail)()
        self.assertEqual(tracing.summarize(tracer.spans)["t.fail"][2], 1)
        self.assertEqual(tracer.stack, [])

    def test_merge_reindexes_parents(self):
        tracer = tracing.Tracer()
        tracer.wrap("t.first", lambda: None)()
        tracer.merge([[0, "c.outer", 0.0, 1.0, -1, False], [0, "c.inner", 0.2, 0.5, 0, False]],
                     {"io.bytes_in": 3})
        self.assertEqual(tracer.spans[2][4], 1)
        self.assertAlmostEqual(tracing.summarize(tracer.spans)["c.outer"][1], 0.7)
        self.assertEqual(tracer.counters["io.bytes_in"], 3)

    def test_install_patches_every_binding_site_and_restores(self):
        import kreinalg

        original = kreinalg.eigen.jacobi_hermitian
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            self.assertIsNot(kreinalg.eigen.jacobi_hermitian, original)
            for module in (kreinalg, kreinalg.unitary, kreinalg.indefinite, kreinalg.lemmas):
                self.assertIs(module.jacobi_hermitian, kreinalg.eigen.jacobi_hermitian)
            kreinalg.eigen_hermitian(np.array([[2.0, 1.0], [1.0, 2.0]]))
            space = kreinalg.VectorSpace(2)
            with self.assertRaises(kreinalg.SingularBasisError):
                kreinalg.Basis(space, np.zeros((2, 2)))
        finally:
            restore()
        self.assertIs(kreinalg.unitary.jacobi_hermitian, original)
        stats = tracing.summarize(tracer.spans)
        jacobi = [s for s in tracer.spans if s[1] == "eigen.jacobi_hermitian"][0]
        self.assertEqual(tracer.spans[jacobi[4]][1], "eigen.eigen_hermitian")
        self.assertEqual(tracer.counters["eigen.jacobi_hermitian.sweeps"], 1)
        self.assertEqual(stats["spaces.Basis"][2], 1)


class ContractTests(unittest.TestCase):
    def test_benchmark_json_lists_every_reported_metric(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         [tuple(m) for m in tracing.PER_LAYER])
        metrics, _lines = run.end_to_end([0.1, 0.2], 0.25, [1.0, 2.0, 3.0], 50.0)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         [(name, unit) for name, (_value, unit) in metrics.items()])
        values = tracing.layer_metrics({}, {}, 1, 1.0)
        self.assertEqual(list(values), [m["name"] for m in bench["per_layer"]])


if __name__ == "__main__":
    unittest.main()
