"""Self-tests of the benchmark's own machinery.

    python3 bench/selftest.py

Takes a few seconds; it starts a few short pairsum processes.
"""

from __future__ import annotations

import os
import sys
import unittest

import checks
import launch
import run
import tracing
import workloads

sys.path.insert(0, str(launch.SRC))

from pairsum import Mode, chi  # noqa: E402


class JobListTest(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        for name in workloads.NAMES:
            self.assertEqual(workloads.job_list(name, 7), workloads.job_list(name, 7))
        self.assertNotEqual(workloads.job_list("cli-small", 7), workloads.job_list("cli-small", 8))

    def test_every_generated_job_has_a_digest(self):
        digests = checks.load_digests()
        for name in workloads.NAMES:
            for seed in range(5):
                for argv in workloads.job_list(name, seed):
                    self.assertIn(" ".join(argv), digests)

    def test_workers_never_exceed_cpus(self):
        for argv in workloads.all_jobs():
            if "--workers" in argv:
                self.assertLessEqual(int(workloads.option(argv, "--workers", "1")), os.cpu_count())


class ClosedFormTest(unittest.TestCase):
    def test_matches_pipeline(self):
        for n in range(1, 13):
            self.assertEqual(checks.closed_form_chi(n), list(chi(n, Mode.CORRECTED).coeffs), n)

    def test_parse_poly(self):
        self.assertEqual(checks.parse_poly("t^3 - 9t^2 + 27t - 27"), [-27, 27, -9, 1])
        self.assertEqual(checks.parse_poly("t^{10} - t + 1"), [1, -1] + [0] * 8 + [1])


class FailureCountingTest(unittest.TestCase):
    def test_corrupted_stdout_fails(self):
        argv = ["charpoly", "--n", "3", "--mode", "corrected", "--format", "text"]
        digests = checks.load_digests()
        good = launch.run_job(argv, 60)
        self.assertIsNone(checks.check_job(argv, good.returncode, good.stdout, digests))
        corrupted = good.stdout.replace(b"27t", b"28t")
        self.assertIsNotNone(checks.check_job(argv, 0, corrupted, digests))
        # without the digest, the closed form still catches the wrong coefficient
        self.assertIsNotNone(checks.check_closed_form(argv, corrupted.decode()))

    def test_nonzero_exit_and_timeout_fail(self):
        argv = ["charpoly", "--n", "99", "--mode", "corrected", "--format", "text"]
        bad = launch.run_job(argv, 60)
        self.assertEqual(bad.returncode, 2)
        self.assertIsNotNone(checks.check_job(argv, bad.returncode, bad.stdout, {}))
        self.assertIsNotNone(checks.check_job(argv, None, b"", {}))

    def test_worker_mismatch_fails(self):
        base = ["verify", "--n", "2", "--format", "json"]
        one = launch.JobResult(base + ["--workers", "1"], 0.0, 0, b'{"workers":1,"result":"PASS"}', b"", 0.0)
        two = launch.JobResult(base + ["--workers", "2"], 0.0, 0, b'{"workers":2,"result":"PASS"}', b"", 0.0)
        other = launch.JobResult(base + ["--workers", "2"], 0.0, 0, b'{"workers":2,"result":"FAIL"}', b"", 0.0)
        failures: dict[int, str] = {}
        run._worker_mismatches([one, two], failures)
        self.assertEqual(failures, {})
        run._worker_mismatches([one, other], failures)
        self.assertEqual(list(failures), [1])


class TracedPassTest(unittest.TestCase):
    def test_traced_stdout_matches_processes(self):
        from pairsum import cli

        jobs = [
            ["table", "--to", "6", "--mode", "paper", "--format", "json"],
            ["verify", "--n", "4", "--workers", "1", "--format", "json"],
        ]
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer):
            traced = [tracing._call_main(cli.main, argv, tracer) for argv in jobs]
        for argv, (_, code, out) in zip(jobs, traced):
            process = launch.run_job(argv, 60)
            self.assertEqual((code, out), (process.returncode, process.stdout))
        names = {s.name for s in tracer.spans}
        self.assertLessEqual({"cli.main", "charpoly.chi_table", "central.product",
                              "central.gamma1_paper", "series.mul", "oracle.whitney_w1"}, names)
        # the wrappers are gone once the context exits
        self.assertFalse(hasattr(cli.chi, "__wrapped__"))

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        tracer.spans = [
            tracing.Span("cli.main", 0.0, 10.0, None, "j0"),
            tracing.Span("central.product", 1.0, 9.0, 0, "j0"),
            tracing.Span("central.gamma0", 1.0, 4.0, 1, "j0"),
            tracing.Span("series.mul", 5.0, 8.0, 1, "j0"),
            tracing.Span("series.exp", 1.5, 3.5, 2, "j0"),
            tracing.Span("series.mul", 2.0, 3.0, 4, "j0"),
        ]
        self.assertEqual(tracer.self_times(), [2.0, 5.0, 3.0, 3.0, 1.0, 1.0])


if __name__ == "__main__":
    unittest.main()
