"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench

The generator tests build the driver first (into .bench_build/).
"""

import json
import socket
import subprocess
import tempfile
import threading
import unittest
from pathlib import Path

import host
import run
import samples
import serve_client

REQUESTS = ["plan bcast 0 1000", "plan alltoall 3 2000", "plan bcast 0 1000"]
EXPECTED = ["plan verb=bcast root=0 size=1000 bucket=39 sched=ECEF makespan=1 transfers=5",
            "plan verb=alltoall root=3 size=2000 bucket=42 sched=FEF makespan=2 transfers=5",
            "plan verb=bcast root=0 size=1000 bucket=39 sched=ECEF makespan=1 transfers=5"]


class PercentileRule(unittest.TestCase):
    def test_refuses_percentiles_with_fewer_than_ten_samples_beyond(self):
        self.assertIsNone(samples.percentile(list(range(19)), 0.50))
        self.assertEqual(samples.percentile(list(range(20)), 0.50), 9)
        self.assertIsNone(samples.percentile(list(range(999)), 0.99))
        self.assertEqual(samples.percentile(list(range(1000)), 0.99), 989)

    def test_refuses_quantiles_outside_the_open_unit_interval(self):
        values = list(range(5000))
        self.assertIsNone(samples.percentile(values, 0.0))
        self.assertIsNone(samples.percentile(values, 1.0))
        self.assertIsNone(samples.percentile([], 0.5))


class HostScaling(unittest.TestCase):
    def test_a_host_slowdown_that_slows_the_reference_alike_cancels(self):
        items = [0.020, 0.030, 0.025, 0.020] * 5
        fast = samples.host_scaled(items, [samples.REFERENCE_S] * 20)
        # The second half of the run on a host 1.6x slower throughout.
        slow = samples.host_scaled(items[:10] + [t * 1.6 for t in items[10:]],
                                   [samples.REFERENCE_S] * 10 + [samples.REFERENCE_S * 1.6] * 10)
        for a, b in zip(fast, slow):
            self.assertAlmostEqual(a, b)
        self.assertEqual(fast, items)

    def test_one_stray_reference_time_does_not_move_its_item(self):
        refs = [samples.REFERENCE_S] * 9
        refs[4] *= 3.0
        self.assertEqual(samples.host_scaled([0.01] * 9, refs)[4], 0.01)


class ReplyMatching(unittest.TestCase):
    def test_a_hit_that_overtakes_a_miss_is_matched_to_its_own_request(self):
        replies = [(2.0, EXPECTED[1] + " hit"), (5.0, EXPECTED[0] + " miss")]
        times, failed, hits = serve_client.match_batch([0, 1], replies, REQUESTS, EXPECTED)
        self.assertEqual((times, failed, hits), ([2.0, 5.0], 0, 1))

    def test_an_error_reply_counts_as_a_failed_operation(self):
        replies = [(1.0, EXPECTED[0] + " hit"), (1.5, "error: root cluster 9 out of range")]
        times, failed, _ = serve_client.match_batch([0, 1], replies, REQUESTS, EXPECTED)
        self.assertEqual((times, failed), ([1.0], 1))

    def test_a_wrong_plan_or_a_missing_reply_fails_its_request(self):
        wrong = EXPECTED[0].replace("sched=ECEF", "sched=FEF") + " hit"
        self.assertEqual(serve_client.match_batch([0, 1], [(1.0, wrong)], REQUESTS, EXPECTED),
                         ([], 2, 0))

    def test_repeated_requests_each_need_their_own_reply(self):
        replies = [(1.0, EXPECTED[0] + " miss"), (1.0, EXPECTED[2] + " hit")]
        self.assertEqual(serve_client.match_batch([0, 2, 1], replies, REQUESTS, EXPECTED),
                         ([1.0, 1.0], 1, 1))


class ReversingServer:
    """Answers each batch of plan requests last-first, like hits
    overtaking the misses ahead of them."""

    def __init__(self):
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen()
        self.port = self.sock.getsockname()[1]
        self.threads = [threading.Thread(target=self.session, args=(self.sock.accept,))
                        for _ in range(serve_client.CONNECTIONS)]
        for t in self.threads:
            t.start()

    def session(self, accept):
        conn, _ = accept()
        with conn, conn.makefile("rw") as f:
            while True:
                batch = [f.readline() for _ in range(serve_client.BATCH)]
                if not batch[-1]:
                    return
                for line in reversed(batch):
                    i = REQUESTS.index(line.strip())
                    f.write(EXPECTED[i] + " hit\n")
                f.flush()

    def close(self):
        for t in self.threads:
            t.join()
        self.sock.close()


class BatchClientLoop(unittest.TestCase):
    def test_out_of_order_replies_complete_every_batch_without_failures(self):
        server = ReversingServer()
        client = serve_client.BatchClient(server.port, REQUESTS, EXPECTED)
        try:
            records = client.run(0.05)
        finally:
            client.close()
            server.close()
        self.assertGreaterEqual(len(records), serve_client.CONNECTIONS)
        for r in records:
            self.assertEqual(r["failed"], 0)
            self.assertEqual(len(r["latency_s"]), serve_client.BATCH)


class Generators(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.driver, _ = host.build()

    def generate(self, workload, seed):
        with tempfile.TemporaryDirectory() as d:
            subprocess.run(run.gen_command(self.driver, workload, seed, d), check=True)
            return {p.name: p.read_bytes() for p in sorted(Path(d).iterdir())}

    def test_inputs_are_byte_identical_for_a_seed_and_differ_across_seeds(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.generate(workload, 7)
                self.assertTrue(first)
                self.assertEqual(first, self.generate(workload, 7))
                self.assertNotEqual(first, self.generate(workload, 8))


class Declaration(unittest.TestCase):
    def test_benchmark_json_declares_what_run_reports(self):
        spec = json.loads((host.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
