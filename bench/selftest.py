"""Self-test of the benchmark: its checks bite, its tracer covers, its
inputs are reproducible and valid.

    python3 bench/selftest.py

Corrupted results are fed through the same ``run_round``/``settle`` path
as a real run and must land in the failed count.
"""

import json
import os
import random
import sys
import tempfile
import unittest
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pacing  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lambda_forge import orbit, polytope, simulate  # noqa: E402
from lambda_forge.field import FieldElem, ONE  # noqa: E402


class Corrupting:
    """A workload whose results pass through ``corrupt`` before checking."""

    def __init__(self, inner, corrupt):
        self.inner = inner
        self.corrupt = corrupt
        self.deferred_check = inner.deferred_check

    def run_item(self, item):
        return self.corrupt(item, self.inner.run_item(item))

    def check(self, item, result):
        return self.inner.check(item, result)

    def units(self, item):
        return self.inner.units(item)


def run_batch(wl, batch):
    tally = run.Tally()
    run.run_round(wl, batch, tally)
    run.settle(wl, tally)
    return tally


def small_sample(seed=3, length=4):
    """A sample workload with one single-qubit T-state circuit."""
    wl = workloads.Sample(seed, run.OUT)
    pieces = simulate.decompose_known(workloads.t_state())
    steps = workloads.random_circuit(random.Random(seed), 1, length)
    wl.circuits = {"t1": [(pieces, steps)]}
    dist = simulate.exact_distribution(pieces, steps)
    wl.exact = {("t1", 0): {k: float(p) for k, p in dist.items()}}
    return wl


def verify_workload(seed=5):
    wl = workloads.Verify(seed, run.OUT)
    wl.setup()
    return wl


class ChecksBite(unittest.TestCase):
    def test_probability_off_by_1_1024(self):
        wl = verify_workload()
        batch = next(wl.rounds())
        self.assertEqual(run_batch(wl, batch).failed, 0)

        def skew(item, result):
            lhs, rhs = result
            if item["kind"] == "orbit_update":
                return result
            key = next(iter(lhs))
            lhs = dict(lhs)
            lhs[key] = lhs[key] + FieldElem(Fraction(1, 1024))
            return lhs, rhs

        corrupted = [it for it in batch if it["kind"] != "orbit_update"]
        tally = run_batch(Corrupting(wl, skew), batch)
        self.assertEqual(tally.failed, len(corrupted))
        self.assertGreater(tally.failed / tally.attempted, 0)

    def test_vertex_flag_flipped(self):
        os.makedirs(run.OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            wl = workloads.Certify(0, tmp)
            a0 = orbit.alpha0_vertex()
            b = workloads.random_clifford(random.Random(1), 2).conjugate(a0)
            self.assertNotEqual(a0, b)
            half = FieldElem(Fraction(1, 2))
            q = polytope.enumerate_vertices_n1()[0]
            cases = [(a0, True, True), (q.tensor(q), False, None),
                     (a0.scale(half) + b.scale(half), True, False)]
            batch = []
            for j, (op, member, vertex) in enumerate(cases):
                path = os.path.join(tmp, f"op{j}.json")
                with open(path, "w") as fh:
                    json.dump(op.to_json(), fh)
                for argv in (["vertex", path], ["membership", "--vertex", path]):
                    batch.append({"kind": "fixture", "argv": argv,
                                  "expected": {"n": 2, "member": member, "vertex": vertex}})
            self.assertEqual(run_batch(wl, batch).failed, 0)

            def flip(item, result):
                code, doc = result
                if "vertex" in doc["payload"]:
                    doc["payload"]["vertex"] = not doc["payload"]["vertex"]
                return code, doc

            members = sum(1 for it in batch if it["expected"]["member"])
            self.assertEqual(run_batch(Corrupting(wl, flip), batch).failed, members)

    def test_skewed_counts(self):
        wl = small_sample()
        batch = [wl.make_item("t1", random.Random(i), 0) for i in range(3)]
        self.assertEqual(run_batch(wl, batch).failed, 0)

        def skew(item, counts):
            ranked = [k for k, _ in counts.most_common()]
            counts = Counter(counts)
            moved = counts[ranked[0]] // 5
            counts[ranked[0]] -= moved
            counts[ranked[-1]] += moved
            return counts

        self.assertEqual(run_batch(Corrupting(wl, skew), batch).failed, len(batch))

    def test_fit_pools_cells_independently_of_counts(self):
        # 16 equally likely transcripts, 24 shots: pooling the cells by
        # observed count would reject this sample at p < 1e-6
        keys = [tuple((i >> b) & 1 for b in range(4)) for i in range(16)]
        probs = {k: 1 / 16 for k in keys}
        observed = (0, 0, 1, 0, 1, 6, 0, 2, 1, 1, 0, 2, 6, 0, 4, 0)
        self.assertTrue(workloads.check_counts(dict(zip(keys, observed)), probs, 24))

    def test_raising_item_counts_as_failed(self):
        wl = verify_workload()

        def boom(item, result):
            raise ValueError("corrupted")

        batch = next(wl.rounds())
        self.assertEqual(run_batch(Corrupting(wl, boom), batch).failed, len(batch))


class FallbackKeyword(unittest.TestCase):
    def test_both_call_paths(self):
        def with_kw(initial, steps, oracle_fallback=False):
            return oracle_fallback

        def without_kw(initial, steps):
            return None

        self.assertEqual(workloads.with_fallback(with_kw), {"oracle_fallback": True})
        self.assertEqual(workloads.with_fallback(without_kw), {})

    def test_workloads_run_against_stubs_without_the_keyword(self):
        real_exact, real_sample = simulate.exact_distribution, simulate.sample

        def exact_stub(initial, steps):
            return real_exact(initial, steps, **workloads.with_fallback(real_exact))

        def sample_stub(initial, steps, seed, shots=1):
            return real_sample(initial, steps, seed=seed, shots=shots,
                               **workloads.with_fallback(real_sample))

        wl = verify_workload()
        batch = [it for it in next(wl.rounds()) if it["kind"] != "orbit_update"]
        simulate.exact_distribution, simulate.sample = exact_stub, sample_stub
        try:
            self.assertEqual(workloads.with_fallback(simulate.exact_distribution), {})
            self.assertEqual(run_batch(wl, batch).failed, 0)
            sw = small_sample(length=3)
            self.assertEqual(run_batch(sw, [sw.make_item("t1", random.Random(1), 0)]).failed, 0)
        finally:
            simulate.exact_distribution, simulate.sample = real_exact, real_sample


class Tracing(unittest.TestCase):
    def test_wrappers_count_and_uninstall(self):
        original = polytope.membership
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(polytope.membership, original)
            polytope.membership(orbit.alpha0_vertex())
        finally:
            tracer.uninstall()
        self.assertIs(polytope.membership, original)
        metrics = tracer.metrics()
        self.assertEqual(metrics["polytope.membership.calls"][0], 1)
        self.assertGreater(metrics["field.ops"][0], 0)
        self.assertIn("orbit.enumerate_family", tracer.missing("certify"))
        self.assertNotIn("polytope.membership", tracer.missing("certify"))

    def test_every_layer_has_both_metrics(self):
        metrics = tracing.Tracer().metrics()
        for name, _, _ in tracing.LAYERS:
            self.assertIn(f"{name}.calls", metrics)
            self.assertIn(f"{name}.self_ms", metrics)


class Pacing(unittest.TestCase):
    def test_measure_paces_every_item_and_the_thread_stops(self):
        wl = small_sample()
        items = [wl.make_item("t1", random.Random(i), 0) for i in range(3)]
        pacer = pacing.Pacer().start()
        try:
            tally = run.Tally()
            latencies, ok, wall = run.measure(wl, items, tally, pacer)
        finally:
            pacer.stop()
        self.assertFalse(pacer._thread.is_alive())
        self.assertEqual((tally.attempted, tally.failed), (3, 0))
        self.assertTrue(all(ok))
        self.assertTrue(all(lat > 0 for lat in latencies))
        self.assertGreater(len(pacer.times), 0)
        self.assertGreater(pacer.pace(0.0, wall), 0)

    def test_probe_is_fixed_work(self):
        self.assertEqual(pacing.probe(), pacing.probe())


class Inputs(unittest.TestCase):
    def test_digest_repeats_for_one_seed(self):
        self.assertEqual(verify_workload(5).inputs_digest(), verify_workload(5).inputs_digest())
        self.assertNotEqual(verify_workload(5).inputs_digest(), verify_workload(6).inputs_digest())

    def test_conditions_refer_to_earlier_steps(self):
        rng = random.Random(0)
        for _ in range(200):
            steps = workloads.random_circuit(rng, 2, 4)
            for i, (_, cond) in enumerate(steps):
                self.assertTrue(cond is None or all(j < i for j in cond))

    def test_shots_positive(self):
        self.assertTrue(all(s > 0 for s in workloads.Sample.SHOTS.values()))

    def test_t_state_pieces_sum_to_one(self):
        pieces = simulate.decompose_known(workloads.t_state())
        total = sum((w for w, _ in pieces), FieldElem(0))
        self.assertEqual(total, ONE)


if __name__ == "__main__":
    unittest.main()
