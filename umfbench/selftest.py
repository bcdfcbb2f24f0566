"""Self-tests of the benchmark: each output check accepts the program's real
output and rejects a deliberately corrupted copy, the tracer covers every
per-layer metric, and every workload runs end to end in smoke mode.

    python3 umfbench/selftest.py

Takes about a minute; the eval tests train a small model first.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run

run._import_library()

import checks  # noqa: E402
import tracing  # noqa: E402
from umfdet import instruct  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = run.WORK / "selftest"


def _one_round(name):
    wl = WORKLOADS[name](3, WORK / name, smoke=True)
    wl.setup()
    return wl, wl.run(wl.prepare())


class TrainChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl, cls.result = _one_round("train")
        cls.params = cls.wl.params

    def test_real_output_passes(self):
        self.wl.check(self.result)

    def test_history_row_that_does_not_decompose_fails(self):
        path = Path(self.result.history_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[3].split(",")
        fields[3] = f"{float(fields[3]) + 0.01:.6f}"     # loss_total
        bad = WORK / "bad_history.csv"
        bad.write_text("\n".join(lines[:3] + [",".join(fields)] + lines[4:]) + "\n",
                       encoding="utf-8")
        checks.check_history(path, self.params.config.lambda_cot)
        with self.assertRaisesRegex(checks.CheckFailed, "loss_total"):
            checks.check_history(bad, self.params.config.lambda_cot)

    def test_checkpoint_that_differs_by_one_value_fails(self):
        params = copy.deepcopy(self.params)
        params.tensors["head.b"].values[0] += 1e-12
        with self.assertRaisesRegex(checks.CheckFailed, "head.b"):
            checks.check_checkpoint(params, self.wl.vocab, self.result.checkpoint_dir)


class EvalChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl, cls.result = _one_round("eval")

    def test_real_output_passes(self):
        self.wl.check(self.result)

    def test_flipped_greedy_token_fails(self):
        preds = list(self.result.predictions)
        sid, true, pred, text = preds[0]
        tokens = self.wl.vocab.encode(text)
        i = len(tokens) // 2
        first_word = len(instruct.RESERVED_TOKENS)
        tokens[i] = first_word if tokens[i] != first_word else first_word + 1
        preds[0] = (sid, true, pred, self.wl.vocab.decode(tokens))
        with self.assertRaisesRegex(checks.CheckFailed, f"token {i} "):
            checks.check_greedy(self.wl.params, self.wl.held_out, self.wl.vocab,
                                self.wl.template, preds)

    def test_miscounted_prediction_fails(self):
        n = len(self.wl.held_out)
        metrics = dataclasses.replace(self.result.metrics,
                                      accuracy=self.result.metrics.accuracy - 1 / n)
        bad = dataclasses.replace(self.result, metrics=metrics)
        with self.assertRaisesRegex(checks.CheckFailed, "recount"):
            checks.check_accuracy(self.wl.held_out, bad, 0.0)


class CorpusChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl, cls.out = _one_round("corpus")

    def test_real_output_passes(self):
        self.wl.check(self.out)

    def test_manifest_line_that_does_not_round_trip_fails(self):
        lines = Path(self.out.manifest).read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        record["title"] += " today"
        lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        bad = WORK / "bad_manifest.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with self.assertRaisesRegex(checks.CheckFailed, "line 2 "):
            checks.check_manifest(self.out.posts, bad, self.out.loaded)

    def test_fabricated_title_that_drops_an_entity_fails(self):
        fabricated = copy.deepcopy(self.out.fabricated)
        fab = fabricated[0]
        entity = fab.annotation.rewrite_log["preserved_entities"][0]
        fab.title = fab.title.replace(entity, "someone")
        fab.annotation.rewrite_log["output_title"] = fab.title
        with self.assertRaisesRegex(checks.CheckFailed, "lost"):
            checks.check_fabrication(self.out.synthesized, fabricated)

    def test_rationale_with_wrong_answer_fails(self):
        loaded = copy.deepcopy(self.out.loaded)
        loaded[0].cot.answer = "ai_synthesized" if loaded[0].cot.answer == "real" else "real"
        with self.assertRaisesRegex(checks.CheckFailed, "label"):
            checks.check_rationales(loaded)

    def test_overlapping_split_fails(self):
        train, val, test = self.out.splits
        with self.assertRaisesRegex(checks.CheckFailed, "overlap"):
            checks.check_split(self.out.gated, (train, val + test[:1], test))


class TracerCoverage(unittest.TestCase):
    def test_uninstall_restores_every_original(self):
        from umfdet import model, trainer
        before = (model.encode, trainer.forward_train, vars(instruct.Vocabulary)["build"])
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(model.encode, before[0])
        tracer.uninstall()
        after = (model.encode, trainer.forward_train, vars(instruct.Vocabulary)["build"])
        self.assertEqual(before, after)

    def test_a_layer_with_no_call_fails(self):
        spans = [["train.round", 0.0, 1.0, -1, 0, None]]
        with self.assertRaisesRegex(tracing.TraceError, "no call to"):
            tracing.layer_metrics("train", spans, traced_samples=8, traced_ops=10,
                                  overhead_ratio=1.0)


def _bench(*argv, cwd=run.ROOT):
    return subprocess.run([sys.executable, "umfbench/run.py", *argv], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=170)


class SmokeRuns(unittest.TestCase):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def _result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"], proc.stderr)
        self.assertEqual(line["failed"], 0)
        return line

    def test_every_workload_untraced(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                line = self._result(_bench("--workload", w["name"], "--seed", "5",
                                           "--seconds", "1", "--trace", "0", "--smoke"))
                want = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
                got = {k: v["unit"] for k, v in line["metrics"].items()}
                self.assertEqual(got, want)
                self.assertTrue(all(v["value"] > 0 for v in line["metrics"].values()))

    def test_traced_run_reports_every_per_layer_metric(self):
        line = self._result(_bench("--workload", "train", "--seed", "5", "--seconds", "1",
                                   "--trace", "1", "--smoke"))
        want = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        self.assertEqual(got, want)
        self.assertTrue(all(v["value"] > 0 for v in line["metrics"].values()))

    def test_without_the_library_the_run_fails_and_prints_no_result(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, bare / "umfbench",
                        ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = _bench("--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
