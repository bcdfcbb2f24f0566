"""Batch command-line interface.

Subcommands cover corpus synthesis, text fabrication, rationale generation
and validation, training, evaluation, routing analysis and the ablation
grid. Every artifact-producing run writes a run.json beside its outputs
recording the effective config, the seed and content hashes of the inputs.

Exit codes: 0 success, 1 usage or configuration problem, 2 data problem,
3 runtime failure. Errors print as a single machine-parseable stderr line.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import cot as cot_mod
from . import data as data_mod
from . import evalkit
from . import model as model_mod
from . import ndtensor as nd
from . import textforge
from . import trainer as trainer_mod
from .errors import (ConfigError, DataError, TemplateError, TransportError,
                     UmfdetError, read_utf8, write_json)
from .instruct import build_vocab, default_template, load_template
from .model import ModelConfig, init_model
from .trainer import TrainConfig, config_hash

ENDPOINT_ENV = "UMFDET_GEN_ENDPOINT"
TOKEN_ENV = "UMFDET_GEN_TOKEN"
MAX_WORKERS = 32
PROBE_POSTS = 3  # cot-gen generates this many posts first and stops if all fail in transport
# glibc mallopt parameters and the values main pins them to: a training step's
# multi-MB temporaries stay on the heap instead of being mapped and unmapped,
# and the heap is not trimmed after every backward to be faulted back in.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 64 << 20
_TRIM_THRESHOLD = 256 << 20


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems on exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"umfdet: error: usage: {message}", file=sys.stderr)
        sys.exit(1)


def blob_hash(path) -> str:
    """Git-style blob hash of a file's content."""
    content = Path(path).read_bytes()
    return hashlib.sha1(b"blob %d\0" % len(content) + content).hexdigest()


def write_run_record(out_dir, args, effective, inputs):
    """run.json for the subcommand args ran, timed from the start main stamped."""
    write_json(Path(out_dir) / "run.json", {
        "command": args.command,
        "argv": args.argv,
        "seed": effective.get("seed"),
        "effective_config": effective,
        "config_hash": config_hash(effective),
        "inputs": {str(p): blob_hash(p) for p in inputs if p and Path(p).exists()},
        "started_unix": round(args.started, 3),
        "duration_s": round(time.time() - args.started, 3),
    })


# ---------------------------------------------------------------------------
# config file handling


def parse_config_file(path) -> dict:
    """Flat key=value lines as key -> (line number, value); blank lines and
    # comments are skipped."""
    out = {}
    for lineno, raw in enumerate(read_utf8(path, ConfigError).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = (lineno, value.strip())
    return out


def _coerce(raw: str, target_type):
    if target_type is bool:
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if target_type is int:
        return int(raw)
    if target_type is float:
        return float(raw)
    return raw


_MODEL_FIELDS = {f.name: f for f in fields(ModelConfig)}
_TRAIN_FIELDS = {f.name: f for f in fields(TrainConfig)}
_EXTRA_KEYS = {"split_seed": int, "min_count": int, "max_vocab": int}


def resolve_configs(config_path, flag_model: dict, flag_train: dict):
    """defaults < config file < explicit flags; unknown keys are rejected.
    The extra keys (split seed, vocabulary bounds) come from the file alone."""
    model_kv, train_kv, extra_kv = {}, {}, {}
    if config_path:
        for key, (lineno, raw) in parse_config_file(config_path).items():
            if key in _TRAIN_FIELDS:
                base = _TRAIN_FIELDS[key].default
                dest, target = train_kv, type(base) if base is not None else float
            elif key in _MODEL_FIELDS:
                dest, target = model_kv, type(_MODEL_FIELDS[key].default)
            elif key in _EXTRA_KEYS:
                dest, target = extra_kv, _EXTRA_KEYS[key]
            else:
                raise ConfigError(f"unknown config key {key!r} in {config_path}")
            try:
                dest[key] = _coerce(raw, target)
            except ValueError:
                raise ConfigError(f"{config_path}:{lineno}: {key}: not a valid "
                                  f"{target.__name__}: {raw!r}") from None
    model_kv.update({k: v for k, v in flag_model.items() if v is not None})
    train_kv.update({k: v for k, v in flag_train.items() if v is not None})
    extra = {"split_seed": 0, "min_count": 2, "max_vocab": 8192}
    extra.update(extra_kv)
    return model_kv, train_kv, extra


def make_gen_client(args) -> cot_mod.GenClient:
    endpoint = os.environ.get(ENDPOINT_ENV)
    if getattr(args, "mock", False) or not endpoint:
        return cot_mod.MockGenClient()
    try:
        return cot_mod.HttpGenClient(endpoint, auth_token=os.environ.get(TOKEN_ENV))
    except ConfigError as exc:
        setting = ENDPOINT_ENV if str(exc).startswith("endpoint") else TOKEN_ENV
        raise ConfigError(f"{setting}: {exc}") from None


def _corpus_splits(path, split_seed):
    """(train, val, test) of the manifest at path after the similarity gate;
    a class too small to stratify is a DataError naming the manifest."""
    kept, _ = data_mod.similarity_gate(data_mod.load_manifest(path))
    try:
        return data_mod.split(kept, data_mod.SplitSpec(seed=split_seed))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _seed_flag(args):
    """--seed, which numpy's generator needs non-negative."""
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    return args.seed


def _template(args):
    if getattr(args, "template", None):
        return load_template(args.template)
    return default_template()


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth_toy(args):
    samples = data_mod.synth_toy_corpus(args.n, args.cue_strength, _seed_flag(args))
    out = Path(args.out)
    data_mod.save_manifest(samples, out)
    stats = data_mod.corpus_stats(samples)
    write_run_record(out.parent, args, {"n": args.n, "cue_strength": args.cue_strength,
                                        "seed": args.seed, "out": str(out)}, [])
    by = stats["by_label"]
    print(f"wrote {stats['total']} samples to {out} "
          f"(real={by['real']}, human_crafted={by['human_crafted']}, "
          f"ai_synthesized={by['ai_synthesized']})")
    return 0


def cmd_fabricate_text(args):
    rng = np.random.default_rng(_seed_flag(args))
    label = data_mod.Category.parse(args.label)
    if label is None or label is data_mod.Category.REAL:
        raise ConfigError(f"--label must be human_crafted or ai_synthesized (a fabricated "
                          f"title is never real), got {args.label!r}")
    samples = data_mod.load_manifest(args.manifest)
    client = make_gen_client(args)
    lexicon = textforge.default_lexicon()
    gaz = cot_mod.default_gazetteer()
    fabricated = []
    for s in samples:
        entities = cot_mod.extract_entities(s.title, gaz)
        if args.strategy == "keyword_distortion":
            title, log = textforge.keyword_distortion(s.title, entities, lexicon, rng,
                                                      gen=client)
        else:
            title, log = textforge.pure_fake_rewrite(s.title, entities, client)
        kind = ("keyword_distortion" if log.strategy == "keyword_distortion"
                else "pure_fake_text")
        annotation = data_mod.ManipulationAnnotation(kind=kind,
                                                     rewrite_log=log.to_manifest())
        fabricated.append(data_mod.NewsSample(
            id=f"{s.id}-fab", title=title, image=s.image, label=label,
            annotation=annotation, cot=None))
    out = Path(args.out)
    data_mod.save_manifest(fabricated, out)
    write_run_record(out.parent, args,
                     {"strategy": args.strategy, "label": args.label, "seed": args.seed,
                      "manifest": str(args.manifest), "out": str(out)}, [args.manifest])
    print(f"fabricated {len(fabricated)} titles ({args.strategy}) -> {out}")
    return 0


def cmd_cot_gen(args):
    if not 1 <= args.workers <= MAX_WORKERS:
        raise ConfigError(f"--workers must lie in 1..{MAX_WORKERS}, got {args.workers}")
    if args.attempts < 1:
        raise ConfigError(f"--attempts must be >= 1, got {args.attempts}")
    samples = data_mod.load_manifest(args.manifest)
    client = make_gen_client(args)
    records = []  # the first posts go first, so a dead endpoint costs only their retries
    for chunk in (samples[:PROBE_POSTS], samples[PROBE_POSTS:]):
        records += cot_mod.generate_corpus_cots(chunk, client, k_attempts=args.attempts,
                                                max_workers=args.workers)
        if records and all(rec.reject_reason == "transport" for rec in records):
            raise TransportError(f"{args.manifest}: the first {len(records)} samples all "
                                 f"failed in transport; first, sample {samples[0].id}: "
                                 f"{records[0].error}")
    accepted = 0
    for s, rec in zip(samples, records):
        s.cot = rec.to_note()
        accepted += int(rec.accepted)
    out = Path(args.out)
    data_mod.save_manifest(samples, out)
    write_run_record(out.parent, args,
                     {"attempts": args.attempts, "workers": args.workers,
                      "manifest": str(args.manifest), "out": str(out), "seed": None},
                     [args.manifest])
    print(f"rationales: {accepted}/{len(samples)} accepted "
          f"({len(samples) - accepted} rejected) -> {out}")
    return 0


def cmd_cot_validate(args):
    samples = data_mod.load_manifest(args.manifest)
    gaz = cot_mod.default_gazetteer()
    counts = {"accepted": 0, "missing": 0}
    reasons = {}
    for s in samples:
        if s.cot is None or not s.cot.think.strip():
            counts["missing"] += 1
            continue
        rec = cot_mod.parse_cot(s.cot.target_text())
        rec = cot_mod.validate_cot(rec, s, cot_mod.extract_entities(s.title, gaz),
                                   gazetteer=gaz)
        if rec.accepted:
            counts["accepted"] += 1
        else:
            reasons[rec.reject_reason] = reasons.get(rec.reject_reason, 0) + 1
    report = {"n_samples": len(samples), **counts, "rejected_by_reason": reasons}
    if args.out:
        write_json(args.out, report)
        write_run_record(Path(args.out).parent, args,
                         {"manifest": str(args.manifest), "out": str(args.out), "seed": None},
                         [args.manifest])
    print(f"validated {len(samples)} rationales: {counts['accepted']} accepted, "
          f"{sum(reasons.values())} rejected, {counts['missing']} missing")
    return 0


def _training_inputs(args, flag_model: dict, flag_train: dict):
    """What train and ablate share: defaults < --config < flags, the
    template, the gated corpus's split, and the vocabulary and model, fresh
    (vocabulary from the train split, weights from the train seed) or, with
    --resume, the checkpoint's, which every resolved model key must match.
    Returns (train config, template, splits, vocab, params, the run record's
    effective config)."""
    flag_train.update({"max_steps": args.steps, "batch_size": args.batch_size,
                       "seed": args.seed, "eval_every": args.eval_every,
                       "target_val_acc": args.target_val_acc})
    model_kv, train_kv, extra = resolve_configs(args.config, flag_model, flag_train)
    tcfg = TrainConfig(**train_kv)
    template = _template(args)
    splits = _corpus_splits(args.manifest, extra["split_seed"])
    if getattr(args, "resume", False):
        params, vocab = ckpt.load_model(Path(args.out) / "checkpoint")
        changed = [f"{k}={v!r} (checkpoint: {getattr(params.config, k)!r})"
                   for k, v in model_kv.items() if v != getattr(params.config, k)]
        if changed:
            raise ConfigError(f"--resume keeps the checkpoint's model config; "
                              f"given {', '.join(changed)}")
    else:
        vocab = build_vocab(splits[0], template, extra["min_count"], extra["max_vocab"])
        mcfg = ModelConfig(**{**model_kv, "vocab_size": len(vocab)})
        params = init_model(mcfg, np.random.default_rng(tcfg.seed))
    effective = {"model": params.config.to_json(), "train": tcfg.to_json(),
                 "split_seed": extra["split_seed"], "seed": tcfg.seed,
                 "manifest": str(args.manifest)}
    return tcfg, template, splits, vocab, params, effective


def cmd_train(args):
    flag_model = {"lambda_cot": args.lambda_cot, "dropout_rate": args.dropout,
                  "moe_enabled": False if args.no_moe else None,
                  "gate_scaling": False if args.no_gate_scaling else None}
    flag_train = {"lr": args.lr, "routing_aux_coeff": args.routing_aux,
                  "freeze_patch_embedder": True if args.freeze_patch_embedder else None}
    tcfg, template, (train_s, val_s, _), vocab, params, effective = _training_inputs(
        args, flag_model, flag_train)
    result = trainer_mod.train(params, train_s, val_s, vocab, template, tcfg,
                               args.out, resume=args.resume)
    write_run_record(args.out, args, effective, [args.manifest, args.config])
    acc = "n/a" if result.final_val_accuracy is None else f"{result.final_val_accuracy:.4f}"
    print(f"trained steps={result.steps_run} val_acc={acc} "
          f"checkpoint={result.checkpoint_dir}")
    return 0


def _load_eval_inputs(args):
    """What eval and route-report share: the chosen split of the gated corpus,
    the checkpoint's (params, vocab) and run.json's effective config and inputs."""
    splits = _corpus_splits(args.manifest, args.split_seed)
    chosen = {"train": splits[0], "val": splits[1], "test": splits[2]}[args.split]
    params, vocab = ckpt.load_model(args.checkpoint)
    effective = {"split": args.split, "split_seed": args.split_seed,
                 "checkpoint": str(args.checkpoint), "manifest": str(args.manifest),
                 "seed": None}
    inputs = [args.manifest] + [Path(args.checkpoint) / name for name in
                                (ckpt.CONFIG_FILE, ckpt.VOCAB_FILE, ckpt.WEIGHTS_FILE)]
    return chosen, params, vocab, effective, inputs


def cmd_eval(args):
    chosen, params, vocab, effective, inputs = _load_eval_inputs(args)
    template = _template(args)
    result = evalkit.evaluate_model(params, chosen, vocab, template)
    print(result.metrics.render_text())
    if args.out:
        out = Path(args.out)
        write_json(out, {"metrics": result.metrics.to_json(),
                         "routing": result.routing.to_json() if result.routing else None,
                         "predictions": [{"id": i, "true": t, "pred": p, "text": x}
                                         for i, t, p, x in result.predictions]})
        write_run_record(out.parent, args, effective, inputs)
    print(f"accuracy={result.metrics.accuracy:.4f}")
    return 0


def cmd_route_report(args):
    chosen, params, vocab, effective, inputs = _load_eval_inputs(args)
    if not params.config.moe_enabled:
        raise ConfigError("route-report needs a mixture-enabled checkpoint")
    template = _template(args)
    experts = []
    with nd.no_grad():
        for i in range(0, len(chosen), evalkit.EVAL_BATCH):
            chunk = chosen[i:i + evalkit.EVAL_BATCH]
            _, _, routings = model_mod.encode(params, chunk, vocab, template)
            experts.extend(np.stack([r.selected for r in routings], axis=1))
    report = evalkit.routing_report([s.label for s in chosen], experts)
    print(report.render_text())
    if args.out:
        write_json(args.out, report.to_json())
        write_run_record(Path(args.out).parent, args, effective, inputs)
    return 0


def cmd_ablate(args):
    tcfg, template, splits, vocab, params, effective = _training_inputs(args, {}, {})
    rows = trainer_mod.ablate(splits, vocab, template, params.config, tcfg, args.out)
    write_run_record(args.out, args, effective, [args.manifest, args.config])
    width = max(len(r["name"]) for r in rows)
    for r in rows:
        print(f"{r['name']:<{width}}  acc {r['test_accuracy']:.4f}  "
              f"macro_f1 {r['macro_f1']:.4f}  steps {r['steps']}  "
              f"cfg {r['config_hash']}  {r['duration_s']}s")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> _Parser:
    p = _Parser(prog="umfdet", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth-toy", help="synthesize a labeled toy corpus")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--cue-strength", type=float, default=0.9)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_synth_toy)

    sp = sub.add_parser("fabricate-text", help="rewrite titles into fakes")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--strategy", choices=("pure_fake", "keyword_distortion"),
                    default="keyword_distortion")
    sp.add_argument("--label", default="ai_synthesized")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mock", action="store_true",
                    help="force the offline mock generator")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_fabricate_text)

    sp = sub.add_parser("cot-gen", help="generate quality-gated rationales")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--attempts", type=int, default=3)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--mock", action="store_true")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_cot_gen)

    sp = sub.add_parser("cot-validate", help="re-check stored rationales")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_cot_validate)

    for name, fn, text in (("train", cmd_train, "train a detector on a manifest"),
                           ("ablate", cmd_ablate, "run the six-variant ablation grid")):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--manifest", required=True)
        sp.add_argument("--out", required=True)
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--template")
        for flag, kind in (("--seed", int), ("--steps", int), ("--batch-size", int),
                           ("--eval-every", int), ("--target-val-acc", float)):
            sp.add_argument(flag, type=kind)
        sp.set_defaults(func=fn)
        if name == "train":
            for flag in ("--lr", "--lambda-cot", "--dropout", "--routing-aux"):
                sp.add_argument(flag, type=float)
            for flag in ("--no-moe", "--no-gate-scaling", "--freeze-patch-embedder",
                         "--resume"):
                sp.add_argument(flag, action="store_true")

    for name, fn in (("eval", cmd_eval), ("route-report", cmd_route_report)):
        sp = sub.add_parser(name)
        sp.add_argument("--manifest", required=True)
        sp.add_argument("--checkpoint", required=True)
        sp.add_argument("--split", choices=("train", "val", "test"), default="test")
        sp.add_argument("--split-seed", type=int, default=0)
        sp.add_argument("--template")
        sp.add_argument("--out")
        sp.set_defaults(func=fn)
    return p


def _fail(code: int, exc: BaseException) -> int:
    message = str(exc).replace("\n", " ")
    print(f"umfdet: error: {type(exc).__name__}: {message}", file=sys.stderr)
    return code


def _settle_heap() -> None:
    """Pin glibc's mmap and trim thresholds for this process. Where the C
    library has no mallopt, or refuses the mmap threshold, nothing changes.
    Only main calls this: importing umfdet leaves the heap of a process that
    embeds it alone."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library symbols, or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _settle_heap()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv, args.started = argv, time.time()  # run.json records both
    try:
        return args.func(args)
    except (ConfigError, TemplateError) as exc:
        return _fail(1, exc)
    except DataError as exc:
        return _fail(2, exc)
    except UmfdetError as exc:
        return _fail(3, exc)
    except OSError as exc:
        return _fail(2, exc)
    except Exception as exc:  # unexpected runtime failure
        if os.environ.get("UMFDET_DEBUG"):
            raise
        return _fail(3, exc)


if __name__ == "__main__":
    sys.exit(main())
