"""Training loop: Adam with global-norm gradient clipping over the flat
parameter store, one packed forward pass per minibatch, periodic
validation by greedy decoding, and bit-reproducible checkpointing.

Reproducibility contract: a run is a pure function of (initial weights,
train config, training set). Every random draw derives from (seed, step):
step s trains on entries (s-1)*B to s*B-1 of the concatenated epoch
shuffles (_batch_ids) and draws its dropout from default_rng([seed, 1, s]).
So the checkpoint holds no generator state. The two moment arrays, the
step, the seed, batch size, training-set size and freeze_patch_embedder (a
resume refuses others) and history_bytes, the length of history.csv when
the checkpoint was written, let an interrupted run resumed from disk
retrace the original run bit for bit, its log cut back to that length first.
A resume reads the moments straight into the optimizer's own arrays.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import evalkit
from . import ndtensor as nd
from .cmoe import routing_alignment_loss
from .errors import ConfigError, DataError, NumericsError, write_json
from .model import ModelConfig, ModelParams, forward_train, init_model

FREEZE_VISUAL_PREFIXES = ("patch_proj", "vis_proj", "vis_pos_emb")
HISTORY_HEADER = ["step", "loss_det", "loss_cot", "loss_total", "grad_norm", "val_acc"]
ADAM_BLOCK = 8192  # elements: 64 KiB temporaries stay under glibc's 128 KiB mmap threshold


@dataclass
class TrainConfig:
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 1.0          # 0 disables clipping
    batch_size: int = 8
    max_steps: int = 2000
    eval_every: int = 200
    log_every: int = 50
    seed: int = 0
    routing_aux_coeff: float = 0.0
    freeze_patch_embedder: bool = False
    target_val_acc: float | None = None  # stop early once validation reaches it
    checkpoint_every: int = 0            # 0: only at the end

    def __post_init__(self):
        for key in ("lr", "beta1", "beta2", "eps", "clip_norm", "routing_aux_coeff",
                    "target_val_acc"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):  # NaN fails no comparison below
                raise ConfigError(f"{key} must be finite, got {value}")
        if self.lr <= 0 or not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ConfigError("lr must be positive and betas inside [0, 1)")
        if self.eps <= 0 or self.clip_norm < 0:
            raise ConfigError("eps must be positive and clip_norm >= 0")
        if self.batch_size < 1 or self.max_steps < 1 or self.seed < 0:
            raise ConfigError("batch_size and max_steps must be >= 1 and seed >= 0")
        if self.eval_every < 1 or self.log_every < 1:
            raise ConfigError("eval_every and log_every must be >= 1")
        for key in ("routing_aux_coeff", "checkpoint_every"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")

    def to_json(self):
        return asdict(self)


def config_hash(d: dict) -> str:
    """Short content hash of a JSON-serializable config."""
    blob = json.dumps(d, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


class Adam:
    """Bias-corrected Adam over one flat vector of values and its gradient."""

    def __init__(self, values, grads, lr, beta1, beta2, eps):
        self.values, self.grads = values, grads
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        # np.zeros takes zeroed memory from calloc, whose fresh pages stay
        # untouched until a step, or a resume reading into them, writes them
        self.m, self.v = np.zeros(values.size), np.zeros(values.size)

    def step(self):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for i in range(0, self.values.size, ADAM_BLOCK):
            w, g, m, v = (a[i:i + ADAM_BLOCK] for a in (self.values, self.grads, self.m, self.v))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            w -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def moment_arrays(self):
        """The moments by name; a resume reads a checkpoint's into them."""
        return {"adam.m": self.m, "adam.v": self.v}


def clip_global_norm(tensors, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm;
    returns the pre-clip norm. The squares are summed tensor by tensor, in
    order, which fixes the norm's rounding."""
    total = 0.0
    for t in tensors:
        g = t.grad
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for t in tensors:
            g = t.grad
            g *= factor
    return norm


@dataclass
class TrainResult:
    steps_run: int
    final_val_accuracy: float | None
    history_path: str
    checkpoint_dir: str
    stopped_early: bool = False


def _batch_ids(seed, n, batch_size, step):
    """Training-set positions of step's batch: entries (step-1)*batch_size
    to step*batch_size-1 of the concatenated epoch shuffles, epoch e being
    default_rng([seed, 0, e]).permutation(n). A batch may span epochs."""
    start = (step - 1) * batch_size
    epochs = range(start // n, (start + batch_size - 1) // n + 1)
    perms = np.concatenate([np.random.default_rng([seed, 0, e]).permutation(n)
                            for e in epochs])
    offset = start - epochs[0] * n
    return [int(i) for i in perms[offset:offset + batch_size]]


def _batch_loss(params, batch, vocab, template, tcfg, rng):
    """Loss of one minibatch packed into one graph: the detection loss plus
    lambda_cot times the rationale loss, each a mean over the batch's
    samples; the mixture alignment term joins only when its coefficient is
    nonzero. Returns (total, detection loss, rationale loss)."""
    fr = forward_train(params, batch, vocab, template, rng)
    total = nd.add(fr.loss_det, nd.scale(fr.loss_cot, params.config.lambda_cot))
    if tcfg.routing_aux_coeff != 0.0:
        labels = [s.label for s in batch]
        for routing in fr.routings:
            total = nd.add(total, routing_alignment_loss(routing, labels,
                                                         tcfg.routing_aux_coeff))
    return total, float(fr.loss_det.values), float(fr.loss_cot.values)


def train(params: ModelParams, train_samples, val_samples, vocab, template,
          tcfg: TrainConfig, out_dir, resume: bool = False) -> TrainResult:
    """Run (or resume) training; writes history.csv and a checkpoint under
    out_dir and aborts with step/sample diagnostics on non-finite numbers."""
    train_samples = list(train_samples)
    val_samples = list(val_samples)
    if not train_samples:
        raise ConfigError("training needs at least one sample")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt_dir = out / "checkpoint"
    history_path = out / "history.csv"

    run = {"seed": tcfg.seed, "batch_size": tcfg.batch_size, "train_size": len(train_samples),
           "freeze_patch_embedder": tcfg.freeze_patch_embedder}
    frozen = FREEZE_VISUAL_PREFIXES if tcfg.freeze_patch_embedder else ()
    frozen_grads = [t.grad for name, t in params.tensors.items() if name.startswith(frozen)]
    optim = Adam(params.values, params.grads, tcfg.lr, tcfg.beta1, tcfg.beta2, tcfg.eps)

    start_step = 0
    if resume:
        meta = ckpt.load_train_state(ckpt_dir, optim.moment_arrays())
        if meta is None:
            raise ConfigError(f"--resume given but {ckpt_dir} holds no trainer state")
        if meta["train_size"] != len(train_samples):
            raise ConfigError(f"checkpoint {ckpt_dir} was trained on {meta['train_size']} "
                              f"samples, not the {len(train_samples)} given; resume needs "
                              f"the same training set")
        for key in ("seed", "batch_size", "freeze_patch_embedder"):
            if meta[key] != run[key]:
                raise ConfigError(f"checkpoint {ckpt_dir} was trained with {key} {meta[key]}, "
                                  f"not the {run[key]} given; resume needs the same {key}")
        optim.t = start_step = meta["step"]
        logged = history_path.stat().st_size if history_path.exists() else -1
        if logged < meta["history_bytes"]:
            found = "no such file" if logged < 0 else f"{logged} bytes"
            raise DataError(f"{history_path}: {found}, but {ckpt_dir / ckpt.TRAIN_STATE_FILE} "
                            f"records history_bytes {meta['history_bytes']}")
        # rows a crashed run logged after its checkpoint go; the resumed run logs them again
        os.truncate(history_path, meta["history_bytes"])
    else:
        # an older run's trainer state must not outlive the log rewritten below
        (ckpt_dir / ckpt.TRAIN_STATE_FILE).unlink(missing_ok=True)
        (ckpt_dir / ckpt.OPTIMIZER_FILE).unlink(missing_ok=True)

    stopped_early = False
    val_acc = None
    with open(history_path, "a" if resume else "w", newline="", encoding="utf-8") as hist_fh:
        writer = csv.writer(hist_fh)
        if not resume:
            writer.writerow(HISTORY_HEADER)
        step = start_step
        while step < tcfg.max_steps:
            step += 1
            batch = [train_samples[i] for i in
                     _batch_ids(tcfg.seed, len(train_samples), tcfg.batch_size, step)]
            params.grads.fill(0.0)
            total, det_avg, cot_avg = _batch_loss(params, batch, vocab, template, tcfg,
                                                  np.random.default_rng([tcfg.seed, 1, step]))
            loss_val = float(total.values)
            if not np.isfinite(loss_val):
                raise NumericsError(
                    f"non-finite loss {loss_val} at step {step}, "
                    f"batch ids {[s.id for s in batch]}")
            total.backward()
            for g in frozen_grads:  # so their moments, and their updates, stay exactly 0
                g.fill(0.0)
            norm = clip_global_norm(params.tensors.values(), tcfg.clip_norm)
            if not np.isfinite(norm):
                raise NumericsError(
                    f"non-finite gradient norm at step {step}, "
                    f"batch ids {[s.id for s in batch]}")
            optim.step()

            ran_eval = False
            if val_samples and (step % tcfg.eval_every == 0 or step == tcfg.max_steps):
                res = evalkit.evaluate_model(params, val_samples, vocab, template)
                val_acc = res.metrics.accuracy
                ran_eval = True
            if step % tcfg.log_every == 0 or ran_eval or step == tcfg.max_steps:
                writer.writerow([step, f"{det_avg:.6f}", f"{cot_avg:.6f}", f"{loss_val:.6f}",
                                 f"{norm:.6f}", f"{val_acc:.4f}" if ran_eval else ""])
            if (tcfg.checkpoint_every and step % tcfg.checkpoint_every == 0
                    and step < tcfg.max_steps):
                hist_fh.flush()  # the log on disk covers every step the checkpoint holds
                _save_all(ckpt_dir, params, vocab, optim, run, history_path, step)
            if (ran_eval and tcfg.target_val_acc is not None
                    and val_acc >= tcfg.target_val_acc):
                stopped_early = True
                break

    _save_all(ckpt_dir, params, vocab, optim, run, history_path, step)
    return TrainResult(steps_run=step, final_val_accuracy=val_acc,
                       history_path=str(history_path), checkpoint_dir=str(ckpt_dir),
                       stopped_early=stopped_early)


def _save_all(ckpt_dir, params, vocab, optim, run, history_path, step):
    ckpt.save_model(ckpt_dir, params, vocab)
    meta = {**run, "step": step, "history_bytes": history_path.stat().st_size}
    ckpt.save_train_state(ckpt_dir, optim.moment_arrays(), meta)


# ---------------------------------------------------------------------------
# ablation grid


# (name, model config overrides, train config overrides)
ABLATION_GRID = (
    ("base", {}, {}),
    ("no_moe", {"moe_enabled": False}, {}),
    ("no_gate_scaling", {"gate_scaling": False}, {}),
    ("no_cot_loss", {"lambda_cot": 0.0}, {}),
    ("routing_aux", {}, {"routing_aux_coeff": 0.5}),
    ("no_dropout", {"dropout_rate": 0.0}, {}),
)


def ablate(splits, vocab, template, model_cfg: ModelConfig, tcfg: TrainConfig,
           out_dir) -> list:
    """Train and score the fixed six-variant grid on one corpus.

    Each row reuses the base model/train configs with one knob turned;
    results carry a content hash of the effective config pair.
    """
    train_s, val_s, test_s = splits
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for name, model_over, train_over in ABLATION_GRID:
        mcfg = replace(model_cfg, **model_over)
        cfg = replace(tcfg, **train_over)
        started = time.time()
        params = init_model(mcfg, np.random.default_rng(cfg.seed))
        result = train(params, train_s, val_s, vocab, template, cfg,
                       out / name, resume=False)
        ev = evalkit.evaluate_model(params, test_s, vocab, template)
        rows.append({
            "name": name,
            "config_hash": config_hash({"model": mcfg.to_json(), "train": cfg.to_json()}),
            "test_accuracy": ev.metrics.accuracy,
            "macro_f1": ev.metrics.macro_f1,
            "steps": result.steps_run,
            "duration_s": round(time.time() - started, 2),
        })
        write_json(out / "ablation.json", rows)
    return rows
