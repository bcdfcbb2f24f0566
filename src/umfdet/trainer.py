"""Training loop: Adam with global-norm gradient clipping, one packed
forward pass per minibatch, periodic validation by greedy decoding, and
bit-reproducible checkpointing.

Reproducibility contract: a run is a pure function of (initial weights,
train config, data order). One generator drives both batch shuffling and
dropout; its state, the optimizer moments, the shuffle cursor and the step
counter all persist in the checkpoint, so an interrupted run resumed from
disk retraces the original run bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import evalkit
from . import ndtensor as nd
from .cmoe import routing_alignment_loss
from .errors import ConfigError, DataError, NumericsError
from .model import ModelConfig, ModelParams, forward_train, init_model

FREEZE_VISUAL_PREFIXES = ("patch_proj", "vis_proj", "vis_pos_emb")
HISTORY_HEADER = ["step", "loss_det", "loss_cot", "loss_total", "grad_norm", "val_acc"]


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
        for key in ("lr", "beta1", "beta2", "eps", "clip_norm", "routing_aux_coeff"):
            if not math.isfinite(getattr(self, key)):  # NaN fails no comparison below
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        if self.lr <= 0 or not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ConfigError("lr must be positive and betas inside [0, 1)")
        if self.eps <= 0 or self.clip_norm < 0:
            raise ConfigError("eps must be positive and clip_norm >= 0")
        if self.batch_size < 1 or self.max_steps < 1 or self.seed < 0:
            raise ConfigError("batch_size and max_steps must be >= 1 and seed >= 0")
        if self.eval_every < 1 or self.log_every < 1:
            raise ConfigError("eval_every and log_every must be >= 1")
        if self.routing_aux_coeff < 0:
            raise ConfigError(f"routing_aux_coeff must be >= 0, got {self.routing_aux_coeff}")

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, d):
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ConfigError(f"unknown train config keys: {unknown}")
        return cls(**d)


def config_hash(d: dict) -> str:
    """Short content hash of a JSON-serializable config."""
    blob = json.dumps(d, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


class Adam:
    """Per-tensor first/second moment tracking, bias-corrected updates."""

    def __init__(self, named_tensors, lr, beta1, beta2, eps):
        self.named = list(named_tensors)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(t.values) for name, t in self.named}
        self.v = {name: np.zeros_like(t.values) for name, t in self.named}

    def step(self):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, t in self.named:
            g = t.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            t.values -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def moment_arrays(self):
        out = {}
        for name in self.m:
            out[f"adam.m.{name}"] = self.m[name]
            out[f"adam.v.{name}"] = self.v[name]
        return out

    def load_moments(self, arrays, t):
        for name in self.m:
            self.m[name] = arrays[f"adam.m.{name}"].copy()
            self.v[name] = arrays[f"adam.v.{name}"].copy()
        self.t = t


def clip_global_norm(named_tensors, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm;
    returns the pre-clip norm."""
    total = 0.0
    for _, t in named_tensors:
        g = t.grad
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for _, t in named_tensors:
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
    history: list = field(default_factory=list)


class _Sampler:
    """Seeded epoch shuffling with an explicit cursor so it can checkpoint."""

    def __init__(self, n, rng):
        self.n = n
        self.rng = rng
        self.perm = rng.permutation(n)
        self.cursor = 0

    def next_batch(self, size):
        out = []
        while len(out) < size:
            if self.cursor >= self.n:
                self.perm = self.rng.permutation(self.n)
                self.cursor = 0
            out.append(int(self.perm[self.cursor]))
            self.cursor += 1
        return out

    def state(self):
        return {"perm": [int(i) for i in self.perm], "cursor": self.cursor}

    def load(self, state):
        self.perm = np.asarray(state["perm"], dtype=np.int64)
        self.cursor = int(state["cursor"])


def _batch_loss(params, batch, vocab, template, tcfg, rng):
    """Loss of one minibatch packed into one graph: the detection loss plus
    lambda_cot times the rationale loss, each a mean over the batch's
    samples; the mixture alignment term joins only when its coefficient is
    nonzero. Returns (total, detection loss, rationale loss)."""
    fr = forward_train(params, batch, vocab, template, training=True, rng=rng)
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

    rng = np.random.default_rng(tcfg.seed)
    sampler = _Sampler(len(train_samples), rng)
    trainable = params.trainable(
        FREEZE_VISUAL_PREFIXES if tcfg.freeze_patch_embedder else ())
    optim = Adam(trainable, tcfg.lr, tcfg.beta1, tcfg.beta2, tcfg.eps)

    start_step = 0
    if resume:
        state = ckpt.load_train_state(ckpt_dir)
        if state is None:
            raise ConfigError(f"--resume given but {ckpt_dir} holds no trainer state")
        arrays, meta = state
        bad = [k for k, v in optim.moment_arrays().items()
               if k not in arrays or arrays[k].shape != v.shape]
        if bad:
            raise DataError(f"{ckpt_dir / ckpt.OPTIMIZER_FILE}: {bad[0]} is missing or "
                            f"has the wrong shape")
        saved_n = len(meta["sampler"]["perm"])
        if saved_n != len(train_samples):
            raise ConfigError(f"checkpoint {ckpt_dir} was trained on {saved_n} samples, "
                              f"not the {len(train_samples)} given; resume needs the "
                              f"same training set")
        optim.load_moments(arrays, meta["step"])
        try:
            rng.bit_generator.state = meta["rng_state"]
        except (TypeError, ValueError, KeyError) as exc:
            raise DataError(f"{ckpt_dir / ckpt.TRAIN_STATE_FILE}: invalid rng_state "
                            f"({exc})") from None
        sampler.load(meta["sampler"])
        start_step = meta["step"]

    kept = _logged_rows(history_path, start_step) if resume else []
    history_rows = []
    stopped_early = False
    val_acc = None
    with open(history_path, "w", newline="", encoding="utf-8") as hist_fh:
        writer = csv.writer(hist_fh)
        writer.writerows([HISTORY_HEADER] + kept)
        hist_fh.flush()  # the resumed-from rows reach disk before any new step runs
        step = start_step
        while step < tcfg.max_steps:
            step += 1
            idxs = sampler.next_batch(tcfg.batch_size)
            batch = [train_samples[i] for i in idxs]
            for t in params.tensors.values():
                t.zero_grad()
            total, det_avg, cot_avg = _batch_loss(params, batch, vocab, template,
                                                  tcfg, rng)
            loss_val = float(total.values)
            if not np.isfinite(loss_val):
                raise NumericsError(
                    f"non-finite loss {loss_val} at step {step}, "
                    f"batch ids {[s.id for s in batch]}")
            total.backward()
            norm = clip_global_norm(trainable, tcfg.clip_norm)
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
                row = [step, f"{det_avg:.6f}", f"{cot_avg:.6f}", f"{loss_val:.6f}",
                       f"{norm:.6f}", f"{val_acc:.4f}" if ran_eval else ""]
                writer.writerow(row)
                history_rows.append(row)
            if (tcfg.checkpoint_every and step % tcfg.checkpoint_every == 0
                    and step < tcfg.max_steps):
                hist_fh.flush()  # the log on disk covers every step the checkpoint holds
                _save_all(ckpt_dir, params, vocab, optim, rng, sampler, step)
            if (ran_eval and tcfg.target_val_acc is not None
                    and val_acc >= tcfg.target_val_acc):
                stopped_early = True
                break

    _save_all(ckpt_dir, params, vocab, optim, rng, sampler, step)
    return TrainResult(steps_run=step, final_val_accuracy=val_acc,
                       history_path=str(history_path), checkpoint_dir=str(ckpt_dir),
                       stopped_early=stopped_early, history=history_rows)


def _logged_rows(history_path, last_step):
    """The rows of an earlier run's history.csv that a resume from last_step
    keeps: the leading rows whose step increases and is at most last_step,
    up to the first row that does not parse. The rows a crashed run logged
    after its checkpoint are dropped, since the resumed run logs them again."""
    kept, prev = [], 0
    try:
        with open(history_path, newline="", encoding="utf-8", errors="replace") as fh:
            for row in csv.reader(fh):
                if not kept and row == HISTORY_HEADER:
                    continue
                try:
                    step = int(row[0])
                except (IndexError, ValueError):
                    break
                if not prev < step <= last_step:
                    break
                kept.append(row)
                prev = step
    except (FileNotFoundError, csv.Error):  # no log yet, or a row csv cannot read
        pass
    return kept


def _save_all(ckpt_dir, params, vocab, optim, rng, sampler, step):
    ckpt.save_model(ckpt_dir, params, vocab)
    meta = {"step": step, "rng_state": rng.bit_generator.state,
            "sampler": sampler.state()}
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
        mcfg = ModelConfig.from_json({**model_cfg.to_json(), **model_over})
        cfg = TrainConfig.from_json({**tcfg.to_json(), **train_over})
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
        with open(out / "ablation.json", "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
    return rows
