"""The deterministic step loop (fit) that pretraining and NER fine-tuning
share, and pretraining over packed MLM+SOP examples on top of it.

Batch composition at every step is a pure function of (seed, step), so a run
resumed from a step-N checkpoint replays exactly the batches an uninterrupted
run would have seen. Loss logs are line-oriented "step<TAB>metric<TAB>value".
"""

from __future__ import annotations

import dataclasses
import re
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from . import checkpoint, ops
from .checkpoint import save_checkpoint
from .model import (
    ModelConfig,
    PretrainLosses,
    init_parameters,
    length_parts,
    pack_pretrain_batch,
    pretrain_loss,
    pretrain_loss_and_grads,
    sop_logits,
)
from .optim import (
    DEFAULT_WEIGHT_DECAY,
    OptimizerState,
    Schedule,
    adamw_step,
    lamb_step,
    lr_at,
)
from .rng import RngStream

_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d+)\.ckpt$")


@dataclass
class TrainResult:
    params: dict
    optim: OptimizerState
    step: int
    last: PretrainLosses | None


def batch_indices(seed: int, step: int, num_examples: int, batch_size: int) -> list[int]:
    """Example indices for one step; samples without replacement when the pool
    is large enough, otherwise draws with replacement."""
    r = RngStream(seed).child("batches").child(f"step{step}")
    if batch_size <= num_examples:
        return r.sample(num_examples, batch_size)
    return [r.randint(num_examples) for _ in range(batch_size)]


def checkpoint_path(directory, step: int) -> Path:
    return Path(directory) / f"checkpoint-{step:06d}.ckpt"


def latest_checkpoint(directory) -> Path | None:
    best = None
    best_step = -1
    for entry in Path(directory).iterdir():
        match = _CHECKPOINT_RE.match(entry.name)
        if match and int(match.group(1)) > best_step:
            best_step = int(match.group(1))
            best = entry
    return best


def open_log(path, step: int):
    """Open a step log for appending, line-buffered so a killed run loses no
    complete line, after cutting it back to its last complete line logged at
    or before `step`: a run continuing from `step` then logs each later step
    once."""
    path = Path(path)
    if path.exists():
        keep = 0
        with open(path, "r+b") as f:
            for line in f:
                head = line.split(b"\t", 1)[0]
                if not line.endswith(b"\n") or not head.isdigit() or int(head) > step:
                    break
                keep += len(line)
            f.truncate(keep)
    return open(path, "a", encoding="utf-8", buffering=1)


def fit(loss_fn, params: dict, state: OptimizerState, *, step_fn, schedule: Schedule,
        seed: int, num_examples: int, batch_size: int, num_steps: int, first: int = 0,
        weight_decay: float = DEFAULT_WEIGHT_DECAY, dropout: bool = False,
        log=None, log_lines=None, hook=None, every: int = 0):
    """The step loop shared by pretraining and fine-tuning.

    Step s trains on batch_indices(seed, s, ...) with the dropout stream
    "dropout/step{s}" (when dropout is on) at lr_at(schedule, s + 1):
    loss_fn(indices, dropout_rng) returns (loss, grads) and step_fn updates
    params and state in place. After each step, log_lines(loss, lr) gives
    the "metric<TAB>value" lines written to the text file `log` under the
    step number, and hook(done) runs every `every` steps and at the last
    step (every=0: last step only). Returns the last step's loss, None if
    no step ran. A ValueError from loss_fn is raised again with the step
    number in front.
    """
    loss = None
    for step in range(first, num_steps):
        idx = batch_indices(seed, step, num_examples, batch_size)
        lr = lr_at(schedule, step + 1)
        dropout_rng = RngStream(seed).child("dropout").child(f"step{step}") if dropout else None
        try:
            loss, grads = loss_fn(idx, dropout_rng)
        except ValueError as exc:
            raise ValueError(f"step {step + 1}: {exc}") from exc
        step_fn(state, params, grads, lr, weight_decay)
        done = step + 1
        if log is not None:
            for line in log_lines(loss, lr):
                print(f"{done}\t{line}", file=log)
        if hook is not None and (done == num_steps or (every and done % every == 0)):
            hook(done)
    return loss


def _resume_point(out_dir: Path, config: ModelConfig, num_steps: int):
    """The newest checkpoint in out_dir, or None; refused if it was trained
    with another architecture or, with steps left to run, holds no optimizer
    state."""
    path = latest_checkpoint(out_dir)
    if path is None:
        return None
    # looked up on the module, where perfbench traces it
    snapshot = checkpoint.load_checkpoint(path)
    have, want = dataclasses.asdict(snapshot.config), dataclasses.asdict(config)
    key = next((key for key in want if have[key] != want[key]), None)
    if key is not None:
        raise ValueError(f"{path} was trained with {key}={have[key]}, but the "
                         f"config says {key}={want[key]}; cannot resume")
    if snapshot.step < num_steps and snapshot.optim is None:
        raise ValueError(f"{path} has no optimizer state; cannot resume")
    return snapshot


def train(
    examples,
    config: ModelConfig,
    *,
    seed: int,
    num_steps: int,
    batch_size: int,
    schedule: Schedule,
    optimizer: str = "lamb",
    weight_decay: float = DEFAULT_WEIGHT_DECAY,
    out_dir=None,
    checkpoint_every: int = 0,
) -> TrainResult:
    """Run the pretraining loop. With an out_dir the run owns that directory:
    it resumes from the newest checkpoint-NNNNNN.ckpt there (refusing one of
    another architecture or without optimizer state before train.log is
    touched), logs each step to train.log cut back to the resume step, and
    saves a checkpoint every checkpoint_every steps and at the last. A
    checkpoint that already reached num_steps is returned with last=None."""
    step_fn = {"lamb": lamb_step, "adamw": adamw_step}.get(optimizer)
    if step_fn is None:
        raise ValueError(f"unknown optimizer {optimizer!r}")
    params = state = None
    first = 0
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        snapshot = _resume_point(out_dir, config, num_steps)
        if snapshot is not None:
            if snapshot.step >= num_steps:
                return TrainResult(params=snapshot.params, optim=snapshot.optim,
                                   step=snapshot.step, last=None)
            params, state, first = snapshot.params, snapshot.optim, snapshot.step
            print(f"resuming from step {first}")
    if len(examples) == 0:
        raise ValueError("no pretraining examples")
    if num_steps > schedule.total_steps:
        raise ValueError("num_steps exceeds schedule.total_steps")
    if params is None:
        params = init_parameters(config, RngStream(seed).child("init"))
        state = OptimizerState.for_params(params)

    def loss_fn(idx, dropout_rng):
        return pretrain_step(params, config, examples[idx], dropout_rng=dropout_rng)

    def log_lines(losses, lr):
        return (f"lr\t{lr:.8f}", f"mlm_loss\t{losses.mlm_loss:.6f}",
                f"sop_loss\t{losses.sop_loss:.6f}", f"total_loss\t{losses.total:.6f}")

    def save(done):
        save_checkpoint(checkpoint_path(out_dir, done), config, params, step=done, optim=state)

    with nullcontext() if out_dir is None else open_log(out_dir / "train.log", first) as log:
        last = fit(loss_fn, params, state, step_fn=step_fn, schedule=schedule, seed=seed,
                   num_examples=len(examples), batch_size=batch_size, num_steps=num_steps,
                   first=first, weight_decay=weight_decay, dropout=config.dropout_rate > 0,
                   log=log, log_lines=log_lines,
                   hook=None if out_dir is None else save, every=checkpoint_every)
    return TrainResult(params=params, optim=state, step=num_steps, last=last)


def _summed_over_parts(examples, max_rows, part_loss) -> PretrainLosses:
    """The mean losses over example records, summed over the packed parts
    length_parts cuts them into: part_loss(batch, counts) gets each part
    and the whole set's counts (masked slots, rows) to divide by."""
    if len(examples) == 0:
        raise ValueError("empty batch")
    counts = (int((examples["mlm_labels"] != ops.IGNORE_INDEX).sum()), len(examples))
    mlm = sop = 0.0
    for rows, t in length_parts(examples["input"]["attention_mask"], max_rows):
        losses = part_loss(pack_pretrain_batch(examples[rows], t), counts)
        mlm += losses.mlm_loss
        sop += losses.sop_loss
    return PretrainLosses(mlm_loss=mlm, sop_loss=sop)


def pretrain_step(params, config, examples, dropout_rng=None):
    """Losses and gradients of one training step over example records, run
    as the length-sorted, trimmed parts of length_parts, whose losses and
    gradients add up to the step's; dropout masks are drawn part by part."""
    grads: dict = {}

    def part_loss(batch, counts):
        return pretrain_loss_and_grads(params, config, batch, dropout_rng=dropout_rng,
                                       counts=counts, grads=grads)[0]

    return _summed_over_parts(examples, None, part_loss), grads


def evaluate_pretrain(params, config, examples, batch_size: int = 32) -> PretrainLosses:
    """Per-prediction MLM loss and per-example SOP loss over a fixed set, in
    parts of at most batch_size rows."""
    return _summed_over_parts(examples, batch_size,
                              lambda batch, counts: pretrain_loss(params, config, batch, counts))


def sop_accuracy(params, config, examples, batch_size: int = 32) -> float:
    """Fraction of examples whose order/swapped call matches the label, in
    parts of at most batch_size rows."""
    if len(examples) == 0:
        raise ValueError("empty batch")
    correct = 0
    for rows, t in length_parts(examples["input"]["attention_mask"], batch_size):
        batch = pack_pretrain_batch(examples[rows], t)
        logits = sop_logits(params, config, batch["token_ids"], batch["type_ids"],
                            batch["attention_mask"])
        correct += int((logits.argmax(axis=1) == batch["sop_labels"]).sum())
    return correct / len(examples)
