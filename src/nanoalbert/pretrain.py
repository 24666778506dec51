"""The deterministic step loop (fit), which pretraining and NER fine-tuning
each drive with one callable per step, and MLM+SOP pretraining on top of it.

Batch composition at every step is a pure function of (seed, step), so a run
resumed from a step-N checkpoint replays exactly the batches an uninterrupted
run would have seen. Loss logs are line-oriented "step<TAB>metric<TAB>value".
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from . import checkpoint, ops
from .checkpoint import save_checkpoint
from .model import (
    ModelConfig,
    PretrainLosses,
    init_parameters,
    map_parts,
    pack_pretrain_batch,
    pretrain_loss,
    pretrain_loss_and_grads,
    step_parts,
)
from .optim import (
    DEFAULT_WEIGHT_DECAY,
    OptimizerState,
    Schedule,
    lamb_step,
    lr_at,
)
from .optim import adamw_step  # unused here; perfbench traces it at pretrain.adamw_step
from .rng import RngStream
from .rundir import checkpoint_path, latest_checkpoint, open_log


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


def fit(step_fn, *, schedule: Schedule, seed: int, num_examples: int, batch_size: int,
        num_steps: int, out_dir, first: int, hook, every: int = 0) -> None:
    """The step loop shared by pretraining and fine-tuning.

    Step s trains on batch_indices(seed, s, ...) at lr_at(schedule, s + 1):
    step_fn(indices, lr) runs the whole step (loss, gradients, optimizer
    update) and returns its "metric<TAB>value" lines. out_dir/train.log,
    opened by open_log at `first`, gets each line of the run under its step:
    each step's lines, then, every `every` steps and at the last step
    (every=0: last step only), those of hook(done). A step's ValueError or
    FloatingPointError is raised again, same type, with the step in front.
    """
    with open_log(Path(out_dir) / "train.log", first) as log:
        for step in range(first, num_steps):
            idx = batch_indices(seed, step, num_examples, batch_size)
            done = step + 1
            lr = lr_at(schedule, done)
            try:
                lines = step_fn(idx, lr)
            except ValueError as exc:
                raise ValueError(f"step {done}: {exc}") from exc
            except FloatingPointError as exc:
                raise FloatingPointError(f"step {done}: {exc}") from exc
            for line in lines:
                print(f"{done}\t{line}", file=log)
            if done == num_steps or (every and done % every == 0):
                for line in hook(done):
                    print(f"{done}\t{line}", file=log)


def _resume_point(out_dir: Path, config: ModelConfig, num_steps: int):
    """The newest checkpoint in out_dir, or None; refused, for callers that
    lack run_dir's whole-config check, if it was trained with another
    architecture or, with steps left to run, holds no optimizer state."""
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
    out_dir,
    weight_decay: float = DEFAULT_WEIGHT_DECAY,
    checkpoint_every: int = 0,
) -> TrainResult:
    """Run the pretraining loop under LAMB. The run owns out_dir: it
    resumes from the newest checkpoint-NNNNNN.ckpt there (refusing one of
    another architecture or without optimizer state before train.log is
    touched), logs each step to train.log cut back to the resume step, and
    saves a checkpoint every checkpoint_every steps and at the last. A
    checkpoint that already reached num_steps is returned with last=None."""
    params = state = last = None
    first = 0
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

    def step(idx, lr):
        nonlocal last
        last, grads = pretrain_step(params, config, examples[idx])
        lamb_step(state, params, grads, lr, weight_decay)  # a global: perfbench traces it
        return (f"lr\t{lr:.8f}", f"mlm_loss\t{last.mlm_loss:.6f}",
                f"sop_loss\t{last.sop_loss:.6f}", f"total_loss\t{last.total:.6f}")

    def save(done):
        save_checkpoint(checkpoint_path(out_dir, done), config, params, step=done, optim=state)
        return ()

    fit(step, schedule=schedule, seed=seed, num_examples=len(examples), batch_size=batch_size,
        num_steps=num_steps, out_dir=out_dir, first=first, hook=save, every=checkpoint_every)
    return TrainResult(params=params, optim=state, step=num_steps, last=last)


def _counts(examples) -> tuple[int, int]:
    """(masked slots, rows) of a nonempty set of example records: what each
    part's losses are divided by, so that they add up to the set's means."""
    if len(examples) == 0:
        raise ValueError("empty batch")
    return int((examples["mlm_labels"] != ops.IGNORE_INDEX).sum()), len(examples)


def _summed(parts) -> PretrainLosses:
    """The losses and SOP hits of (rows, losses) parts, summed."""
    return PretrainLosses(mlm_loss=sum(p.mlm_loss for _, p in parts),
                          sop_loss=sum(p.sop_loss for _, p in parts),
                          sop_hits=sum(p.sop_hits for _, p in parts))


def pretrain_step(params, config, examples):
    """Losses and gradients of one training step over example records, run
    as the length-sorted, trimmed parts of step_parts, whose losses and
    gradients add up to the step's."""
    counts = _counts(examples)

    def part_loss(records, t, grads, hold):
        return pretrain_loss_and_grads(params, config, pack_pretrain_batch(records, t),
                                       counts=counts, grads=grads, hold=hold)[0]

    parts, grads = step_parts(part_loss, params, examples, examples["input"]["attention_mask"],
                              config.hidden_size)
    return _summed(parts), grads


def evaluate_pretrain(params, config, examples) -> PretrainLosses:
    """Per-prediction MLM loss, per-example SOP loss and SOP hits over a
    fixed set, run as the length-sorted, trimmed parts of map_parts."""
    counts = _counts(examples)
    return _summed(map_parts(
        lambda records, t: pretrain_loss(params, config, pack_pretrain_batch(records, t), counts),
        examples, examples["input"]["attention_mask"], config.hidden_size))


def sop_accuracy(params, config, examples) -> float:
    """Fraction of examples whose order/swapped call matches the label,
    counted by evaluate_pretrain's pass."""
    return evaluate_pretrain(params, config, examples).sop_hits / len(examples)
