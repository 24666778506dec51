"""LAMB and AdamW optimizers with a linear warmup/decay schedule.

Both optimizers share Adam-style moment tracking (beta1 0.9, beta2 0.999,
eps 1e-6) and decoupled weight decay that skips bias and norm-gain tensors.
LAMB additionally scales each tensor's update by a trust ratio of parameter
norm to update norm, clipped to [0, 10].

Updates are applied in place, one whole step at a time: gradients are
validated (finite, shape-matched) before any tensor is touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-6
DEFAULT_WEIGHT_DECAY = 0.01
TRUST_RATIO_MAX = 10.0


@dataclass
class Schedule:
    peak_lr: float
    warmup_steps: int
    total_steps: int

    def __post_init__(self):
        if self.peak_lr <= 0:
            raise ValueError("peak_lr must be positive")
        if not 0 < self.warmup_steps < self.total_steps:
            raise ValueError("need 0 < warmup_steps < total_steps")


def lr_at(schedule: Schedule, step: int) -> float:
    """Linear ramp 0 -> peak over warmup, then linear decay peak -> 0."""
    if not 0 <= step <= schedule.total_steps:
        raise ValueError(f"step {step} outside [0, {schedule.total_steps}]")
    if step <= schedule.warmup_steps:
        return schedule.peak_lr * step / schedule.warmup_steps
    remaining = schedule.total_steps - step
    return schedule.peak_lr * remaining / (schedule.total_steps - schedule.warmup_steps)


def rescaled_peak(base_lr: float) -> float:
    """Peak learning rate rescaled by 2^(-1.5) for smaller-batch training."""
    if base_lr <= 0:
        raise ValueError("base_lr must be positive")
    return base_lr * 2.0 ** -1.5


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "OptimizerState":
        return cls(
            m={name: np.zeros_like(p) for name, p in params.items()},
            v={name: np.zeros_like(p) for name, p in params.items()},
        )


def decays(name: str) -> bool:
    """Weight decay applies to everything except biases and norm gains."""
    return not (name.endswith("_bias") or name.endswith("_gain"))


def _adam_updates(state, params, grads, weight_decay):
    """(p, update) per tensor: its Adam update with decoupled weight decay,
    built one tensor at a time once every gradient is validated (finite,
    shape-matched) and state.t is bumped; the caller applies each in place."""
    pending = []
    for name, p in params.items():  # all-or-nothing: check before mutating
        if name not in grads:
            raise ValueError(f"missing gradient for {name}")
        g = np.asarray(grads[name])
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name}")
        ops.assert_all_finite(f"grad[{name}]", g)
        pending.append((name, p, g))
    state.t += 1
    for name, p, g in pending:
        m, v = state.m[name], state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * np.square(g)
        update = (m / (1.0 - BETA1 ** state.t)) / (np.sqrt(v / (1.0 - BETA2 ** state.t)) + EPS)
        if weight_decay and decays(name):
            update += weight_decay * p
        yield p, update


def adamw_step(state, params, grads, lr, weight_decay=DEFAULT_WEIGHT_DECAY):
    """One decoupled-weight-decay Adam step, in place."""
    for p, update in _adam_updates(state, params, grads, weight_decay):
        p -= lr * update


def lamb_step(state, params, grads, lr, weight_decay=DEFAULT_WEIGHT_DECAY):
    """One LAMB step: the AdamW update scaled per tensor by the trust ratio."""
    for p, update in _adam_updates(state, params, grads, weight_decay):
        p_norm = float(np.linalg.norm(p))
        u_norm = float(np.linalg.norm(update))
        ratio = min(p_norm / u_norm, TRUST_RATIO_MAX) if p_norm and u_norm else 1.0
        p -= (lr * ratio) * update
