"""Shared fixtures: one desk-scale pretraining run reused across tests.

The 300-step run takes a few seconds, so it is built once per session.
Tests that need its timing (the end-to-end sanity checks) read the
elapsed seconds recorded here rather than re-running it.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import pytest

import synthdata
from nanoalbert.model import init_parameters, pack_pretrain_batch, pretrain_loss
from nanoalbert.optim import Schedule
from nanoalbert.pretrain import evaluate_pretrain, sop_accuracy, train
from nanoalbert.rng import RngStream


@pytest.fixture(scope="session")
def tiny_pretrained(tmp_path_factory):
    """300 LAMB steps on the ordered-pair corpus, with before/after metrics."""
    started = time.perf_counter()
    config = synthdata.tiny_config()
    examples = synthdata.ordered_examples(200, RngStream(7))
    heldout = synthdata.ordered_examples(60, RngStream(1007), dup_factor=1)

    init_params = init_parameters(config, RngStream(7).child("init"))
    init_losses = pretrain_loss(init_params, config, pack_pretrain_batch(examples[:64]))

    result = train(
        examples,
        config,
        seed=7,
        num_steps=300,
        batch_size=32,
        schedule=Schedule(peak_lr=0.03, warmup_steps=50, total_steps=800),
        out_dir=tmp_path_factory.mktemp("tiny_pretrained"),
    )
    final_losses = evaluate_pretrain(result.params, config, examples)
    heldout_sop = sop_accuracy(result.params, config, heldout)
    elapsed = time.perf_counter() - started

    return SimpleNamespace(
        config=config,
        examples=examples,
        heldout=heldout,
        init_losses=init_losses,
        result=result,
        final_losses=final_losses,
        heldout_sop=heldout_sop,
        elapsed=elapsed,
    )
