"""Training loop determinism: batch addressing, logs, checkpoints, resume.

The resume contract is the strongest property here: stopping at step N,
reloading the checkpoint, and continuing must reproduce the uninterrupted
run bit for bit, because batch selection depends only on (seed, step).
"""

import shutil
import weakref

import numpy as np
import pytest

import synthdata
from nanoalbert import pretrain
from nanoalbert.checkpoint import load_checkpoint, save_checkpoint
from nanoalbert.optim import Schedule, lamb_step
from nanoalbert.pretrain import (
    batch_indices,
    checkpoint_path,
    evaluate_pretrain,
    fit,
    latest_checkpoint,
    sop_accuracy,
    train,
)
from nanoalbert.rng import RngStream

SCHED = Schedule(peak_lr=0.02, warmup_steps=10, total_steps=400)


@pytest.fixture(scope="module")
def corpus():
    return synthdata.ordered_examples(60, RngStream(500))


# ---------------------------------------------------------------------------
# batch addressing
# ---------------------------------------------------------------------------

def test_batch_indices_deterministic_per_step():
    a = batch_indices(seed=1, step=5, num_examples=100, batch_size=8)
    b = batch_indices(seed=1, step=5, num_examples=100, batch_size=8)
    assert a == b
    assert batch_indices(1, 6, 100, 8) != a
    assert batch_indices(2, 5, 100, 8) != a


def test_batch_indices_without_replacement_when_possible():
    idx = batch_indices(seed=3, step=0, num_examples=50, batch_size=50)
    assert sorted(idx) == list(range(50))
    idx = batch_indices(seed=3, step=1, num_examples=100, batch_size=16)
    assert len(set(idx)) == 16


def test_batch_indices_with_replacement_for_small_pools():
    idx = batch_indices(seed=4, step=0, num_examples=3, batch_size=9)
    assert len(idx) == 9
    assert all(0 <= i < 3 for i in idx)


def test_checkpoint_naming_and_latest(tmp_path):
    assert checkpoint_path(tmp_path, 7).name == "checkpoint-000007.ckpt"
    assert latest_checkpoint(tmp_path) is None
    for step in (5, 20, 15):
        checkpoint_path(tmp_path, step).write_bytes(b"x")
    (tmp_path / "notes.txt").write_bytes(b"y")
    assert latest_checkpoint(tmp_path).name == "checkpoint-000020.ckpt"


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def _hook_steps(out_dir, num_steps, every, first=0):
    fired = []

    def hook(done):  # the step's own lines reach train.log before its hook fires
        assert (out_dir / "train.log").read_text().endswith(f"{done}\tloss\t0\n")
        fired.append(done)
        return (f"hook\t{done}",)

    fit(lambda idx, lr: ("loss\t0",), schedule=SCHED, seed=0, num_examples=20, batch_size=4,
        num_steps=num_steps, out_dir=out_dir, first=first, hook=hook, every=every)
    return fired


def test_fit_hook_cadence(tmp_path):
    assert _hook_steps(tmp_path, 10, 4) == [4, 8, 10]
    assert _hook_steps(tmp_path, 12, 4) == [4, 8, 12]  # the last step fires once
    assert _hook_steps(tmp_path, 10, 0) == [10]
    assert _hook_steps(tmp_path, 10, 4, first=5) == [8, 10]
    assert _hook_steps(tmp_path, 5, 4, first=5) == []


def test_train_frees_each_steps_gradients_before_the_next_update(tmp_path, corpus, monkeypatch):
    refs = []

    def recording_lamb_step(state, params, grads, *args):
        assert all(ref() is None for step in refs for ref in step), \
            "a finished step's gradients are alive"
        refs.append([weakref.ref(g) for g in grads.values()])
        lamb_step(state, params, grads, *args)

    monkeypatch.setattr(pretrain, "lamb_step", recording_lamb_step)
    train(corpus, synthdata.tiny_config(), seed=8, num_steps=3, batch_size=8,
          schedule=SCHED, out_dir=tmp_path)
    assert len(refs) == 3 and all(ref() is None for step in refs for ref in step)


def test_fit_feeds_batches_and_lr_by_step(tmp_path):
    seen = []

    def step_fn(idx, lr):
        seen.append((idx, lr))
        return ()

    fit(step_fn, schedule=SCHED, seed=9, num_examples=30, batch_size=5, num_steps=3,
        out_dir=tmp_path, first=1, hook=lambda done: ())
    assert seen == [(batch_indices(9, 1, 30, 5), SCHED.peak_lr * 2 / 10),
                    (batch_indices(9, 2, 30, 5), SCHED.peak_lr * 3 / 10)]


def test_train_saves_each_checkpoint_once(tmp_path, corpus, monkeypatch):
    saved = []

    def counting_save(path, *args, **kwargs):
        saved.append(path.name)
        return save_checkpoint(path, *args, **kwargs)

    monkeypatch.setattr(pretrain, "save_checkpoint", counting_save)
    train(corpus, synthdata.tiny_config(), seed=8, num_steps=10, batch_size=8,
          schedule=SCHED, checkpoint_every=5, out_dir=tmp_path)
    assert saved == ["checkpoint-000005.ckpt", "checkpoint-000010.ckpt"]


def test_train_steps_with_lamb(tmp_path, corpus, monkeypatch):
    calls = []

    def counting_lamb_step(*args, **kwargs):
        calls.append(args[0].t)
        return lamb_step(*args, **kwargs)

    monkeypatch.setattr(pretrain, "lamb_step", counting_lamb_step)
    train(corpus, synthdata.tiny_config(), seed=8, num_steps=6, batch_size=8,
          schedule=SCHED, out_dir=tmp_path)
    assert calls == list(range(6))


def test_train_validates_inputs(corpus, tmp_path):
    config = synthdata.tiny_config()
    with pytest.raises(ValueError, match="no pretraining examples"):
        train([], config, seed=0, num_steps=5, batch_size=4, schedule=SCHED,
              out_dir=tmp_path)
    with pytest.raises(ValueError, match="total_steps"):
        train(corpus, config, seed=0, num_steps=500, batch_size=4, schedule=SCHED,
              out_dir=tmp_path)


def test_identical_seeds_reproduce_bitwise(corpus, tmp_path):
    config = synthdata.tiny_config()
    runs = [
        train(corpus, config, seed=11, num_steps=20, batch_size=8,
              schedule=SCHED, out_dir=tmp_path / str(i))
        for i in range(2)
    ]
    logs = [(tmp_path / str(i) / "train.log").read_text() for i in range(2)]
    assert logs[0] == logs[1]
    for name in runs[0].params:
        assert np.array_equal(runs[0].params[name], runs[1].params[name]), name
        assert np.array_equal(runs[0].optim.m[name], runs[1].optim.m[name])


def test_different_seeds_diverge(corpus, tmp_path):
    config = synthdata.tiny_config()
    a = train(corpus, config, seed=1, num_steps=5, batch_size=8, schedule=SCHED,
              out_dir=tmp_path / "a")
    b = train(corpus, config, seed=2, num_steps=5, batch_size=8, schedule=SCHED,
              out_dir=tmp_path / "b")
    assert any(
        not np.array_equal(a.params[n], b.params[n]) for n in a.params
    )


def test_log_format(corpus, tmp_path):
    config = synthdata.tiny_config()
    train(corpus, config, seed=6, num_steps=3, batch_size=8, schedule=SCHED,
          out_dir=tmp_path)
    lines = (tmp_path / "train.log").read_text().splitlines()
    assert len(lines) == 12  # 4 metrics per step
    step, metric, value = lines[0].split("\t")
    assert (step, metric) == ("1", "lr")
    float(value)  # parses
    assert [l.split("\t")[1] for l in lines[:4]] == [
        "lr", "mlm_loss", "sop_loss", "total_loss"
    ]


# ---------------------------------------------------------------------------
# checkpoints and resume
# ---------------------------------------------------------------------------

def test_periodic_checkpoints_written(tmp_path, corpus):
    config = synthdata.tiny_config()
    train(corpus, config, seed=8, num_steps=10, batch_size=8, schedule=SCHED,
          checkpoint_every=4, out_dir=tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "checkpoint-000004.ckpt",
        "checkpoint-000008.ckpt",
        "checkpoint-000010.ckpt",  # final step always saved
        "train.log",
    ]
    ck = load_checkpoint(tmp_path / "checkpoint-000008.ckpt")
    assert ck.step == 8
    assert ck.optim is not None and ck.optim.t == 8


def test_resume_reproduces_uninterrupted_run(tmp_path, corpus):
    config = synthdata.tiny_config()
    straight = train(corpus, config, seed=12, num_steps=30, batch_size=8,
                     schedule=SCHED, out_dir=tmp_path / "straight")

    first = train(corpus, config, seed=12, num_steps=18, batch_size=8,
                  schedule=SCHED, out_dir=tmp_path / "first")
    save_checkpoint(checkpoint_path(tmp_path, 18), config, first.params, step=first.step,
                    optim=first.optim)

    resumed = train(corpus, config, seed=12, num_steps=30, batch_size=8,
                    schedule=SCHED, out_dir=tmp_path)
    for name in straight.params:
        assert np.array_equal(straight.params[name], resumed.params[name]), name
    for name in straight.params:
        assert np.array_equal(straight.optim.m[name], resumed.optim.m[name])
        assert np.array_equal(straight.optim.v[name], resumed.optim.v[name])
    assert resumed.step == 30 and resumed.optim.t == 30


def test_train_resumes_its_out_dir_byte_identically(tmp_path, corpus, capsys):
    config = synthdata.tiny_config()
    run = dict(seed=15, num_steps=10, batch_size=8, schedule=SCHED, checkpoint_every=4)
    straight, cut = tmp_path / "straight", tmp_path / "cut"
    train(corpus, config, out_dir=straight, **run)
    assert capsys.readouterr().out == ""

    # a killed run: the last two checkpoints are gone and the log ran on
    # past step 4 into a torn line
    shutil.copytree(straight, cut)
    for step in (8, 10):
        checkpoint_path(cut, step).unlink()
    with open(cut / "train.log", "a", encoding="utf-8") as log:
        log.write("11\tlr\t0.0")
    result = train(corpus, config, out_dir=cut, **run)
    assert capsys.readouterr().out == "resuming from step 4\n"
    assert result.step == 10 and result.last is not None
    for name in ("checkpoint-000008.ckpt", "checkpoint-000010.ckpt", "train.log"):
        assert (cut / name).read_bytes() == (straight / name).read_bytes(), name

    again = train(corpus, config, out_dir=cut, **run)
    assert again.last is None and again.step == 10
    assert (cut / "train.log").read_bytes() == (straight / "train.log").read_bytes()


def test_train_refuses_to_resume_before_touching_its_log(tmp_path, corpus):
    config = synthdata.tiny_config()
    run = dict(seed=16, num_steps=6, batch_size=8, schedule=SCHED, checkpoint_every=3)
    train(corpus, config, out_dir=tmp_path, **run)
    checkpoint_path(tmp_path, 6).unlink()
    with open(tmp_path / "train.log", "a", encoding="utf-8") as log:
        log.write("7\tlr\t0.0")  # a torn tail any resume would cut
    log = (tmp_path / "train.log").read_bytes()

    deeper = synthdata.tiny_config(num_layers=config.num_layers + 1)
    with pytest.raises(ValueError, match=rf"checkpoint-000003\.ckpt was trained with "
                                         rf"num_layers={config.num_layers}, but the config says "
                                         rf"num_layers={config.num_layers + 1}; cannot resume"):
        train(corpus, deeper, out_dir=tmp_path, **run)

    mid = load_checkpoint(checkpoint_path(tmp_path, 3))
    save_checkpoint(checkpoint_path(tmp_path, 3), config, mid.params, step=3)
    with pytest.raises(ValueError, match="has no optimizer state; cannot resume"):
        train(corpus, config, out_dir=tmp_path, **run)
    assert (tmp_path / "train.log").read_bytes() == log
    assert not checkpoint_path(tmp_path, 6).exists()


# ---------------------------------------------------------------------------
# evaluation helpers
# ---------------------------------------------------------------------------

def test_evaluate_pretrain_weights_by_prediction_count(corpus, tmp_path, monkeypatch):
    config = synthdata.tiny_config()
    result = train(corpus, config, seed=13, num_steps=5, batch_size=8, schedule=SCHED,
                   out_dir=tmp_path)
    whole = evaluate_pretrain(result.params, config, corpus)
    monkeypatch.setattr("nanoalbert.model.PART_ACTIVATIONS", 1)  # one row a part
    again = evaluate_pretrain(result.params, config, corpus)
    # weighted averaging makes the numbers independent of how parts are cut
    assert abs(whole.mlm_loss - again.mlm_loss) < 1e-6
    assert abs(whole.sop_loss - again.sop_loss) < 1e-6
    with pytest.raises(ValueError):
        evaluate_pretrain(result.params, config, [])


def test_sop_accuracy_bounds(corpus, tmp_path):
    config = synthdata.tiny_config()
    result = train(corpus, config, seed=14, num_steps=5, batch_size=8, schedule=SCHED,
                   out_dir=tmp_path)
    acc = sop_accuracy(result.params, config, corpus[:50])
    assert 0.0 <= acc <= 1.0
    with pytest.raises(ValueError):
        sop_accuracy(result.params, config, [])
