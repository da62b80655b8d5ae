"""The benchmark's hooks still resolve in the package.

`bench/spans.py` traces the functions named in its ``TARGETS`` table, and
`bench/workloads.py` swaps functions by name with ``replaced("module.name",
...)``. A function renamed or deleted in ``qpattn`` breaks those runs only
when the benchmark runs, so these tests read both files (without importing
or editing them) and resolve every name. The wrappers also read arguments
and results by position, so the last tests check those call shapes as the
program's own callers make them.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from qpattn import circuit, cli, data, qcore, scorers, training, vit

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _module(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _strings(node):
    return [n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def span_targets():
    for node in ast.walk(_module("spans.py")):
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS":
            return [key.value for key in node.value.keys]
    raise AssertionError("bench/spans.py defines no TARGETS table")


def replaced_targets():
    # The first argument of every `replaced(...)` call: a string literal, or
    # a name whose assignments hold the string literals it can take.
    tree = _module("workloads.py")
    assigned = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigned.setdefault(target.id, []).extend(_strings(node.value))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "replaced":
            arg = node.args[0]
            found.update(assigned[arg.id] if isinstance(arg, ast.Name) else _strings(arg))
    return sorted(found)


def _resolve(target):
    module_name, attr = target.split(".")
    return getattr(importlib.import_module(f"qpattn.{module_name}"), attr, None)


@pytest.mark.parametrize("target", span_targets())
def test_span_target_resolves(target):
    assert callable(_resolve(target)), target


def test_replaced_targets_found():
    # A parse that finds nothing would pass the test below vacuously.
    assert {"circuit.score_batch", "circuit.score_noisy_batch", "vit.backward"} <= set(replaced_targets())


@pytest.mark.parametrize("target", replaced_targets())
def test_replaced_target_resolves(target):
    assert callable(_resolve(target)), target


def test_score_batch_takes_exactly_inputs_and_params():
    # `bench/workloads.attention_errors` reads a fourth positional argument
    # of `score_batch` as the statevector path's ``independent`` flag.
    assert list(inspect.signature(circuit.score_batch).parameters) == ["qs", "ks", "params"]


# The call shapes the benchmark's wrappers read, each seen through the
# program's own caller: a tiny training run and a tiny noise sweep.

TINY_TASK = dict(image_size=8, n_per_class=20, train_n=24, valid_n=12)


def _tiny_split():
    spec = data.SyntheticSpec(TINY_TASK["n_per_class"], TINY_TASK["image_size"])
    dataset = data.synthetic_dataset(spec)
    return data.split(dataset, TINY_TASK["train_n"], TINY_TASK["valid_n"], 1)


def _recorder(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(module, name, wrapper)


def test_train_loop_hands_evaluate_the_dataset_and_backward_three_arguments(monkeypatch):
    calls, steps = [], []
    _recorder(monkeypatch, training, "evaluate", calls)
    backward = vit.backward

    def three_positional(model, images, labels):  # the benchmark's wrapper signature
        steps.append(len(images))
        return backward(model, images, labels)

    monkeypatch.setattr(vit, "backward", three_positional)
    train_ds, valid_ds = _tiny_split()
    config = vit.VitConfig(8, 1, 4, 1, 2, 8, 16, 2, scorer="dot")
    tconfig = training.TrainConfig(lr0=0.3, batch_size=8, epochs=2, warmup_epochs=1, seed=1)
    training.train_loop(vit.init_model(config, 1), train_ds, valid_ds, tconfig)
    assert steps == [8, 8, 8] * 2 and len(calls) == 2
    for args, _, out in calls:
        assert isinstance(args[1], data.ImageDataset) and args[1].n == valid_ds.n
        assert 0.0 <= out[0].accuracy <= 1.0


def test_noise_sweep_calls_forward_with_stats_per_setting(monkeypatch, tmp_path):
    calls = []
    config = vit.VitConfig(8, 1, 4, 2, 2, 8, 16, 2, scorer="qpa", depth=4)
    vit.save_checkpoint(vit.init_model(config, 1), tmp_path / "checkpoint.npz")
    _recorder(monkeypatch, vit, "forward_with_stats", calls)
    argv = ["noise-sweep", "--checkpoint", str(tmp_path / "checkpoint.npz"), "--gammas", "0.05"]
    for key, value in dict(TINY_TASK, seed=1).items():
        argv += ["--set", f"{key}={value}"]
    assert cli.main([*argv, "--out", str(tmp_path / "sweep")]) == 0
    noises = [args[2] if len(args) > 2 else kwargs.get("noise") for args, kwargs, _ in calls]
    assert noises == [None] + [(channel, 0.05) for channel in qcore.CHANNELS]
    for args, _, (logits, extras) in calls:
        assert len(args[1]) == TINY_TASK["valid_n"] and logits.shape == (len(args[1]), 2)
        assert extras["mu_count"] > 0 and 0.0 <= extras["mu_sum"] / extras["mu_count"] <= 1.0


def test_tiled_forward_keeps_the_per_pair_calls_the_benchmark_reads(monkeypatch):
    # `attention_errors` takes the first `score_batch` call of a one-image
    # forward, indexes its broadcast inputs at [0] and recomputes every score
    # of the first softmax from `circuit.score`; `pair_scores` keeps the
    # per-pair result of the first `score_noisy_batch` call. Every workload
    # builds a one-layer model (`bench/workloads.py`: ``num_layers = 1``),
    # whose only layer scores the CLS row. One input per tile makes every
    # image a tile of its own, larger than the tile budget.
    monkeypatch.setattr(scorers, "TILE_INPUTS", 1)
    config = vit.VitConfig(8, 1, 4, 1, 2, 8, 16, 2, scorer="qpa", depth=3)
    heads, n, depth = config.heads, 5, config.depth
    model = vit.init_model(config, 2)
    images = np.random.default_rng(3).uniform(0, 1, size=(2, 1, 8, 8))
    softmax, clean = [], []
    _recorder(monkeypatch, scorers, "row_softmax", softmax)
    _recorder(monkeypatch, circuit, "score_batch", clean)
    vit.forward(model, images[:1])
    (args, _, _) = clean[0]
    qs, ks = (np.asarray(a)[0] for a in np.broadcast_arrays(args[0], args[1]))
    assert qs.shape == ks.shape == (heads, 1, n, depth)
    A = softmax[0][0][0][0]
    assert A.shape == (heads, 1, n)
    for h, i, j in np.ndindex(A.shape):
        expected = sum(circuit.score(float(q), float(k), args[2]) for q, k in zip(qs[h, i, j], ks[h, i, j]))
        assert abs(A[h, i, j] - expected) <= 1e-12

    noisy = []
    _recorder(monkeypatch, circuit, "score_noisy_batch", noisy)
    vit.forward_with_stats(model, images, noise=("AD", 0.1))
    assert len(noisy) == 2  # one call per image
    mu = np.asarray(noisy[0][2])
    assert mu.shape == (1, heads, 1, n, depth) and ((mu >= 0.0) & (mu <= 1.0)).all()


@pytest.mark.parametrize("noise", [None, ("AD", 0.1)], ids=["clean", "AD"])
def test_only_the_last_layer_makes_per_pair_calls(monkeypatch, noise):
    # Layers that score all N query rows take the feature product. In a
    # multi-layer model the first per-pair call therefore comes from the
    # last layer and the first softmax from layer 0: `attention_errors`
    # cannot pair them there.
    config = vit.VitConfig(8, 1, 4, 2, 2, 8, 16, 2, scorer="qpa", depth=3)
    model = vit.init_model(config, 2)
    images = np.random.default_rng(3).uniform(0, 1, size=(2, 1, 8, 8))
    calls = []
    _recorder(monkeypatch, circuit, "score_batch" if noise is None else "score_noisy_batch", calls)
    vit.forward(model, images, noise=noise)
    vit.forward_with_stats(model, images, noise=noise)
    assert len(calls) == 2  # one tile per forward: both images fit
    for args, _, _ in calls:
        assert np.shape(args[0]) == (2, config.heads, 1, 1, config.depth)  # the CLS row alone
