"""Model tests: patch embedding, forward determinism, full gradient checks,
parameter accounting, checkpoint round trips."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest

from qpattn import circuit, scorers, training, vit
from qpattn.data import ImageDataset
from qpattn.vit import VitConfig, init_model


def tiny_config(scorer, **overrides):
    base = dict(
        image_size=8,
        channels=1,
        patch_size=4,
        num_layers=1,
        heads=2,
        hidden_size=8,
        mlp_hidden=16,
        num_classes=2,
        scorer=scorer,
        depth=4,
    )
    base.update(overrides)
    return VitConfig(**base)


def random_images(rng, n=3, size=8, channels=1):
    return rng.uniform(0, 1, size=(n, channels, size, size))


class TestConfig:
    def test_indivisible_image_rejected(self):
        with pytest.raises(ValueError):
            tiny_config("dot", image_size=10)

    def test_hidden_head_divisibility(self):
        with pytest.raises(ValueError):
            tiny_config("dot", hidden_size=9)

    def test_depth_bound(self):
        with pytest.raises(ValueError):
            tiny_config("qpa", depth=5)  # head_dim = 4

    def test_unknown_scorer(self):
        with pytest.raises(ValueError):
            tiny_config("bogus")

    @pytest.mark.parametrize(
        "name, value",
        [("image_size", 8.0), ("heads", True), ("num_layers", 1.0), ("depth", 4.0),
         ("num_classes", 2.0), ("mlp_hidden", "16")],
    )
    def test_non_integer_size_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            tiny_config("qpa", **{name: value})


class TestPatchEmbed:
    def test_mnist_scale_patch_count(self):
        cfg = VitConfig(28, 1, 7, 1, 3, 192, 64, 2, scorer="dot", depth=16)
        assert cfg.num_patches == 16
        model = init_model(cfg, 0)
        images = np.zeros((2, 1, 28, 28))
        tokens, _ = vit.patch_embed(images, cfg, model.params["patch.w"], model.params["patch.b"])
        assert tokens.shape == (2, 16, 192)

    def test_zero_image_zero_bias_gives_zero_tokens(self):
        cfg = tiny_config("dot")
        model = init_model(cfg, 0)
        tokens, _ = vit.patch_embed(
            np.zeros((1, 1, 8, 8)), cfg, model.params["patch.w"], np.zeros(8)
        )
        assert np.allclose(tokens, 0.0)

    def test_synthetic_scale_patch_count(self):
        cfg = VitConfig(16, 1, 4, 1, 2, 32, 64, 2, scorer="dot", depth=16)
        assert cfg.num_patches == 16

    def test_patch_pixels_land_in_right_patch(self):
        cfg = tiny_config("dot")
        model = init_model(cfg, 0)
        images = np.arange(64, dtype=float).reshape(1, 1, 8, 8) / 64
        _, patches = vit.patch_embed(images, cfg, model.params["patch.w"], model.params["patch.b"])
        # patch 0 is the top-left 4x4 block, row-major
        expected = images[0, 0, :4, :4].reshape(-1)
        assert np.array_equal(patches[0, 0], expected)

    def test_shape_mismatch_rejected(self):
        cfg = tiny_config("dot")
        model = init_model(cfg, 0)
        with pytest.raises(ValueError):
            vit.patch_embed(np.zeros((1, 1, 6, 6)), cfg, model.params["patch.w"], model.params["patch.b"])


class TestForward:
    def test_deterministic(self):
        rng = np.random.default_rng(0)
        images = random_images(rng)
        model = init_model(tiny_config("qpa"), 1)
        assert np.array_equal(vit.forward(model, images), vit.forward(model, images))

    def test_degenerate_projections_still_finite(self):
        rng = np.random.default_rng(1)
        images = random_images(rng)
        model = init_model(tiny_config("dot"), 1)
        for name in ("attn.wq", "attn.bq", "attn.wk", "attn.bk"):
            model.params[f"layers.0.{name}"][:] = 0.0
        logits = vit.forward(model, images)
        assert np.all(np.isfinite(logits))
        # zero q/k make attention uniform over tokens for every query
        caches = {}
        vit._forward(model, images, caches=caches)
        probs = caches["layers"][0]["attn_probs"]
        assert np.allclose(probs, 1.0 / probs.shape[-1], atol=1e-12)

    def test_logits_respond_to_mixer_parameter(self):
        rng = np.random.default_rng(2)
        images = random_images(rng)
        model = init_model(tiny_config("qpa"), 1)
        base = vit.forward(model, images)
        model.params["layers.0.scorer.qpa"][4] += 0.2  # beta only
        moved = vit.forward(model, images)
        # much of a beta shift is row-constant and cancels in softmax, but the
        # logits must still move and the loss gradient must reach beta
        assert np.abs(moved - base).max() > 0
        model.params["layers.0.scorer.qpa"][4] -= 0.2
        _, grads = vit.backward(model, images, np.array([0, 1, 0]))
        assert abs(grads["layers.0.scorer.qpa"][4]) > 1e-12

    def test_layernorm_normalises_tokens(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6, 16)) * 1.7 + 0.3
        normed, _ = vit._layernorm(x, np.ones(16), np.zeros(16))
        assert np.abs(normed.mean(axis=-1)).max() < 1e-6
        assert np.abs(normed.var(axis=-1) - 1.0).max() < 1e-6


def _all_tokens(model, images, labels=None, noise=None):
    """Every layer on all N tokens: the algorithm before the CLS-only last block.

    Returns the logits, each layer's per-head (Q, K), and with ``labels``
    the loss and the gradients. Plain expressions over the layer primitives,
    with every intermediate kept, as a reference for `vit._forward` and
    `vit.backward`.
    """
    cfg, P = model.config, model.params
    kind = scorers.KINDS[cfg.scorer]
    tokens, patches = vit.patch_embed(images, cfg, P["patch.w"], P["patch.b"])
    cls = np.broadcast_to(P["cls"], (len(images), 1, cfg.hidden_size))
    x = np.concatenate([cls, tokens], axis=1) + P["pos"]
    layers = []
    for layer in range(cfg.num_layers):
        pre = f"layers.{layer}."
        c = {"x": x}
        c["h"], c["ln1"] = vit._layernorm(x, P[pre + "ln1.g"], P[pre + "ln1.b"])
        c["qh"], c["kh"], c["vh"] = (
            vit._split_heads(vit._linear(c["h"], P[pre + f"attn.w{n}"], P[pre + f"attn.b{n}"]), cfg.heads)
            for n in "qkv"
        )
        c["sp"] = vit._layer_scorer_params(model, layer)
        if kind.scores is None:
            ctx = scorers.linear_attention(c["qh"], c["kh"], c["vh"])
        else:
            c["probs"] = scorers.row_softmax(kind.scores(c["qh"], c["kh"], c["sp"], cfg.depth, noise))
            ctx = c["probs"] @ c["vh"]
        c["merged"] = vit._merge_heads(ctx)
        x_mid = x + vit._linear(c["merged"], P[pre + "attn.wo"], P[pre + "attn.bo"])
        c["h2"], c["ln2"] = vit._layernorm(x_mid, P[pre + "ln2.g"], P[pre + "ln2.b"])
        c["f1"] = vit._linear(c["h2"], P[pre + "ffn.w1"], P[pre + "ffn.b1"])
        c["a1"], c["phi"] = vit._gelu(c["f1"])
        x = x_mid + vit._linear(c["a1"], P[pre + "ffn.w2"], P[pre + "ffn.b2"])
        layers.append(c)
    logits = vit._linear(x[:, 0], P["head.w"], P["head.b"])
    qk = [(c["qh"], c["kh"]) for c in layers]
    if labels is None:
        return logits, qk

    loss, dlogits = vit.cross_entropy(logits, labels)
    grads = {}
    dx = np.zeros_like(x)
    dx[:, 0], grads["head.w"], grads["head.b"] = vit._linear_backward(dlogits, x[:, 0], P["head.w"])
    for layer in reversed(range(cfg.num_layers)):
        pre, c = f"layers.{layer}.", layers[layer]
        da1, grads[pre + "ffn.w2"], grads[pre + "ffn.b2"] = vit._linear_backward(dx, c["a1"], P[pre + "ffn.w2"])
        df1 = vit._gelu_backward(da1, c["f1"], c["phi"])
        dh2, grads[pre + "ffn.w1"], grads[pre + "ffn.b1"] = vit._linear_backward(df1, c["h2"], P[pre + "ffn.w1"])
        dmid, grads[pre + "ln2.g"], grads[pre + "ln2.b"] = vit._layernorm_backward(
            dh2, P[pre + "ln2.g"], c["ln2"]
        )
        dx = dx + dmid
        dmerged, grads[pre + "attn.wo"], grads[pre + "attn.bo"] = vit._linear_backward(
            dx, c["merged"], P[pre + "attn.wo"]
        )
        dctx = vit._split_heads(dmerged, cfg.heads)
        if kind.scores is None:
            dqkv = scorers.linear_attention_backward(c["qh"], c["kh"], c["vh"], dctx)
        else:
            dprobs = dctx @ np.swapaxes(c["vh"], -1, -2)
            dvh = np.swapaxes(c["probs"], -1, -2) @ dctx
            dA = scorers.row_softmax_backward(c["probs"], dprobs)
            dqh, dkh, scorer_grads = kind.backward(c["qh"], c["kh"], c["sp"], cfg.depth, dA)
            grads.update({pre + "scorer." + name: g for name, g in scorer_grads.items()})
            dqkv = dqh, dkh, dvh
        dh = 0
        for n, dt in zip("qkv", dqkv):
            dpart, grads[pre + f"attn.w{n}"], grads[pre + f"attn.b{n}"] = vit._linear_backward(
                vit._merge_heads(dt), c["h"], P[pre + f"attn.w{n}"]
            )
            dh = dh + dpart
        dx_in, grads[pre + "ln1.g"], grads[pre + "ln1.b"] = vit._layernorm_backward(
            dh, P[pre + "ln1.g"], c["ln1"]
        )
        dx = dx + dx_in
    grads["pos"] = dx.sum(axis=0)
    grads["cls"] = dx[:, 0].sum(axis=0)
    _, grads["patch.w"], grads["patch.b"] = vit._linear_backward(dx[:, 1:], patches, P["patch.w"])
    return logits, qk, loss, grads


def _circuit_params(model, layer):
    # The circuit parameters a quantum layer scores with, the pinned ones at 0.
    kind = scorers.KINDS[model.config.scorer]
    theta = model.params[f"layers.{layer}.scorer.qpa"]
    return circuit.QpaParams.from_array(np.where(np.isin(circuit.PARAM_NAMES, kind.pinned), 0.0, theta))


class TestCLSOnlyLastLayer:
    """The last layer runs its query side on the CLS row alone."""

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("kind", scorers.KINDS)
    def test_matches_all_token_reference(self, kind, layers):
        model = init_model(tiny_config(kind, num_layers=layers, patch_size=2), 14)
        images = random_images(np.random.default_rng(15))
        labels = np.array([0, 1, 1])
        ref_logits, _, ref_loss, ref_grads = _all_tokens(model, images, labels)
        logits = vit.forward(model, images)
        loss, grads = vit.backward(model, images, labels)
        assert np.abs(logits - ref_logits).max() <= 1e-12 * max(1.0, np.abs(ref_logits).max())
        assert abs(loss - ref_loss) <= 1e-12 * max(1.0, abs(ref_loss))
        assert list(grads) == list(model.params) and set(ref_grads) == set(grads)
        scale = max(np.abs(g).max() for g in ref_grads.values())
        for name, ref in ref_grads.items():
            assert grads[name].shape == ref.shape, name
            assert np.abs(grads[name] - ref).max() <= 1e-12 * scale, name

    @pytest.mark.parametrize("kind", scorers.KINDS)
    def test_last_scorer_gets_one_query_row(self, kind, monkeypatch):
        config = tiny_config(kind, num_layers=3)
        n = config.num_tokens
        model = init_model(config, 16)
        images = random_images(np.random.default_rng(17))
        rows = []

        def recorded(f):
            def record(Q, K, *args):
                rows.append((Q.shape[-2], K.shape[-2]))
                return f(Q, K, *args)

            return record

        base = scorers.KINDS[kind]
        if base.scores is None:
            for name in ("linear_attention", "linear_attention_backward"):
                monkeypatch.setattr(scorers, name, recorded(getattr(scorers, name)))
        else:
            fields = ("scores", "backward", "train_scores", "score_sum_terms")
            wrapped = {f: recorded(getattr(base, f)) for f in fields if getattr(base, f) is not None}
            monkeypatch.setitem(scorers.KINDS, kind, dataclasses.replace(base, **wrapped))
        vit.forward(model, images)
        assert rows == [(n, n), (n, n), (1, n)]
        rows.clear()
        vit.backward(model, images, np.array([0, 1, 0]))
        assert rows == [(n, n), (n, n), (1, n), (1, n), (n, n), (n, n)]
        rows.clear()
        vit.forward_with_stats(model, images)
        # The mean score's sum reads every query row of the last layer.
        assert rows == [(n, n), (n, n), (1, n)] + ([(n, n)] if base.quantum else [])

    @pytest.mark.parametrize("noise", [None, ("AD", 0.05)], ids=["clean", "AD"])
    def test_a_noise_sweep_batch_makes_at_most_four_circuit_calls(self, noise, count_calls):
        # One 64-image batch at N=50, one layer, two heads, D=16: the CLS
        # row's 1,600 pairs per image run in tiles of 17 images, where a
        # tile of 4096 inputs per side would hold 2.
        model = init_model(VitConfig(28, 1, 4, 1, 2, 32, 64, 2, scorer="qpa", depth=16), 5)
        images = np.random.default_rng(6).uniform(0, 1, size=(64, 1, 28, 28))
        calls = count_calls(circuit, "score_batch" if noise is None else "score_noisy_batch")
        vit.forward_with_stats(model, images, noise=noise)
        assert 1 <= len(calls) <= 4
        calls.clear()
        vit.forward(model, images, noise=noise)
        assert 1 <= len(calls) <= 4

    def test_training_step_computes_no_score_statistics(self, monkeypatch):
        model = init_model(tiny_config("qpa", num_layers=2), 18)
        images = random_images(np.random.default_rng(19))
        sums = []
        monkeypatch.setattr(scorers, "quantum_score_sum", lambda *a: sums.append(1) or 0.0)
        vit.backward(model, images, np.array([0, 1, 0]))
        vit.forward(model, images)
        assert not sums
        vit.forward_with_stats(model, images)
        assert len(sums) == 1


class TestMeanMu:
    NOISE = [None] + [(channel, 0.2) for channel in ("AD", "DP", "BF", "PF")]

    @pytest.mark.parametrize("kind", ["qpa", "qpa-ind"])
    def test_mean_of_every_per_pair_score(self, kind):
        # forward_with_stats sums the scores of every (query, key, dimension)
        # triple of every layer; the reference scores each layer's full Q and
        # K pair by pair with the circuit.
        model = init_model(tiny_config(kind, num_layers=2), 4)
        images = random_images(np.random.default_rng(5))
        depth = model.config.depth
        means = {}
        for noise in self.NOISE:
            logits, extras = vit.forward_with_stats(model, images, noise=noise)
            per_pair = []
            for layer, (qh, kh) in enumerate(_all_tokens(model, images, noise=noise)[1]):
                pairs = qh[..., :, None, :depth], kh[..., None, :, :depth], _circuit_params(model, layer)
                if noise is None:
                    per_pair.append(circuit.score_batch(*pairs).ravel())
                else:
                    per_pair.append(circuit.score_noisy_batch(*pairs, *noise).ravel())
            per_pair = np.concatenate(per_pair)
            assert set(extras) == {"mu_sum", "mu_count"}
            assert extras["mu_count"] == per_pair.size == 2 * 3 * 2 * 5 * 5 * 4
            assert abs(extras["mu_sum"] - per_pair.sum()) <= 1e-12 * per_pair.size
            mean_mu = extras["mu_sum"] / extras["mu_count"]
            assert abs(mean_mu - per_pair.mean()) <= 1e-12
            assert np.array_equal(logits, vit.forward(model, images, noise=noise))
            means[noise[0] if noise else "clean"] = mean_mu
        assert means["PF"] == means["clean"]

    def test_classical_kind_has_no_mean_mu(self):
        model = init_model(tiny_config("dot"), 4)
        images = random_images(np.random.default_rng(6))
        _, extras = vit.forward_with_stats(model, images)
        assert extras == {"mu_sum": 0.0, "mu_count": 0}
        dataset = ImageDataset(images, np.array([0, 1, 0]))
        assert training.noise_sweep(model, dataset, [None])[0][3] is None

    @pytest.mark.parametrize("kind, noise", [("qpa", None), ("qpa", ("AD", 0.2)), ("dot", None)])
    def test_noise_sweep_adds_the_mean_mu_to_evaluate(self, kind, noise):
        # A sweep setting's first three values are `evaluate`'s bit for bit
        # (both forwards give the same logits), over two 64-image batches.
        model = init_model(tiny_config(kind), 4)
        rng = np.random.default_rng(7)
        dataset = ImageDataset(random_images(rng, n=70), rng.integers(0, 2, size=70))
        plain = training.evaluate(model, dataset, noise=noise)
        (swept,) = training.noise_sweep(model, dataset, [noise])
        assert plain[0] == swept[0]
        assert np.array_equal(plain[1], swept[1]) and np.array_equal(plain[2], swept[2])
        if kind == "dot":
            assert swept[3] is None
        else:
            assert 0.0 < swept[3] < 1.0

    def test_a_shared_dict_serves_one_batch_of_one_model(self):
        model = init_model(tiny_config("qpa"), 8)
        images = random_images(np.random.default_rng(9))
        shared: dict = {}
        vit.forward_with_stats(model, images, shared=shared)
        with pytest.raises(ValueError, match="one image batch of one model"):
            vit.forward_with_stats(model, images.copy(), shared=shared)
        with pytest.raises(ValueError, match="one image batch of one model"):
            vit.forward_with_stats(init_model(tiny_config("qpa"), 8), images, shared=shared)


class TestBackward:
    @pytest.mark.parametrize("scorer", ["qpa", "dot", "mlp49", "mlp585", "cosine", "linear", "qpa-ind"])
    def test_gradients_match_finite_differences(self, scorer):
        rng = np.random.default_rng(4)
        images = random_images(rng)
        labels = np.array([0, 1, 0])
        model = init_model(tiny_config(scorer), 5)
        _, grads = vit.backward(model, images, labels)
        h = 1e-3
        check_rng = np.random.default_rng(6)
        for name, p in model.params.items():
            flat = p.reshape(-1)
            for i in check_rng.choice(flat.size, size=min(5, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + h
                lp, _ = vit.cross_entropy(vit.forward(model, images), labels)
                flat[i] = orig - h
                lm, _ = vit.cross_entropy(vit.forward(model, images), labels)
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                an = grads[name].reshape(-1)[i]
                assert abs(fd - an) <= 1e-5 + 1e-3 * max(abs(fd), abs(an)), (name, i)

    def test_uniform_logits_loss_is_ln2(self):
        rng = np.random.default_rng(7)
        images = random_images(rng)
        model = init_model(tiny_config("dot"), 8)
        model.params["head.w"][:] = 0.0
        model.params["head.b"][:] = 0.0
        loss, _ = vit.backward(model, images, np.array([0, 1, 1]))
        assert loss == pytest.approx(np.log(2), abs=1e-12)

    def test_invalid_label_rejected(self):
        rng = np.random.default_rng(9)
        images = random_images(rng)
        model = init_model(tiny_config("dot"), 8)
        with pytest.raises(ValueError):
            vit.backward(model, images, np.array([0, 2, 0]))
        with pytest.raises(ValueError):
            vit.backward(model, images, np.array([0.5, 0.5, 0.5]))

    def test_non_cls_positions_receive_gradient(self):
        rng = np.random.default_rng(10)
        images = random_images(rng)
        model = init_model(tiny_config("dot"), 11)
        _, grads = vit.backward(model, images, np.array([0, 1, 0]))
        token_grads = np.abs(grads["pos"][1:]).max(axis=1)
        assert np.all(token_grads > 0)


class TestParamAccounting:
    def test_qpa_adds_five_per_layer(self):
        for layers in (1, 2, 3):
            qpa = init_model(tiny_config("qpa", num_layers=layers), 0)
            dot = init_model(tiny_config("dot", num_layers=layers), 0)
            assert vit.count_params(qpa) == vit.count_params(dot) + 5 * layers
            assert vit.scorer_param_count(qpa) == 5 * layers

    def test_qpa_ind_counts_only_trained_parameters(self):
        # The ablation stores all five circuit parameters but holds gamma_d and
        # gamma_s at 0, so it trains theta_s, alpha and beta.
        for layers in (1, 2, 3):
            ind = init_model(tiny_config("qpa-ind", num_layers=layers), 0)
            qpa = init_model(tiny_config("qpa", num_layers=layers), 0)
            assert vit.count_params(ind) == vit.count_params(qpa)
            assert vit.scorer_param_count(ind) == 3 * layers
            assert vit.scorer_param_count(qpa) == 5 * layers

    def test_mlp_scorer_counts(self):
        mlp49 = init_model(tiny_config("mlp49"), 0)
        mlp585 = init_model(tiny_config("mlp585"), 0)
        assert vit.scorer_param_count(mlp49) == 49
        assert vit.scorer_param_count(mlp585) == 585

    def test_shared_classical_init_across_scorers(self):
        # Same seed: every non-scorer tensor identical between scorer kinds.
        a = init_model(tiny_config("qpa"), 3)
        b = init_model(tiny_config("mlp585"), 3)
        for name, arr in a.params.items():
            if ".scorer." in name:
                continue
            assert np.array_equal(arr, b.params[name]), name


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        model = init_model(tiny_config("qpa"), 13)
        path = tmp_path / "model.npz"
        vit.save_checkpoint(model, path)
        loaded = vit.load_checkpoint(path)
        assert loaded.config == model.config
        assert set(loaded.params) == set(model.params)
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name])
        images = random_images(rng)
        assert np.array_equal(vit.forward(model, images), vit.forward(loaded, images))

    def test_version_check(self, tmp_path):
        model = init_model(tiny_config("dot"), 0)
        path = tmp_path / "model.npz"
        vit.save_checkpoint(model, path)
        import numpy as np_

        with np_.load(path) as blob:
            payload = {k: blob[k] for k in blob.files}
        payload["schema_version"] = np_.array(99)
        with open(path, "wb") as f:
            np_.savez(f, **payload)
        with pytest.raises(ValueError):
            vit.load_checkpoint(path)


class TestCheckpointValidation:
    @pytest.mark.parametrize("kind", scorers.KINDS)
    def test_round_trip_every_kind(self, tmp_path, kind):
        model = init_model(tiny_config(kind, num_layers=2), 3)
        vit.save_checkpoint(model, tmp_path / "model.npz")
        loaded = vit.load_checkpoint(tmp_path / "model.npz")
        assert loaded.config == model.config
        assert list(loaded.params) == list(model.params)
        for name, arr in model.params.items():
            assert np.array_equal(loaded.params[name], arr), name

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda pl: pl.pop("param:head.w"), "missing head.w"),
            (lambda pl: pl.update({"param:head.w": np.zeros((3, 3))}), "mis-shaped head.w (3, 3)"),
            (lambda pl: pl.update({"param:bogus": np.zeros(2)}), "extra bogus"),
            (lambda pl: pl["param:head.w"].fill(np.nan), "non-finite head.w"),
            (lambda pl: pl.update({"param:head.b": np.array(["a", "b"])}), "non-numeric head.b"),
        ],
        ids=["missing", "mis-shaped", "extra", "non-finite", "non-numeric"],
    )
    def test_parameters_checked_against_spec(self, tmp_path, edit_checkpoint, edit, message):
        path = tmp_path / "model.npz"
        vit.save_checkpoint(init_model(tiny_config("qpa"), 0), path)
        edit_checkpoint(path, edit)
        with pytest.raises(ValueError, match=re.escape(message)):
            vit.load_checkpoint(path)

    @pytest.mark.parametrize("content", [b"not a checkpoint\n", b"PK\x03\x04 truncated"])
    def test_non_npz_file_refused(self, tmp_path, content):
        path = tmp_path / "model.npz"
        path.write_bytes(content)
        with pytest.raises(ValueError, match="not an .npz checkpoint"):
            vit.load_checkpoint(path)


def _digest(named) -> str:
    h = hashlib.sha256()
    for name, arr in named:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        h.update(f"{name}:{arr.shape};".encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


# sha256 prefixes of (init params, forward logits, loss + backward grads),
# names and order included, for two-layer tiny models. They pin every scorer
# kind bit for bit; they rest on this numpy/OpenBLAS build's rounding, so a
# mismatch on another machine calls for re-deriving them at a trusted commit.
GOLDEN = {
    ("qpa", 0): ("9e083236108b1465", "90d89d3758a1bae1", "46fa3b502d9c5491"),
    ("qpa", 1): ("6e900635197dd0b4", "cfdfcae5cba92757", "2f4e8820efb8461c"),
    ("dot", 0): ("94a5ef27f5c36ef5", "3a1e92c22db62ab0", "72e8565151f3c667"),
    ("dot", 1): ("82fd715b40798094", "093f4b6c350574c6", "a089805862343a7c"),
    ("mlp49", 0): ("cc5d1b66b47ec6a8", "f91c7c6dede17c3e", "2d31a4ab23aff7ea"),
    ("mlp49", 1): ("e320bd81cd0ae494", "cb28fc6abdd70c82", "c207542602ad8116"),
    ("mlp585", 0): ("7dd9132b8e1ef00d", "eebaede5199b07dc", "7b5a200c2e7450c2"),
    ("mlp585", 1): ("fc751192e80627fc", "b709798871e5beb2", "903dd7d571a9519a"),
    ("cosine", 0): ("3657f4e9fe6bb0c2", "b63ea3bcf0c18de1", "e5be9b9dd3b930a6"),
    ("cosine", 1): ("10f6333bcdeaea79", "1f54ae7e1b805299", "40e7de4fb4fc84b1"),
    ("linear", 0): ("94a5ef27f5c36ef5", "778a839a61d25b92", "b3a768a89265a2db"),
    ("linear", 1): ("82fd715b40798094", "64163d12b2cc75d9", "752b62089500d608"),
    ("qpa-ind", 0): ("9e083236108b1465", "118679c004230261", "a53598183b4ab9ed"),
    ("qpa-ind", 1): ("6e900635197dd0b4", "1b7d370d9726ce8e", "28069b6e030fd507"),
}

# (logits, loss + grads) of one-layer quantum models with 36992 scored
# (pair, dimension) entries per layer, a larger input than GOLDEN's.
GOLDEN_CHUNKED = {
    "qpa": ("a4fed77d7fa42f89", "ba8427e025799108"),
    "qpa-ind": ("03ff3cff60b67ccb", "bb37f4a4586efbd5"),
}

# (logits, loss + grads) of one-layer quantum models whose circuit forward and
# backward each run in three tiles (`_tiled_case`).
GOLDEN_TILED = {
    "qpa": ("9896f96bada3b1da", "364f0184f68b1c73"),
    "qpa-ind": ("382db0dc3473cbb5", "62ca8ad00aecb980"),
}


# The inputs of the two bit-identity tests in TestGolden, for its parity check.
def _golden_case(kind, seed):
    model = init_model(tiny_config(kind, num_layers=2), seed)
    images = np.random.default_rng(100 + seed).uniform(0, 1, size=(3, 1, 8, 8))
    return model, images, np.array([0, 1, 0])


def _chunked_case(kind):
    config = VitConfig(16, 1, 4, 1, 2, 32, 16, 2, scorer=kind, depth=16)
    images = np.random.default_rng(102).uniform(0, 1, size=(4, 1, 16, 16))
    return init_model(config, 2), images, np.array([0, 1, 0, 1])


def _tiled_case(kind):
    # 16 images: the training forward and the backward run their 32 items in
    # 3 tiles of up to 15 (4096 // (17 * 16) inputs per side). The inference
    # forward scores the CLS row's pairs in one tile, which holds up to 52
    # images (7 * 4096 // (2 heads * 17 * 16) pairs).
    config = VitConfig(16, 1, 4, 1, 2, 32, 16, 2, scorer=kind, depth=16)
    images = np.random.default_rng(103).uniform(0, 1, size=(16, 1, 16, 16))
    return init_model(config, 3), images, np.arange(16) % 2


# The eight quantum-scorer inputs of TestGolden.
_QUANTUM_CASES = [(_golden_case, kind, seed) for kind, seed in GOLDEN if scorers.KINDS[kind].quantum]
_QUANTUM_CASES += [(_chunked_case, kind) for kind in GOLDEN_CHUNKED]
_QUANTUM_CASES += [(_tiled_case, kind) for kind in GOLDEN_TILED]


def _case_id(case):
    # "qpa-0" for GOLDEN, "qpa" for GOLDEN_CHUNKED, "tiled-qpa" for GOLDEN_TILED.
    return "-".join((["tiled"] if case[0] is _tiled_case else []) + [str(a) for a in case[1:]])


def _scored_layers(kind, seed, monkeypatch):
    """Every quantum layer's (Q, K, circuit parameters, depth, A) of a GOLDEN
    model's inference forward, then of its training forward, in call order."""
    model, images, _ = _golden_case(kind, seed)
    base = scorers.KINDS[kind]
    free = np.isin(circuit.PARAM_NAMES, base.pinned, invert=True)
    seen = []

    def record(name, first):
        def wrapped(Q, K, p, depth, *rest):
            out = getattr(base, name)(Q, K, p, depth, *rest)
            params = circuit.QpaParams.from_array(np.where(free, p["qpa"], 0.0))
            A = out[0] if first else out
            seen.append((name, Q.copy(), K.copy(), params, depth, A.copy()))
            return out

        return wrapped

    reference = dataclasses.replace(
        base, scores=record("scores", False), train_scores=record("train_scores", True)
    )
    monkeypatch.setitem(scorers.KINDS, kind, reference)
    vit.forward(model, images)
    vit._forward(model, images, caches={})
    return seen


def _statevector_errors(seen):
    # Each layer's scores against one broadcast statevector `circuit.score`
    # call over all its (query, key, dimension) pairs, summed over D.
    errors = []
    for _, Q, K, params, depth, A in seen:
        ref = circuit.score(Q[..., :, None, :depth], K[..., None, :, :depth], params).sum(axis=-1)
        errors.append(np.abs(A - ref).max() / max(1.0, np.abs(ref).max()))
    return errors


class TestGolden:
    @pytest.mark.parametrize("kind, seed", GOLDEN)
    def test_init_forward_backward_bit_identical(self, kind, seed):
        model = init_model(tiny_config(kind, num_layers=2), seed)
        images = np.random.default_rng(100 + seed).uniform(0, 1, size=(3, 1, 8, 8))
        loss, grads = vit.backward(model, images, np.array([0, 1, 0]))
        got = (
            _digest(model.params.items()),
            _digest([("logits", vit.forward(model, images))]),
            _digest([("loss", loss), *grads.items()]),
        )
        assert got == GOLDEN[kind, seed]

    @pytest.mark.parametrize("kind", GOLDEN_CHUNKED)
    def test_chunked_circuit_path_bit_identical(self, kind):
        config = VitConfig(16, 1, 4, 1, 2, 32, 16, 2, scorer=kind, depth=16)
        model = init_model(config, 2)
        images = np.random.default_rng(102).uniform(0, 1, size=(4, 1, 16, 16))
        loss, grads = vit.backward(model, images, np.array([0, 1, 0, 1]))
        got = (
            _digest([("logits", vit.forward(model, images))]),
            _digest([("loss", loss), *grads.items()]),
        )
        assert got == GOLDEN_CHUNKED[kind]

    @pytest.mark.parametrize("kind", GOLDEN_TILED)
    def test_tiled_circuit_path_bit_identical(self, kind, monkeypatch, count_calls):
        model, images, labels = _tiled_case(kind)
        calls = count_calls(circuit, "_angle_features")
        logits = vit.forward(model, images)
        assert not calls  # each CLS-row tile is summed pair by pair, with no features
        calls.clear()
        loss, grads = vit.backward(model, images, labels)
        # One block of CLS-key pairs per forward tile; the backward reads them.
        assert len(calls) == 3
        got = (_digest([("logits", logits)]), _digest([("loss", loss), *grads.items()]))
        assert got == GOLDEN_TILED[kind]
        # The inference forward's CLS row fits one tile of pairs; in tiles of
        # 2 images (7 * 160 // 544 pairs per image) it is the same bit for bit.
        with monkeypatch.context() as m:
            m.setattr(scorers, "TILE_INPUTS", 160)
            pair_calls = count_calls(circuit, "score_batch")
            assert np.array_equal(vit.forward(model, images), logits)
            assert len(pair_calls) == 8
        # In one tile, only the circuit-parameter sums add up in another order.
        monkeypatch.setattr(scorers, "TILE_INPUTS", 2**62)
        assert np.array_equal(vit.forward(model, images), logits)
        whole_loss, whole = vit.backward(model, images, labels)
        assert whole_loss == loss
        for name, g in grads.items():
            bound = 0.0 if ".scorer." not in name else 1e-13 * np.abs(g).max()
            assert np.abs(g - whole[name]).max() <= bound, name

    # The quantum `loss + grads` digests above pin the Fourier-form backward's
    # rounding; on the same inputs, every gradient must agree with the
    # parameter-shift backward it replaced.
    @pytest.mark.parametrize(
        "case", _QUANTUM_CASES, ids=_case_id
    )
    def test_quantum_grads_match_parameter_shift(
        self, case, monkeypatch, parameter_shift_backward, oracle_bound, count_calls
    ):
        model, images, labels = case[0](*case[1:])
        loss, grads = vit.backward(model, images, labels)
        monkeypatch.setattr(scorers, "quantum_scores_backward", parameter_shift_backward)
        calls = count_calls(scorers, "quantum_scores_backward")
        ref_loss, ref_grads = vit.backward(model, images, labels)
        assert len(calls) == model.config.num_layers  # the step ran the reference
        assert loss == ref_loss
        for name, ref in ref_grads.items():
            assert oracle_bound(grads[name], ref), name

    # The mlp49/mlp585 logits and `loss + grads` digests above pin the rounding
    # of the MLP's first layer split into per-query and per-key terms; on the
    # same inputs, logits, loss and gradients must agree with the
    # feature-tensor MLP it replaced.
    @pytest.mark.parametrize("kind, seed", [key for key in GOLDEN if key[0].startswith("mlp")])
    def test_mlp_matches_feature_tensor(self, kind, seed, monkeypatch, feature_tensor_mlp):
        model, images, labels = _golden_case(kind, seed)
        logits = vit.forward(model, images)
        loss, grads = vit.backward(model, images, labels)
        reference = dataclasses.replace(
            scorers.KINDS[kind],
            scores=lambda Q, K, p, depth, noise: feature_tensor_mlp(Q, K, p, depth),
            backward=feature_tensor_mlp,
        )
        monkeypatch.setitem(scorers.KINDS, kind, reference)
        ref_logits = vit.forward(model, images)
        ref_loss, ref_grads = vit.backward(model, images, labels)
        assert np.abs(logits - ref_logits).max() <= 1e-12 * max(1.0, np.abs(ref_logits).max())
        assert abs(loss - ref_loss) <= 1e-12 * max(1.0, abs(ref_loss))
        assert list(grads) == list(ref_grads)
        for name, ref in ref_grads.items():
            assert np.abs(grads[name] - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max()), name

    # The quantum logits digests above pin the Fourier-form forward's rounding;
    # on the same inputs, the logits must agree with a kind whose every layer
    # scores each (query, key, dimension) pair by the real-amplitude evaluator.
    @pytest.mark.parametrize(
        "case", _QUANTUM_CASES, ids=_case_id
    )
    def test_quantum_logits_match_real_amplitude(self, case, monkeypatch):
        model, images, _ = case[0](*case[1:])
        logits = vit.forward(model, images)
        kind = scorers.KINDS[model.config.scorer]
        free = np.isin(circuit.PARAM_NAMES, kind.pinned, invert=True)
        layers = []

        def real_amplitude_scores(Q, K, p, depth, noise):
            layers.append(Q.shape[-2])
            params = circuit.QpaParams.from_array(np.where(free, p["qpa"], 0.0))
            return circuit.score_grad_batch(Q[..., :, None, :depth], K[..., None, :, :depth], params)[0].sum(axis=-1)

        monkeypatch.setitem(scorers.KINDS, model.config.scorer, dataclasses.replace(kind, scores=real_amplitude_scores))
        ref = vit.forward(model, images)
        assert len(layers) == model.config.num_layers  # the reference scored every layer
        assert np.abs(logits - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    # The training step scores each quantum layer by the score-matrix product
    # (`scorers.quantum_scores_with_features`). Inference runs the same
    # product on the layers that score all N query rows, and scores the last
    # layer's CLS row pair by pair; the two differ only in the order of that
    # row's sums over D.
    @pytest.mark.parametrize(
        "case", _QUANTUM_CASES, ids=_case_id
    )
    def test_training_forward_matches_inference(self, case):
        model, images, _ = case[0](*case[1:])
        caches = {}
        logits = vit._forward(model, images, caches=caches)[0]
        assert all("scorer_saved" in lc for lc in caches["layers"])  # the product ran
        ref = vit.forward(model, images)
        assert np.abs(logits - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("kind, seed", [key for key in GOLDEN if scorers.KINDS[key[0]].quantum])
    def test_first_layer_scores_equal_the_training_forward(self, kind, seed, monkeypatch):
        # A two-layer model's first layer scores all N query rows: inference
        # runs the training step's feature product, on the same tiles.
        model, images, _ = _golden_case(kind, seed)
        base = scorers.KINDS[kind]
        seen = {"scores": [], "train_scores": []}

        def record(name, first):
            def wrapped(*args):
                out = getattr(base, name)(*args)
                seen[name].append(out[0] if first else out)
                return out

            return wrapped

        reference = dataclasses.replace(
            base, scores=record("scores", False), train_scores=record("train_scores", True)
        )
        monkeypatch.setitem(scorers.KINDS, kind, reference)
        vit.forward(model, images)
        vit._forward(model, images, caches={})
        assert len(seen["scores"]) == len(seen["train_scores"]) == 2
        assert np.array_equal(seen["scores"][0], seen["train_scores"][0])

    # The logits above can hide a first-layer score error: on these tiny
    # models the attention carries little of them. Each layer's own score
    # matrix is checked here, at inference and in the training forward.
    @pytest.mark.parametrize("kind, seed", [key for key in GOLDEN if scorers.KINDS[key[0]].quantum])
    def test_every_layer_scores_match_the_statevector(self, kind, seed, monkeypatch):
        seen = _scored_layers(kind, seed, monkeypatch)
        # The first layer scores all N query rows, the last the CLS row alone.
        assert [(name, Q.shape[-2]) for name, Q, *_ in seen] == [
            ("scores", 5), ("scores", 1), ("train_scores", 5), ("train_scores", 1)
        ]
        assert max(_statevector_errors(seen)) <= 1e-12

    @pytest.mark.parametrize("kind, seed", [key for key in GOLDEN if scorers.KINDS[key[0]].quantum])
    def test_every_layer_check_sees_a_first_layer_error(self, kind, seed, monkeypatch):
        # The feature product that scores the first layer in both forwards,
        # off by one part in a million: the check must see it there, and the
        # last layer, scored from the shifted Q and K, must still pass.
        product = scorers._product_scores
        monkeypatch.setattr(
            scorers, "_product_scores", lambda *args: product(*args) * (1 + 1e-6)
        )
        first, last, train_first, train_last = _statevector_errors(
            _scored_layers(kind, seed, monkeypatch)
        )
        assert min(first, train_first) > 1e-12
        assert max(last, train_last) <= 1e-12
