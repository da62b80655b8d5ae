"""CLI surface tests: config parsing, subcommand outputs, exit codes.

Commands run in-process through cli.main so the circuit-mutation fixture can
flip the entangler gate order and watch the verification suite catch it.
"""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qpattn
from qpattn import circuit, cli, qcore, scorers, vit
from qpattn.cli import CliError, parse_config_text, resolve_config
from qpattn.data import synthetic_dataset

STRIPE_TASK = Path(__file__).resolve().parents[1] / "configs" / "stripe_task.cfg"

TINY = [
    "--set", "image_size=8",
    "--set", "n_per_class=20",
    "--set", "train_n=24",
    "--set", "valid_n=12",
    "--set", "patch_size=4",
    "--set", "hidden_size=8",
    "--set", "mlp_hidden=16",
    "--set", "depth=4",
    "--set", "epochs=3",
    "--set", "warmup_epochs=1",
    "--set", "batch_size=8",
    "--set", "lr0=0.3",
]


class TestConfigParsing:
    def test_key_value_lines_and_comments(self):
        raw = parse_config_text("a = 1\n# comment\nb= x  # trailing\n\nc =2")
        assert raw == {"a": "1", "b": "x", "c": "2"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(CliError):
            parse_config_text("a = 1\na = 2")

    def test_missing_equals_rejected(self):
        with pytest.raises(CliError):
            parse_config_text("just some words")

    def test_unknown_key_rejected(self):
        with pytest.raises(CliError):
            resolve_config(cli._TRAIN_KEYS, None, ["banana=1"])

    def test_bad_value_rejected(self):
        with pytest.raises(CliError):
            resolve_config(cli._TRAIN_KEYS, None, ["epochs=soon"])

    def test_file_and_override_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("epochs = 7\nlr0 = 0.5\n")
        cfg = resolve_config(cli._TRAIN_KEYS, str(cfg_file), ["epochs=9"])
        assert cfg["epochs"] == 9 and cfg["lr0"] == 0.5

    def test_list_values(self):
        cfg = resolve_config(cli._COMPARE_KEYS, None, ["seeds=3,4,5", "scorers=dot, qpa"])
        assert cfg["seeds"] == [3, 4, 5]
        assert cfg["scorers"] == ["dot", "qpa"]


class TestVerify:
    def test_full_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(["verify", "--seed", "0", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["all_passed"] is True
        assert report["schema_version"] == 1
        lines = capsys.readouterr().out.splitlines()
        passes = [l for l in lines if l.startswith("PASS")]
        assert len(passes) == len(report["claims"]) == 14

    def test_claim_filter(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(["verify", "--claim", "lemma2", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert [c["claim_id"] for c in report["claims"]] == [
            "lemma2-closed-form",
            "lemma2-frequency-identities",
        ]

    def test_unknown_claim_filter_is_usage_error(self, tmp_path):
        assert cli.main(["verify", "--claim", "nonexistent"]) == 2

    def test_flipped_entangler_order_fails_degenerate_claims(self, tmp_path, monkeypatch):
        # Injected ordering bug: apply the CNOTs in the reverse order. The
        # degenerate-projection claim (and the gradient cross-check against
        # the scalar path) must catch it.
        def reversed_entangler(state, angle):
            state = qcore.apply_cnot(state, 1, 0)
            state = qcore.apply_single(state, qcore.ry(angle), 1)
            return qcore.apply_cnot(state, 0, 1)

        monkeypatch.setattr(circuit, "_apply_entangler", reversed_entangler)
        out = tmp_path / "report.json"
        code = cli.main(["verify", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        failed = {c["claim_id"] for c in report["claims"] if not c["passed"]}
        assert "degenerate-projection" in failed


class TestTrain:
    def test_writes_outputs_and_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["train", "--set", "scorer=dot", "--set", "seed=1", *TINY]
        assert cli.main([*args, "--out", str(out1)]) == 0
        assert cli.main([*args, "--out", str(out2)]) == 0
        summary1 = (out1 / "summary.json").read_text()
        summary2 = (out2 / "summary.json").read_text()
        assert summary1 == summary2
        summary = json.loads(summary1)
        assert summary["schema_version"] == 1
        assert summary["best_metrics"]["accuracy"] >= 0.5
        history = [json.loads(l) for l in (out1 / "history.jsonl").read_text().splitlines()]
        assert len(history) == 3
        assert (out1 / "checkpoint.npz").exists()

    def test_summary_counts_trained_scorer_params(self, tmp_path):
        # One layer: qpa-ind trains theta_s, alpha and beta, not its pinned gammas.
        args = ["train", "--set", "scorer=qpa-ind", *TINY, "--set", "epochs=2"]
        assert cli.main([*args, "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "summary.json").read_text())["scorer_params"] == 3

    def test_depth_exceeding_head_dim_is_usage_error(self, tmp_path, capsys):
        code = cli.main(
            ["train", "--set", "scorer=qpa", *TINY, "--set", "depth=32", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "depth" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        assert cli.main(["train", "--set", "bogus=1", "--out", str(tmp_path)]) == 2

    def test_qpa_run_computes_no_mean_mu(self, tmp_path, count_calls):
        # Neither the per-epoch validation nor the confidence strata read the
        # mean circuit score, so neither pays for its separable sum.
        stats = count_calls(vit, "forward_with_stats")
        sums = count_calls(scorers, "quantum_score_sum")
        forwards = count_calls(vit, "forward")
        args = ["train", "--set", "scorer=qpa", *TINY, "--set", "epochs=2", "--out", str(tmp_path)]
        assert cli.main(args) == 0
        assert not stats and not sums
        assert len(forwards) == 2 + 1  # one 12-image batch per epoch, one for the strata

    def test_dataset_built_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(spec):
            calls.append(spec)
            return synthetic_dataset(spec)

        monkeypatch.setattr(cli, "synthetic_dataset", counted)
        args = ["train", "--set", "scorer=dot", *TINY, "--set", "epochs=2", "--out", str(tmp_path)]
        assert cli.main(args) == 0
        assert len(calls) == 1


class TestCompare:
    def test_emits_summary_and_ttest_rows(self, tmp_path):
        out = tmp_path / "cmp"
        code = cli.main(
            [
                "compare",
                "--set", "scorers=dot,cosine",
                "--set", "seeds=1,2",
                *TINY,
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out / "compare.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        summaries = [r for r in rows if r["row_type"] == "summary"]
        ttests = [r for r in rows if r["row_type"] == "ttest"]
        assert [r["scorer"] for r in summaries] == ["dot", "cosine"]
        assert len(ttests) == 1
        t = ttests[0]
        assert t["scorer"] == "dot" and t["scorer_b"] == "cosine"
        assert t["metric"] == "accuracy"
        assert t["significance"] in ("n.s.", "*", "**", "***", "n/a")
        runs = [json.loads(l) for l in (out / "runs.jsonl").read_text().splitlines()]
        assert {r["scorer"] for r in runs} == {"dot", "cosine"}
        assert all({"seed", "epoch", "train_loss"} <= set(r) for r in runs)

    def test_single_seed_refused(self, tmp_path):
        code = cli.main(
            ["compare", "--set", "scorers=dot,cosine", "--set", "seeds=1", *TINY, "--out", str(tmp_path)]
        )
        assert code == 2

    def test_single_scorer_refused(self, tmp_path):
        code = cli.main(
            ["compare", "--set", "scorers=dot", "--set", "seeds=1,2", *TINY, "--out", str(tmp_path)]
        )
        assert code == 2

    def test_unknown_scorer_refused_before_any_run(self, tmp_path, monkeypatch):
        def no_training(*args):
            raise AssertionError("training started before the scorer list was checked")

        monkeypatch.setattr(cli.training, "train_loop", no_training)
        code = cli.main(
            ["compare", "--set", "scorers=qpa,bogus", "--set", "seeds=1,2", *TINY, "--out", str(tmp_path)]
        )
        assert code == 2

    def test_qpa_runs_compute_no_mean_mu(self, tmp_path, count_calls):
        # In-process (one job), so the counters see every run's validation.
        stats = count_calls(vit, "forward_with_stats")
        sums = count_calls(scorers, "quantum_score_sum")
        forwards = count_calls(vit, "forward")
        args = ["compare", "--set", "scorers=qpa,dot", "--set", "seeds=1,2", *TINY]
        assert cli.main([*args, "--set", "epochs=2", "--out", str(tmp_path)]) == 0
        assert not stats and not sums
        assert len(forwards) == 2 * 2 * 2  # runs x epochs, one batch each

    def test_dataset_built_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(spec):
            calls.append(spec)
            return synthetic_dataset(spec)

        monkeypatch.setattr(cli, "synthetic_dataset", counted)
        args = ["compare", "--set", "scorers=dot,linear", "--set", "seeds=1,2", *TINY]
        assert cli.main([*args, "--set", "epochs=2", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_fixed_seed_outputs_match_reference_digests(self, tmp_path):
        # sha256 of the files compare wrote when it repacked each run into a
        # per-(scorer, seed) record.
        args = ["compare", "--set", "scorers=dot,cosine", "--set", "seeds=1,2", *TINY]
        assert cli.main([*args, "--set", "epochs=2", "--out", str(tmp_path)]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("compare.csv", "runs.jsonl")
        }
        assert digests == {
            "compare.csv": "645a5ab01f2a1cedc37b27c62783af9e36a753fd0f07e31371f7d2e99a44df61",
            "runs.jsonl": "c05607842b55953a8cfc4cc7642ff01ac95306218519524c424136c0cecd5a83",
        }


@pytest.fixture(scope="module")
def qpa_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    args = [
        "train", "--set", "scorer=qpa", "--set", "seed=1",
        *TINY[:-2], "--set", "lr0=0.4", "--set", "epochs=2",
        "--out", str(out),
    ]
    assert cli.main(args) == 0
    return out / "checkpoint.npz"


class TestNoiseSweep:
    def test_sweep_csv_and_noise_physics(self, tmp_path, qpa_checkpoint):
        out = tmp_path / "sweep"
        code = cli.main(
            [
                "noise-sweep",
                "--checkpoint", str(qpa_checkpoint),
                "--gammas", "0,0.05,0.1",
                *TINY,
                "--set", "seed=1",
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out / "noise_sweep.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4 * 3
        base_mu = float(rows[0]["baseline_mean_mu"])
        base_acc = float(rows[0]["baseline_accuracy"])
        assert base_acc > 0.5  # a trained model, so the accuracy asserts can fail
        for row in rows:
            gamma = float(row["gamma"])
            if gamma == 0.0:  # identity channel
                assert float(row["mean_mu"]) == pytest.approx(base_mu, abs=1e-12)
                assert float(row["val_accuracy"]) == base_acc
            if row["channel"] == "PF":  # phase flips never move the score
                assert float(row["mean_mu"]) == pytest.approx(base_mu, abs=1e-12)
                assert float(row["val_accuracy"]) == base_acc
            if row["channel"] == "BF":  # mean shift follows the closed form
                expected = base_mu * (1 - 2 * gamma) ** 2 + 2 * gamma * (1 - gamma)
                assert float(row["mean_mu"]) == pytest.approx(expected, abs=1e-10)
            if row["channel"] == "DP":
                expected = 0.5 + (1 - gamma) ** 2 * (base_mu - 0.5)
                assert float(row["mean_mu"]) == pytest.approx(expected, abs=1e-10)

        # BF and DP only scale every circuit score about 1/2,
        # mu -> 1/2 + s^2 (mu - 1/2), so their accuracy is that of the clean
        # model with each score matrix A (a sum of D scores) replaced by
        # s^2 A + D (1 - s^2) / 2.
        model = vit.load_checkpoint(qpa_checkpoint)
        settings = [arg for arg in TINY if arg != "--set"] + ["seed=1"]
        cfg = cli._apply_depth_default(resolve_config(cli._TRAIN_KEYS, None, settings))
        _, valid_ds = cli._splits(cfg, cli._build_dataset(cfg), cfg["seed"])
        clean_scores = cli.scorers.qpa_scores
        for row in rows:
            channel, gamma = row["channel"], float(row["gamma"])
            if channel not in ("BF", "DP"):
                continue
            s2 = (1 - 2 * gamma if channel == "BF" else 1 - gamma) ** 2

            def scaled(Q, K, params, depth, noise=None):
                return s2 * clean_scores(Q, K, params, depth) + depth * (1 - s2) / 2

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cli.scorers, "qpa_scores", scaled)
                metrics, max_probs, _ = cli.training.evaluate(model, valid_ds)
            assert row["val_accuracy"] == f"{metrics.accuracy:.6f}", (channel, gamma)
            # At these gammas no channel flips a prediction of this model; its
            # confidences move with s.
            noisy_probs = cli.training.evaluate(model, valid_ds, noise=(channel, gamma))[1]
            assert np.abs(noisy_probs - max_probs).max() <= 1e-12, (channel, gamma)

    def test_one_score_sum_per_setting_and_batch(self, tmp_path, qpa_checkpoint, count_calls):
        # 70 validation images are two of the sweep's 64-image batches, and
        # the clean model plus 4 channels at 2 strengths are 9 settings.
        sums = count_calls(scorers, "quantum_score_sum")
        stats = count_calls(vit, "forward_with_stats")
        forwards = count_calls(vit, "forward")
        split = ["--set", "n_per_class=40", "--set", "train_n=8", "--set", "valid_n=70"]
        sweep = ["noise-sweep", "--checkpoint", str(qpa_checkpoint), "--gammas", "0.05,0.1"]
        assert cli.main([*sweep, *TINY, *split, "--set", "seed=1", "--out", str(tmp_path)]) == 0
        assert len(sums) == len(stats) == 9 * 2
        assert not forwards

    def test_fixed_seed_csv_matches_reference_digest(self, tmp_path):
        # sha256 of the file the sweep wrote with its own 64-image loop, on a
        # 2-layer checkpoint.
        ckpt = tmp_path / "ckpt"
        args = ["train", "--set", "scorer=qpa", "--set", "seed=1", "--set", "num_layers=2", *TINY]
        assert cli.main([*args, "--set", "epochs=2", "--out", str(ckpt)]) == 0
        sweep = ["noise-sweep", "--checkpoint", str(ckpt / "checkpoint.npz"), *TINY]
        assert cli.main([*sweep, "--set", "seed=1", "--out", str(tmp_path / "sweep")]) == 0
        digest = hashlib.sha256((tmp_path / "sweep" / "noise_sweep.csv").read_bytes()).hexdigest()
        assert digest == "5b0d1627a15f381ae1afe0497bc13d5753bed5db7ebc068b27b58fee2fe9ee0e"

    def test_one_layer_csv_matches_reference_digest(self, tmp_path, qpa_checkpoint):
        # sha256 of the file written before the sweep shared a batch's
        # score-sum terms across its settings, on the one-layer checkpoint,
        # over 70 validation images (two batches) at two strengths.
        split = ["--set", "n_per_class=40", "--set", "train_n=8", "--set", "valid_n=70"]
        sweep = ["noise-sweep", "--checkpoint", str(qpa_checkpoint), "--gammas", "0.05,0.1"]
        assert cli.main([*sweep, *TINY, *split, "--set", "seed=1", "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "noise_sweep.csv").read_bytes()).hexdigest()
        assert digest == "91e5d9896dffb28475b2097f200ae435add29691899c987ce4830fe00e862a7c"

    @pytest.mark.parametrize("noise_std", ["nan", "inf", "-0.5"])
    def test_bad_noise_std_refused_before_output(self, tmp_path, capsys, qpa_checkpoint, noise_std):
        out = tmp_path / "sweep"
        args = ["noise-sweep", "--checkpoint", str(qpa_checkpoint), *TINY]
        assert cli.main([*args, "--set", f"noise_std={noise_std}", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: noise_std must be finite and >= 0")
        assert not out.exists()

    def test_non_quantum_checkpoint_refused(self, tmp_path):
        out = tmp_path / "dot"
        args = ["train", "--set", "scorer=dot", "--set", "seed=1", *TINY, "--out", str(out)]
        assert cli.main(args) == 0
        code = cli.main(
            ["noise-sweep", "--checkpoint", str(out / "checkpoint.npz"), *TINY, "--out", str(tmp_path)]
        )
        assert code == 2

    def test_image_size_mismatch_refused(self, tmp_path, capsys, qpa_checkpoint):
        # The checkpoint was trained on 8x8 images; 16x16 ones cannot be embedded.
        out = tmp_path / "sweep"
        args = ["noise-sweep", "--checkpoint", str(qpa_checkpoint), *TINY, "--set", "image_size=16"]
        assert cli.main([*args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "(1, 16, 16)" in err and "(1, 8, 8)" in err
        assert not out.exists()

    def test_checkpoint_head_must_match_the_classes_in_the_data(self, tmp_path, capsys):
        # A 3-way head used to be swept on the 2-label task, exit 0.
        config = vit.VitConfig(
            image_size=8, channels=1, patch_size=4, num_layers=1, heads=2, hidden_size=8,
            mlp_hidden=16, num_classes=3, scorer="qpa", depth=4,
        )
        vit.save_checkpoint(vit.init_model(config, 1), tmp_path / "k3.npz")
        out = tmp_path / "sweep"
        args = ["noise-sweep", "--checkpoint", str(tmp_path / "k3.npz"), *TINY]
        assert cli.main([*args, "--out", str(out)]) == 2
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err.startswith("error: num_classes = 3, but the dataset has 2 classes")
        assert not out.exists()

    def test_unknown_channel_refused(self, tmp_path, qpa_checkpoint):
        code = cli.main(
            [
                "noise-sweep",
                "--checkpoint", str(qpa_checkpoint),
                "--channels", "ZZ",
                *TINY,
                "--out", str(tmp_path),
            ]
        )
        assert code == 2


def _config_set(name, value):
    # A checkpoint edit that sets one field of the stored model config.
    def edit(payload):
        config = json.loads(str(payload["config_json"]))
        payload["config_json"] = np.array(json.dumps({**config, name: value}))

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda pl: pl.pop("param:head.w"), "missing head.w"),
        (lambda pl: pl.update({"param:head.w": np.zeros((3, 3))}), "mis-shaped head.w"),
        (None, "not an .npz checkpoint"),
        (lambda pl: pl["param:layers.0.scorer.qpa"].fill(np.inf), "non-finite layers.0.scorer.qpa"),
        *(
            (_config_set(name, value), f"invalid checkpoint config: {name} must be an integer")
            for name, value in [("image_size", 8.0), ("heads", True), ("num_layers", 1.0),
                                ("depth", 4.0)]
        ),
    ],
    ids=["missing-param", "mis-shaped-param", "not-npz", "non-finite-param",
         "image_size-8.0", "heads-true", "num_layers-1.0", "depth-4.0"],
)
def test_noise_sweep_bad_checkpoint_is_usage_error(tmp_path, capsys, edit_checkpoint, edit, message):
    path = tmp_path / "checkpoint.npz"
    config = vit.VitConfig(8, 1, 4, 1, 2, 8, 16, 2, scorer="qpa", depth=4)
    vit.save_checkpoint(vit.init_model(config, 0), path)
    if edit is None:
        path.write_text("not a checkpoint\n")
    else:
        edit_checkpoint(path, edit)
    code = cli.main(["noise-sweep", "--checkpoint", str(path), *TINY, "--out", str(tmp_path / "out")])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and message in line
    assert not (tmp_path / "out").exists()


#: Settings under which training diverges at epoch 1, step 1 for the runs below.
DIVERGING = [
    "--set", "lr0=1e9",
    "--set", "epochs=5",
    "--set", "n_per_class=40",
    "--set", "train_n=40",
    "--set", "valid_n=16",
]


@pytest.mark.parametrize(
    "run, cause",
    [
        (["train", "--set", "scorer=dot", "--set", "seed=1"], "non-finite gradient patch.w"),
        (["train", "--set", "scorer=qpa", "--set", "seed=2"], "non-finite circuit input: q"),
        (["compare", "--set", "scorers=dot,qpa", "--set", "seeds=1,2"], "non-finite gradient"),
        (["compare", "--set", "scorers=qpa,dot", "--set", "seeds=2,3"], "non-finite circuit input"),
    ],
    ids=["train-dot", "train-qpa", "compare-dot", "compare-qpa"],
)
def test_diverging_run_is_experiment_failure(tmp_path, capsys, run, cause):
    out = tmp_path / "out"
    assert cli.main([*run, *DIVERGING, "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: training diverged at epoch 1, step 1: {cause}")
    assert not out.exists()


def test_run_diverging_in_validation_is_experiment_failure(tmp_path, capsys):
    # Every step leaves the parameters finite; the validation forward after
    # epoch 1 overflows.
    out = tmp_path / "out"
    run = ["train", "--set", "scorer=dot", "--set", "seed=1", *TINY, "--set", "lr0=100"]
    assert cli.main([*run, "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "error: training diverged at epoch 1: non-finite validation logits (scorer dot, seed 1)"
    assert not out.exists()


class TestShots:
    def test_variance_bound_and_monotonicity(self, tmp_path):
        out = tmp_path / "shots"
        code = cli.main(
            ["shots", "--shots", "25,100,400", "--reps", "200", "--inputs", "5", "--out", str(out)]
        )
        assert code == 0
        with open(out / "shots.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        stds = [float(r["empirical_std_max"]) for r in rows]
        bounds = [float(r["bound"]) for r in rows]
        assert all(s <= 1.1 * b for s, b in zip(stds, bounds))
        assert stds == sorted(stds, reverse=True)

    def test_invalid_shots_refused(self, tmp_path):
        assert cli.main(["shots", "--shots", "0,100", "--out", str(tmp_path)]) == 2

    def test_one_statevector_per_input(self, tmp_path, count_calls):
        builds = count_calls(circuit, "build_state")
        sampled = count_calls(circuit, "score_sampled")
        argv = ["shots", "--shots", "25,100", "--reps", "400", "--inputs", "2"]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        assert len(sampled) == 2 * 2 * 400
        assert len(builds) == 2

    def test_one_generator_per_thread_and_one_key_per_seed(self, tmp_path, count_calls):
        # The 1,600 estimates reset one generator; the 400 seeds are hashed
        # once each and reused by both inputs and both shot counts.
        philox = count_calls(np.random, "Philox")
        argv = ["shots", "--shots", "25,100", "--reps", "400", "--inputs", "2"]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        assert len(philox) <= 1
        assert circuit._philox_key.cache_info().misses == 400

    def test_fixed_seed_csv_matches_reference_digest(self, tmp_path):
        # sha256 of the file the sampler wrote when it built every statevector afresh.
        argv = ["shots", "--shots", "25,100,400", "--reps", "200", "--inputs", "3", "--seed", "7"]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "shots.csv").read_bytes()).hexdigest()
        assert digest == "486258c16013e2ee94e91076616830c3516a41dcb8ba8e1d3dbdb33e90b1f71c"

    def test_seed_of_2_to_the_64_csv_matches_reference_digest(self, tmp_path):
        # sha256 of the file written when every estimate built its own generator;
        # the repetition seeds 2**64 + 7919 r lie beyond numpy's fixed-width ints.
        argv = ["shots", "--shots", "25,100", "--reps", "50", "--inputs", "2", "--seed", str(2**64)]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "shots.csv").read_bytes()).hexdigest()
        assert digest == "63b32bf89e04128b710a96e13edde594a5244401a2abb637badd123fa8af854c"


class TestUsageErrorsBeforeAnyWork:
    """Bad arguments exit 2 with a message, not a traceback, before any work."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the arguments were checked")

        monkeypatch.setattr(cli.training, "train_loop", refuse)
        monkeypatch.setattr(cli.vit, "load_checkpoint", refuse)
        monkeypatch.setattr(cli.circuit, "score_sampled", refuse)
        monkeypatch.setattr(cli.lab, "run_claims", refuse)

    def run(self, tmp_path, capsys, *argv):
        code = cli.main([*argv, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert not (tmp_path / "out").exists()
        return err

    def test_shots_not_an_integer(self, tmp_path, capsys):
        self.run(tmp_path, capsys, "shots", "--shots", "abc")

    @pytest.mark.parametrize("reps", ["0", "1"])
    def test_shots_too_few_reps_for_a_std(self, tmp_path, capsys, reps):
        self.run(tmp_path, capsys, "shots", "--reps", reps)

    def test_shots_no_inputs(self, tmp_path, capsys):
        self.run(tmp_path, capsys, "shots", "--inputs", "0")

    @pytest.mark.parametrize("shots", ["10000000000000000000", "25,9223372036854775808"])
    def test_shots_beyond_int64(self, tmp_path, capsys, shots):
        err = self.run(tmp_path, capsys, "shots", "--shots", shots)
        assert "2**63 - 1" in err

    @pytest.mark.parametrize(
        "run",
        [["train"], ["compare", "--set", "scorers=dot,cosine", "--set", "seeds=1,2"]],
        ids=["train", "compare"],
    )
    def test_output_directory_that_is_a_file(self, tmp_path, capsys, run):
        (tmp_path / "out").write_text("")
        assert cli.main([*run, *TINY, "--out", str(tmp_path / "out")]) == 2
        assert "is an existing file" in capsys.readouterr().err

    @pytest.mark.parametrize("gammas", ["x", "0,1.5", "nan"])
    def test_noise_sweep_bad_gammas(self, tmp_path, capsys, gammas):
        self.run(tmp_path, capsys, "noise-sweep", "--checkpoint", "ckpt.npz", "--gammas", gammas)

    def test_compare_zero_jobs(self, tmp_path, capsys):
        self.run(tmp_path, capsys, "compare", "--jobs", "0", *TINY)

    def test_train_zero_batch_size(self, tmp_path, capsys):
        self.run(tmp_path, capsys, "train", *TINY, "--set", "batch_size=0")

    @pytest.mark.parametrize("setting", ["lr0=nan", "lr0=inf", "lr0=-0.1", "weight_decay=nan"])
    def test_train_non_finite_or_negative_optimiser_setting(self, tmp_path, capsys, setting):
        self.run(tmp_path, capsys, "train", *TINY, "--set", setting)

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("seeds=1,1", "seeds repeat [1]"),
            ("seeds=3,1,2,3,1", "seeds repeat [1, 3]"),
            ("scorers=qpa,qpa", "scorers repeat ['qpa']"),
            ("scorers=dot,cosine,dot", "scorers repeat ['dot']"),
        ],
        ids=lambda v: v if "=" in v else None,
    )
    def test_compare_repeated_seeds_or_scorers(self, tmp_path, capsys, setting, message):
        # A repeated seed would pair one run with itself in the t-test; a
        # repeated scorer would get two summary rows and a t-test against itself.
        argv = ["compare", "--set", "scorers=dot,cosine", "--set", "seeds=1,2", *TINY]
        assert self.run(tmp_path, capsys, *argv, "--set", setting).startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "command, option, values, repeated",
        [
            ("noise-sweep", "--channels", "AD,AD", "['AD']"),
            ("noise-sweep", "--channels", "ad,DP,AD", "['AD']"),
            ("noise-sweep", "--gammas", "0.05,0.05", "[0.05]"),
            ("noise-sweep", "--gammas", "0,0.1,1e-1", "[0.1]"),
            ("shots", "--shots", "25,25", "[25]"),
            ("shots", "--shots", "100,25,0100", "[100]"),
        ],
    )
    def test_repeated_list_values(self, tmp_path, capsys, command, option, values, repeated):
        # A repeated value would write duplicate rows.
        argv = [command, "--checkpoint", "ckpt.npz"] if command == "noise-sweep" else [command]
        err = self.run(tmp_path, capsys, *argv, option, values)
        assert err == f"error: {option} repeat {repeated}; list each one once\n"

    def test_compare_bad_lr0(self, tmp_path, capsys):
        self.run(tmp_path, capsys, "compare", "--set", "seeds=1,2", *TINY, "--set", "lr0=nan")

    @pytest.mark.parametrize(
        "setting",
        ["train_n=0", "train_n=100000", "n_per_class=0", "patch_size=0", "heads=0", "num_classes=1"],
    )
    def test_train_bad_dataset_split_or_model_setting(self, tmp_path, capsys, monkeypatch, setting):
        def refuse(*args):
            raise AssertionError("training started before the settings were checked")

        monkeypatch.setattr(cli.training, "train_loop", refuse)
        self.run(tmp_path, capsys, "train", "--config", str(STRIPE_TASK), "--set", setting)

    @pytest.mark.parametrize(
        "setting", ["train_n=0", "valid_n=100000", "n_per_class=0", "patch_size=3", "depth=32"]
    )
    def test_compare_bad_dataset_split_or_model_setting(self, tmp_path, capsys, setting):
        # depth=32 is refused by mlp49 only, the second scorer.
        argv = ["compare", "--set", "scorers=dot,mlp49", "--set", "seeds=1,2", *TINY]
        self.run(tmp_path, capsys, *argv, "--set", setting)

    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("noise_std", ["nan", "inf", "-0.5"])
    def test_bad_noise_std(self, tmp_path, capsys, command, noise_std):
        # It used to act as 0, and a NaN reached summary.json as invalid JSON.
        err = self.run(tmp_path, capsys, command, *TINY, "--set", f"noise_std={noise_std}")
        assert err.startswith("error: noise_std must be finite and >= 0")

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--set", "scorer=dot"],
            ["compare", "--set", "scorers=dot,cosine", "--set", "seeds=1,2"],
        ],
        ids=["train", "compare"],
    )
    def test_num_classes_that_disagrees_with_the_data(self, tmp_path, capsys, argv):
        # It used to train a 3-way head on the 2-label task and write binary
        # metrics read from one column of its softmax.
        code = cli.main([*argv, *TINY, "--set", "num_classes=3", "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: num_classes = 3, but the dataset has 2 classes")
        assert not (tmp_path / "out").exists()

    @staticmethod
    def idx_settings(images_path, labels_path, *settings):
        # --set arguments of an IDX dataset at the given paths.
        settings = ["dataset=idx", f"images_path={images_path}", f"labels_path={labels_path}", *settings]
        return [arg for setting in settings for arg in ("--set", setting)]

    def test_idx_same_class_twice(self, tmp_path, capsys):
        from qpattn.data import save_idx_images, save_idx_labels

        save_idx_images(tmp_path / "imgs.idx", np.zeros((4, 8, 8), dtype=np.uint8))
        save_idx_labels(tmp_path / "lbls.idx", np.array([0, 1, 0, 1]))
        argv = self.idx_settings(tmp_path / "imgs.idx", tmp_path / "lbls.idx", "class_a=1", "class_b=1")
        err = self.run(tmp_path, capsys, "train", *TINY, *argv)
        assert err.startswith("error: class_a and class_b must differ")

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_idx_non_square_images(self, tmp_path, capsys, command):
        # An 8 x 12 file used to create the output directory, then exit 1 with
        # a traceback from the first forward's patch embedding.
        from qpattn.data import save_idx_images, save_idx_labels

        save_idx_images(tmp_path / "imgs.idx", np.zeros((60, 8, 12), dtype=np.uint8))
        save_idx_labels(tmp_path / "lbls.idx", np.arange(60) % 2)
        argv = self.idx_settings(tmp_path / "imgs.idx", tmp_path / "lbls.idx")
        err = self.run(tmp_path, capsys, command, *TINY, *argv)
        assert err.startswith("error: images are 8 x 12")

    # Inputs that cannot be read used to exit 1 with a traceback.
    def test_config_is_a_directory(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "train", "--config", str(tmp_path))
        assert len(err.splitlines()) == 1 and str(tmp_path) in err

    def test_config_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "latin1.cfg"
        config.write_bytes(b"epochs = 2  # caf\xe9\n")
        err = self.run(tmp_path, capsys, "train", "--config", str(config))
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: config file {config} is not UTF-8 text")

    def test_images_path_is_a_directory(self, tmp_path, capsys):
        from qpattn.data import save_idx_labels

        save_idx_labels(tmp_path / "lbls.idx", np.arange(60) % 2)
        argv = self.idx_settings(tmp_path, tmp_path / "lbls.idx")
        err = self.run(tmp_path, capsys, "train", *TINY, *argv)
        assert len(err.splitlines()) == 1 and str(tmp_path) in err

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("--seed", ["verify", "--seed", "-1"]),
            ("--seed", ["shots", "--seed", "-1"]),
            ("seed", ["train", *TINY, "--set", "seed=-1"]),
            ("data_seed", ["train", *TINY, "--set", "data_seed=-1"]),
            ("seeds", ["compare", *TINY, "--set", "seeds=1,-2"]),
            ("data_seed", ["compare", *TINY, "--set", "data_seed=-1"]),
        ],
    )
    def test_negative_seed_names_the_setting(self, tmp_path, capsys, name, argv):
        assert self.run(tmp_path, capsys, *argv).startswith(f"error: {name} must be non-negative")


@pytest.mark.parametrize(
    "write, payload",
    [
        (cli._write_json, {"loss": float("nan")}),
        (cli._write_jsonl, [{"a": 1.0}, {"loss": float("nan")}]),
    ],
    ids=["json", "jsonl"],
)
def test_writers_refuse_non_finite_floats_and_leave_no_file(tmp_path, write, payload):
    # NaN is not JSON: the write fails and the target stays absent.
    with pytest.raises(ValueError):
        write(tmp_path / "out.json", payload)
    assert list(tmp_path.iterdir()) == []


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "envout"))
    code = cli.main(["shots", "--shots", "25", "--reps", "50", "--inputs", "2"])
    assert code == 0
    assert (tmp_path / "envout" / "shots.csv").exists()


def test_verify_report_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["verify", "--claim", "theorem", "--seed", "5", "--out", str(a)]) == 0
    assert cli.main(["verify", "--claim", "theorem", "--seed", "5", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_compare_worker_pool_matches_serial(tmp_path):
    args = ["compare", "--set", "scorers=dot,cosine", "--set", "seeds=1,2", *TINY]
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert cli.main([*args, "--out", str(serial)]) == 0
    assert cli.main([*args, "--jobs", "2", "--out", str(parallel)]) == 0
    assert (serial / "compare.csv").read_text() == (parallel / "compare.csv").read_text()


def test_train_on_idx_dataset(tmp_path):
    from qpattn.data import save_idx_images, save_idx_labels

    rng = np.random.default_rng(0)
    n = 60
    images = rng.integers(0, 256, size=(n, 8, 8), dtype=np.uint8)
    labels = (np.arange(n) % 2).astype(np.uint8)
    images[labels == 1, :4] = 255  # make the classes learnable
    save_idx_images(tmp_path / "imgs.idx", images)
    save_idx_labels(tmp_path / "lbls.idx", labels)
    out = tmp_path / "run"
    code = cli.main(
        [
            "train",
            "--set", "dataset=idx",
            "--set", f"images_path={tmp_path / 'imgs.idx'}",
            "--set", f"labels_path={tmp_path / 'lbls.idx'}",
            "--set", "class_a=0", "--set", "class_b=1",
            "--set", "train_n=40", "--set", "valid_n=16",
            "--set", "scorer=dot", "--set", "seed=1",
            "--set", "patch_size=4", "--set", "hidden_size=8",
            "--set", "mlp_hidden=16", "--set", "depth=4",
            "--set", "epochs=3", "--set", "warmup_epochs=1",
            "--set", "batch_size=8", "--set", "lr0=0.3",
            "--out", str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["best_metrics"]["accuracy"] >= 0.5


def test_depth_defaults_to_head_dim(tmp_path):
    out = tmp_path / "auto_depth"
    # hidden 8 / heads 2 -> head_dim 4 < 16: the default depth must clamp.
    settings = [s for s in TINY if s != "--set" and not s.startswith("depth=")]
    args = [x for s in settings for x in ("--set", s)]
    code = cli.main(["train", "--set", "scorer=qpa", "--set", "seed=1", *args, "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["depth"] == 4


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs every process about 0.5 s and 45 MB. The test oracles
    # import it into this interpreter, so a fresh one is asked.
    src = str(Path(qpattn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, qpattn.cli; print([m for m in sys.modules if m.startswith('scipy.stats')])"
    argv = [sys.executable, "-c", code]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_main_builds_its_parser_once(tmp_path, capsys, count_calls):
    # The parser keeps no state between parses, so one per process serves
    # every call; a usage error after a good call still exits 2, and the
    # help text is the one a fresh parser gives.
    cli._parser.cache_clear()
    builds = count_calls(cli, "build_parser")
    args = ["shots", "--shots", "4", "--reps", "2", "--inputs", "1"]
    assert cli.main([*args, "--out", str(tmp_path / "a")]) == 0
    assert cli.main([*args, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "shots.csv").read_bytes() == (tmp_path / "b" / "shots.csv").read_bytes()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["shots", "--bogus"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --bogus\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert len(builds) == 1
    assert capsys.readouterr().out == cli.build_parser().format_help()
