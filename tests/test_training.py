"""Optimizer, schedule, metrics, statistics and training-loop tests.

scipy.stats serves as the independent reference for the Student-t
distribution, the paired t-test and the AUC (average ranks and the
Mann-Whitney U); the trapezoidal ROC integral is a further, independent AUC
oracle.
"""

import numpy as np
import pytest
from scipy import stats

from qpattn import circuit, scorers, training, vit
from qpattn.data import ImageDataset, SyntheticSpec, split, synthetic_dataset
from qpattn.training import (
    Metrics,
    TrainConfig,
    compute_metrics,
    lr_schedule,
    paired_t_test,
    sgd_step,
    significance_stars,
    stratify_by_confidence,
    student_t_cdf,
    student_t_ppf,
    train_loop,
)


def cfg(**kw):
    base = dict(lr0=0.3, batch_size=8, epochs=100, warmup_epochs=3, patience=20, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestSchedule:
    def test_first_warmup_epoch(self):
        assert lr_schedule(0, cfg()) == pytest.approx(0.3 / 3)

    def test_first_post_warmup_epoch_is_lr0(self):
        assert lr_schedule(3, cfg()) == pytest.approx(0.3)

    def test_final_epoch_near_zero(self):
        c = cfg()
        assert lr_schedule(c.epochs - 1, c) <= 0.01 * c.lr0

    def test_non_increasing_after_warmup(self):
        c = cfg()
        values = [lr_schedule(e, c) for e in range(c.warmup_epochs, c.epochs)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_epoch_range_validated(self):
        with pytest.raises(ValueError):
            lr_schedule(100, cfg())
        with pytest.raises(ValueError):
            lr_schedule(-1, cfg())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            cfg(warmup_epochs=100)
        with pytest.raises(ValueError):
            cfg(patience=0)

    @pytest.mark.parametrize("bad", [{"lr0": float("nan")}, {"lr0": float("inf")},
                                     {"lr0": -0.1}, {"batch_size": 0},
                                     {"momentum": float("nan")}, {"weight_decay": float("inf")}])
    def test_rejects_bad_optimiser_settings(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            cfg(**bad)


class TestSgd:
    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([1.0, 2.0])}
        velocity = {"w": np.zeros(2)}
        sgd_step(params, {"w": np.zeros(2)}, velocity, lr=0.1, momentum=0.9)
        assert np.array_equal(params["w"], [1.0, 2.0])

    def test_zero_momentum_is_plain_descent(self):
        params = {"w": np.array([1.0])}
        velocity = {"w": np.zeros(1)}
        sgd_step(params, {"w": np.array([0.5])}, velocity, lr=0.1, momentum=0.0)
        assert params["w"][0] == pytest.approx(1.0 - 0.1 * 0.5, abs=1e-15)

    def test_two_steps_constant_gradient(self):
        # displacement after two steps: lr * g * (2 + momentum)
        g = np.array([0.7])
        params = {"w": np.array([0.0])}
        velocity = {"w": np.zeros(1)}
        for _ in range(2):
            sgd_step(params, {"w": g.copy()}, velocity, lr=0.1, momentum=0.9)
        assert params["w"][0] == pytest.approx(-0.1 * 0.7 * 2.9, abs=1e-14)

    def test_weight_decay(self):
        params = {"w": np.array([2.0])}
        velocity = {"w": np.zeros(1)}
        sgd_step(params, {"w": np.zeros(1)}, velocity, lr=0.1, momentum=0.0, weight_decay=0.5)
        assert params["w"][0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0, abs=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sgd_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, {"w": np.zeros(2)}, 0.1, 0.9)


class TestMetrics:
    def test_perfect_predictor(self):
        labels = np.array([0, 1, 0, 1])
        m = compute_metrics(labels, labels, labels.astype(float))
        assert (m.accuracy, m.precision, m.recall, m.f1, m.auc_roc) == (1, 1, 1, 1, 1)

    def test_hand_confusion_matrix(self):
        m = compute_metrics([1, 1, 0, 0], [1, 0, 0, 0], [0.9, 0.4, 0.3, 0.2])
        assert m.precision == pytest.approx(1.0)
        assert m.recall == pytest.approx(0.5)
        assert m.f1 == pytest.approx(2 / 3)
        assert m.accuracy == pytest.approx(0.75)

    def test_random_scores_auc_near_half(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=10_000)
        scores = rng.uniform(size=10_000)
        m = compute_metrics(labels, (scores > 0.5).astype(int), scores)
        assert abs(m.auc_roc - 0.5) < 0.02

    def test_single_class_auc_absent(self):
        m = compute_metrics([1, 1, 1], [1, 1, 0], [0.9, 0.8, 0.7])
        assert m.auc_roc is None

    def test_f1_harmonic_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            labels = rng.integers(0, 2, size=40)
            preds = rng.integers(0, 2, size=40)
            if labels.sum() in (0, 40):
                continue
            m = compute_metrics(labels, preds, rng.uniform(size=40))
            if m.precision + m.recall > 0:
                assert m.f1 == pytest.approx(
                    2 * m.precision * m.recall / (m.precision + m.recall), abs=1e-12
                )

    def test_auc_matches_trapezoidal_roc_integration(self):
        # Independent oracle: explicit ROC curve swept over thresholds,
        # integrated with the trapezoid rule (ties handled by the sweep).
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(6, 30))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            scores = np.round(rng.uniform(size=n), 1)  # force ties
            m = compute_metrics(labels, (scores > 0.5).astype(int), scores)
            thresholds = np.unique(scores)[::-1]
            tpr = [0.0]
            fpr = [0.0]
            pos = labels.sum()
            neg = n - pos
            for t in thresholds:
                sel = scores >= t
                tpr.append((labels[sel] == 1).sum() / pos)
                fpr.append((labels[sel] == 0).sum() / neg)
            auc = np.trapezoid(tpr, fpr)
            assert m.auc_roc == pytest.approx(auc, abs=1e-9)

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng, n: rng.uniform(size=n),  # tie-free
            lambda rng, n: np.round(rng.uniform(size=n), 1),
            lambda rng, n: rng.integers(0, 3, size=n).astype(float),  # heavily tied
            lambda rng, n: np.full(n, 0.3),  # all equal
        ],
        ids=["tie-free", "rounded", "three-levels", "all-equal"],
    )
    def test_auc_equals_rank_sum_and_mann_whitney_exactly(self, draw):
        # The pair count gives the same half-integer U as the average-rank
        # formula and scipy's Mann-Whitney U, divided the same way: equal
        # with ==, not approximately.
        rng = np.random.default_rng(3)
        cases = [np.array([1] + [0] * 9), np.array([0] * 30 + [1])]  # n_pos = 1
        cases += [rng.integers(0, 2, size=int(n)) for n in rng.integers(2, 300, size=60)]
        checked = 0
        for labels in cases:
            n_pos, n = int(labels.sum()), labels.size
            if n_pos in (0, n):
                continue
            scores = draw(rng, n)
            auc = compute_metrics(labels, labels, scores).auc_roc
            ranks = stats.rankdata(scores)
            rank_sum = (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * (n - n_pos))
            u = stats.mannwhitneyu(scores[labels == 1], scores[labels == 0]).statistic
            assert auc == float(rank_sum) == float(u / (n_pos * (n - n_pos)))
            checked += 1
        assert checked >= 40

    def test_all_equal_scores_auc_is_half(self):
        for labels in ([1, 0], [1, 0, 0, 0], [0, 1, 1, 0, 1]):
            assert compute_metrics(labels, labels, np.full(len(labels), 0.7)).auc_roc == 0.5

    def test_rejects_non_finite_scores(self):
        with pytest.raises(ValueError):
            compute_metrics([0, 1], [0, 1], [np.nan, 0.5])


class TestStudentT:
    def test_cdf_matches_scipy(self):
        for dof in (1, 2, 3, 5, 10, 19, 50):
            for t in np.linspace(-8, 8, 33):
                assert student_t_cdf(float(t), dof) == pytest.approx(
                    stats.t.cdf(t, dof), abs=1e-10
                )

    def test_ppf_inverts_cdf(self):
        for dof in (2, 4, 9):
            for p in (0.025, 0.5, 0.9, 0.975):
                t = student_t_ppf(p, dof)
                assert student_t_cdf(t, dof) == pytest.approx(p, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            student_t_cdf(0.0, 0)
        with pytest.raises(ValueError):
            student_t_ppf(1.5, 3)


class TestPairedTTest:
    def test_identical_samples_degenerate(self):
        r = paired_t_test([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
        assert r.degenerate and r.mean_diff == 0.0

    def test_hand_example(self):
        r = paired_t_test([0.8, 0.9, 0.7], [0.6, 0.8, 0.7])
        assert r.mean_diff == pytest.approx(0.1, abs=1e-12)
        assert r.t_statistic == pytest.approx(1.7321, abs=1e-4)
        assert r.cohens_d == pytest.approx(1.0, abs=1e-12)
        assert r.p_two_tail == pytest.approx(0.2254, abs=1e-4)

    def test_sign_flip_symmetry(self):
        rng = np.random.default_rng(3)
        a, b = rng.uniform(size=(2, 8))
        r1 = paired_t_test(a, b)
        r2 = paired_t_test(b, a)
        assert r2.t_statistic == pytest.approx(-r1.t_statistic, abs=1e-12)
        assert r2.mean_diff == pytest.approx(-r1.mean_diff, abs=1e-12)
        assert r2.p_two_tail == pytest.approx(r1.p_two_tail, abs=1e-12)
        assert r2.p_one_tail == pytest.approx(1 - r1.p_one_tail, abs=1e-12)

    def test_matches_scipy_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(3, 25))
            a = rng.normal(0.8, 0.05, size=n)
            b = a - rng.normal(0.01, 0.03, size=n)
            r = paired_t_test(a, b)
            ref = stats.ttest_rel(a, b)
            assert r.t_statistic == pytest.approx(ref.statistic, abs=1e-9)
            assert r.p_two_tail == pytest.approx(ref.pvalue, abs=1e-6)
            one_sided = stats.ttest_rel(a, b, alternative="greater")
            assert r.p_one_tail == pytest.approx(one_sided.pvalue, abs=1e-6)
            lo, hi = ref.confidence_interval(0.95)
            assert r.ci95_low == pytest.approx(lo, abs=1e-9)
            assert r.ci95_high == pytest.approx(hi, abs=1e-9)
            assert r.ci95_low <= r.mean_diff <= r.ci95_high

    def test_input_validation(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [2.0])
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])


class TestStars:
    @pytest.mark.parametrize(
        "p,expected",
        [(0.03, "*"), (0.0005, "***"), (0.005, "**"), (0.2, "n.s."), (0.05, "*"), (0.001, "***")],
    )
    def test_convention(self, p, expected):
        assert significance_stars(p) == expected


class TestStratification:
    def test_all_high_confidence(self):
        out = stratify_by_confidence([0.95, 0.97, 0.99], [True, True, True])
        by_name = {s.name: s for s in out}
        assert by_name["high"].count == 3 and by_name["high"].accuracy == 1.0
        assert by_name["low"].count == 0 and by_name["low"].accuracy is None
        assert by_name["medium"].count == 0

    def test_boundary_assignment(self):
        out = stratify_by_confidence([0.9, 0.6, 0.5, 1.0], [True, False, True, True])
        by_name = {s.name: s for s in out}
        assert by_name["high"].count == 2  # 0.9 and 1.0
        assert by_name["medium"].count == 1  # 0.6
        assert by_name["low"].count == 1  # 0.5

    def test_counts_partition_sample(self):
        rng = np.random.default_rng(5)
        probs = rng.uniform(0.5, 1.0, size=500)
        correct = rng.integers(0, 2, size=500).astype(bool)
        out = stratify_by_confidence(probs, correct)
        assert sum(s.count for s in out) == 500

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            stratify_by_confidence([0.9], [True, False])


class TestTrainLoop:
    @staticmethod
    def tiny_run(scorer="dot", lr0=0.2, epochs=4, seed=0, patience=20):
        pool = synthetic_dataset(SyntheticSpec(n_per_class=20, image_size=8, noise_std=0.05, seed=0))
        train_ds, valid_ds = split(pool, 24, 12, seed)
        config = vit.VitConfig(8, 1, 4, 1, 2, 8, 16, 2, scorer=scorer, depth=4)
        model = vit.init_model(config, seed)
        tc = TrainConfig(lr0=lr0, batch_size=8, epochs=epochs, warmup_epochs=1,
                         patience=patience, seed=seed)
        return train_loop(model, train_ds, valid_ds, tc)

    def test_zero_learning_rate_keeps_params(self):
        pool = synthetic_dataset(SyntheticSpec(n_per_class=20, image_size=8, noise_std=0.05, seed=0))
        train_ds, valid_ds = split(pool, 24, 12, 0)
        config = vit.VitConfig(8, 1, 4, 1, 2, 8, 16, 2, scorer="dot", depth=4)
        model = vit.init_model(config, 0)
        before = {k: v.copy() for k, v in model.params.items()}
        result = train_loop(
            model, train_ds, valid_ds,
            TrainConfig(lr0=0.0, batch_size=8, epochs=3, warmup_epochs=1, patience=20, seed=0),
        )
        for name in before:
            assert np.array_equal(model.params[name], before[name])
        accs = [r["val_accuracy"] for r in result.history]
        assert len(set(accs)) == 1

    def test_identical_seeds_reproduce_history(self):
        r1 = self.tiny_run(seed=3)
        r2 = self.tiny_run(seed=3)
        assert r1.history == r2.history

    def test_early_stopping(self):
        # lr 0: accuracy never improves after the first epoch, so training
        # stops after exactly 1 + patience epochs.
        result = self.tiny_run(lr0=0.0, epochs=50, patience=3)
        assert result.stopped_early
        assert len(result.history) == 1 + 3

    def test_empty_split_rejected(self):
        pool = synthetic_dataset(SyntheticSpec(n_per_class=20, image_size=8, seed=0))
        train_ds, valid_ds = split(pool, 24, 0, 0)
        config = vit.VitConfig(8, 1, 4, 1, 2, 8, 16, 2, scorer="dot", depth=4)
        model = vit.init_model(config, 0)
        with pytest.raises(ValueError):
            train_loop(model, train_ds, valid_ds, cfg())

    def test_non_finite_gradient_named(self, monkeypatch):
        real_backward = vit.backward
        calls = []

        def poisoned(model, images, labels):
            loss, grads = real_backward(model, images, labels)
            calls.append(None)
            if len(calls) == 5:  # epoch 1, step 1 with 24 images in batches of 8
                grads["layers.0.attn.wk"][0, 0] = np.nan
            return loss, grads

        monkeypatch.setattr(training.vit, "backward", poisoned)
        expected = "epoch 1, step 1: non-finite gradient layers.0.attn.wk"
        with pytest.raises(RuntimeError, match=expected):
            self.tiny_run()

    def test_non_finite_updated_parameter_named(self, monkeypatch):
        real_step = training.sgd_step

        def overflowing(params, *args, **kwargs):
            real_step(params, *args, **kwargs)
            params["head.b"][1] = np.inf

        monkeypatch.setattr(training, "sgd_step", overflowing)
        expected = "epoch 0, step 0: non-finite updated parameter head.b"
        with pytest.raises(RuntimeError, match=expected):
            self.tiny_run()

    @pytest.mark.parametrize(
        "scorer, lr0, seed, cause",
        [
            ("dot", 100.0, 1, "epoch 1: non-finite validation logits"),
            ("qpa", 5.0, 0, "epoch 2: non-finite validation circuit input: q must be finite"),
        ],
    )
    def test_validation_overflow_named(self, scorer, lr0, seed, cause):
        # Every step leaves the parameters finite, but the validation forward
        # after the named epoch overflows.
        with pytest.raises(RuntimeError, match=f"^training diverged at {cause}$"):
            self.tiny_run(scorer=scorer, lr0=lr0, seed=seed)

    def test_validation_computes_no_mean_mu(self, count_calls):
        # Validation reads only the metrics, so it runs `vit.forward`: no
        # separable sum of the last layer's scores.
        stats = count_calls(vit, "forward_with_stats")
        sums = count_calls(scorers, "quantum_score_sum")
        forwards = count_calls(vit, "forward")
        self.tiny_run(scorer="qpa", epochs=2)
        assert not stats and not sums
        assert len(forwards) == 2  # one batch of 12 images per epoch

    def test_learns_separable_task(self):
        result = self.tiny_run(lr0=0.3, epochs=15)
        assert result.best_accuracy >= 0.9


class TestNoiseSweep:
    """`noise_sweep`: every setting per batch, sharing what no noise changes."""

    NOISES = [None] + [(channel, gamma) for channel in ("AD", "DP", "BF", "PF") for gamma in (0.05, 0.1)]

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_feature_sums_once_per_batch_of_a_one_layer_model(self, num_layers, monkeypatch, count_calls):
        # 70 images are two 64-image batches. Each `vit.forward_with_stats`
        # call that builds the last layer's score-sum terms sums the query and
        # the key features in one tile each: two `_feature_sums` calls. A
        # one-layer model builds them once per batch, a deeper one once per
        # (setting, batch), and every call gives what a call of its own gives.
        config = vit.VitConfig(8, 1, 4, num_layers, 2, 8, 16, 2, scorer="qpa", depth=4)
        model = vit.init_model(config, 3)
        rng = np.random.default_rng(4)
        dataset = ImageDataset(rng.uniform(0, 1, size=(70, 1, 8, 8)), rng.integers(0, 2, size=70))
        standalone = vit.forward_with_stats
        calls = []

        def recorded(model, images, noise=None, shared=None):
            out = standalone(model, images, noise, shared=shared)
            calls.append((images, noise, out))
            return out

        monkeypatch.setattr(vit, "forward_with_stats", recorded)
        sums = count_calls(circuit, "_feature_sums")
        results = training.noise_sweep(model, dataset, self.NOISES)
        assert len(sums) == 2 * 2 * (1 if num_layers == 1 else len(self.NOISES))
        assert [noise for _, noise, _ in calls] == self.NOISES * 2  # batch by batch
        sums.clear()
        for i, (images, noise, (logits, extras)) in enumerate(calls):
            assert len(images) == (64 if i < len(self.NOISES) else 6)
            alone_logits, alone = standalone(model, images, noise)
            assert np.array_equal(logits, alone_logits)
            assert extras["mu_sum"] == alone["mu_sum"] and extras["mu_count"] == alone["mu_count"]
        assert len(sums) == 2 * len(calls)  # without a shared dict, every call builds them
        for noise, (metrics, max_probs, correct, mean_mu) in zip(self.NOISES, results):
            plain = training.evaluate(model, dataset, noise=noise)
            assert metrics == plain[0]
            assert np.array_equal(max_probs, plain[1]) and np.array_equal(correct, plain[2])
            totals = [out[1] for _, n, out in calls if n == noise]
            assert mean_mu == (totals[0]["mu_sum"] + totals[1]["mu_sum"]) / (
                totals[0]["mu_count"] + totals[1]["mu_count"]
            )
