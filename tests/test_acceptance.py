"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance and runtime
budget is asserted here; expected values come from independent oracles
(statevector simulation built from raw kron products, finite differences,
scipy.stats, trapezoidal integration) rather than from the code paths under
test.
"""

import csv
import json
import time

import numpy as np
import pytest
from scipy import stats

from qpattn import circuit, cli, lab, scorers, training, vit
from qpattn.circuit import QpaParams

COS2_PI_8 = float(np.cos(np.pi / 8) ** 2)  # 0.8535533905932737, prints as 0.853553


def _report(num, text):
    print(f"\nPASS criterion {num}: {text}")


def _train(cfg, scorer, seed):
    # One training run as `qpattn train` makes it; returns the best model and
    # the loop's result.
    train_ds, valid_ds = cli._splits(cfg, cli._build_dataset(cfg), seed)
    model = cli._init_model(cfg, train_ds, scorer, seed)
    result = training.train_loop(model, train_ds, valid_ds, cli._train_config(cfg, seed))
    return vit.VitModel(model.config, result.best_params), result


def random_params(rng, scale=0.8):
    return QpaParams.from_array(rng.normal(0, scale, size=5))


# Brute-force circuit oracle from raw kron products (independent of qpattn.qcore).
def _kron_oracle_state(q, k, p: QpaParams):
    def ry(t):
        c, s = np.cos(t / 2), np.sin(t / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)

    def rx(t):
        c, s = np.cos(t / 2), np.sin(t / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)

    eye = np.eye(2, dtype=complex)
    cnot01 = np.eye(4, dtype=complex)[:, [0, 1, 3, 2]]
    cnot10 = np.eye(4, dtype=complex)[:, [0, 3, 2, 1]]
    phi0 = np.pi / 4 + p.lambda1 * q + p.lambda2 * k
    phi1 = np.pi / 4 + p.lambda2 * q + p.lambda1 * k
    psi = np.kron(ry(phi0), ry(phi1)) @ np.array([1, 0, 0, 0], dtype=complex)
    psi = cnot10 @ (np.kron(eye, ry(p.alpha * (q + k))) @ (cnot01 @ psi))
    return np.kron(rx(2 * p.beta), rx(2 * p.beta)) @ psi


def test_criterion_01_encoding_closed_form():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10_000):
        p = random_params(rng)
        q, k = rng.normal(0, 1.5, 2)
        phi0 = np.pi / 4 + p.lambda1 * q + p.lambda2 * k
        phi1 = np.pi / 4 + p.lambda2 * q + p.lambda1 * k
        amps = np.kron(
            [np.cos(phi0 / 2), np.sin(phi0 / 2)], [np.cos(phi1 / 2), np.sin(phi1 / 2)]
        )
        sim = amps[0] ** 2 + amps[3] ** 2
        worst = max(worst, abs(sim - circuit.score_encoding_only(q, k, p)))
    elapsed = time.time() - start
    assert worst <= 1e-12, worst
    assert elapsed < 5.0, elapsed
    _report(1, f"encoding-only closed form = simulation, max err {worst:.2e} in {elapsed:.1f}s")


def test_criterion_02_kernel_equivalence():
    start = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10_000):
        p = random_params(rng)
        x1, x2 = rng.normal(0, 1.5, (2, 2))

        def enc(q, k):
            phi0 = np.pi / 4 + p.lambda1 * q + p.lambda2 * k
            phi1 = np.pi / 4 + p.lambda2 * q + p.lambda1 * k
            return np.kron(
                [np.cos(phi0 / 2), np.sin(phi0 / 2)], [np.cos(phi1 / 2), np.sin(phi1 / 2)]
            )

        sim = float(np.dot(enc(*x1), enc(*x2))) ** 2
        worst = max(worst, abs(sim - lab.kernel_enc3(tuple(x1), tuple(x2), p)))
    assert worst <= 1e-12, worst

    negative_ok = True
    for _ in range(50):
        while True:
            p = random_params(rng)
            if p.lambda1 * p.lambda2 > 0.01:
                break
        point = lab.KernelPoint(*rng.uniform(-0.3, 0.3, 2))
        negative_ok &= lab.mixed_partial_log_kernel(p, point) < 0
    assert negative_ok

    sep_worst = 0.0
    for _ in range(50):
        p = QpaParams(rng.normal(0, 0.8), 0.2, 0.2, 0.0, 0.0)  # lambda2 = 0
        point = lab.KernelPoint(*rng.uniform(-0.3, 0.3, 2))
        sep_worst = max(sep_worst, abs(lab.mixed_partial_log_kernel(p, point)))
    assert sep_worst < 1e-6, sep_worst
    elapsed = time.time() - start
    assert elapsed < 10.0, elapsed
    _report(2, f"kernel closed form max err {worst:.2e}; separable mixed partial {sep_worst:.2e}")


def test_criterion_03_degenerate_projection():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(500):
        p = QpaParams(*rng.normal(0, 0.8, 3), 0.0, 0.0)
        q, k = rng.normal(0, 2.0, 2)
        brute = np.abs(_kron_oracle_state(q, k, p)) ** 2
        mu_brute = brute[0] + brute[3]
        closed = np.cos(np.pi / 8 + p.lambda1 / 2 * q + p.lambda2 / 2 * k) ** 2
        worst = max(worst, abs(mu_brute - closed), abs(circuit.score(q, k, p) - closed))
    assert worst <= 1e-12, worst

    origin = circuit.score(0.0, 0.0, QpaParams(0.9, -0.3, 0.4, 0.0, 0.0))
    assert abs(origin - COS2_PI_8) <= 1e-9
    assert abs(COS2_PI_8 - 0.853553) < 5e-7  # the printed 6-decimal figure
    _report(3, f"alpha=beta=0 circuit = qubit-0 cos^2 projection, origin {origin:.6f}")


def test_criterion_04_boundedness_and_witnesses():
    rng = np.random.default_rng(104)
    lo, hi = 1.0, 0.0
    for _ in range(10):
        p = QpaParams.from_array(rng.normal(0, 3.0, 5))
        qs, ks = rng.normal(0, 3.0, (2, 10_000))
        mu = circuit.score_batch(qs, ks, p)
        lo, hi = min(lo, float(mu.min())), max(hi, float(mu.max()))
    assert lo >= -1e-12 and hi <= 1 + 1e-12

    axis = np.linspace(-2, 2, 20)
    qq, kk = np.meshgrid(axis, axis, indexing="ij")
    for _ in range(50):
        while True:
            p = random_params(rng)
            if abs(p.alpha) > 0.05 and abs(p.lambda1 - p.lambda2) > 0.05:
                break
        gap = np.abs(circuit.score_batch(qq, kk, p) - circuit.score_batch(kk, qq, p))
        assert gap.max() > 1e-6

    p = QpaParams(1.0, 0.0, 0.0, 0.1, 0.1)  # omega_d = omega_s = 1
    qs = np.arange(0.0, 12.0001, 0.05)
    mu = circuit.score_batch(qs, np.zeros_like(qs), p)
    assert any(
        mu[i] < mu[i - 1] and mu[i] < mu[i + 1] and mu[i:].max() - mu[i] >= 0.05
        for i in range(1, len(mu) - 1)
    )
    _report(4, f"10^5 scores in [{lo:.3f}, {hi:.3f}]; asymmetry and non-monotonicity witnessed")


def test_criterion_05_degrees_of_freedom():
    start = time.time()
    rng = np.random.default_rng(105)
    grid = lab.default_probe_grid()
    max_rank = 0
    for _ in range(100):
        p = random_params(rng)
        assert lab.encoding_jacobian_rank(p).numerical_rank == 2
        full = lab.full_circuit_rank(p, grid).numerical_rank
        max_rank = max(max_rank, full)
        assert full <= 4
        restricted = QpaParams(p.theta_s, p.gamma_d, p.gamma_s, 0.0, 0.0)
        r = lab.full_circuit_rank(restricted, grid, param_names=("theta_s", "gamma_d", "gamma_s"))
        assert r.numerical_rank == 2
    elapsed = time.time() - start
    assert elapsed < 30.0, elapsed
    _report(5, f"encoding rank 2; full rank <= 4 (max observed {max_rank}); slice rank 2; {elapsed:.1f}s")


def test_criterion_06_gradients():
    start = time.time()
    rng = np.random.default_rng(106)
    h = 1e-4
    worst = 0.0
    for _ in range(200):
        p = random_params(rng)
        q, k = rng.normal(0, 1.5, 2)
        g = circuit.score_gradient(q, k, p)
        exact = np.concatenate([g.param_array(), [g.d_q, g.d_k]])
        vec = np.concatenate([p.to_array(), [q, k]])
        for j in range(7):
            up, dn = vec.copy(), vec.copy()
            up[j] += h
            dn[j] -= h
            fd = (
                circuit.score(up[5], up[6], QpaParams.from_array(up[:5]))
                - circuit.score(dn[5], dn[6], QpaParams.from_array(dn[:5]))
            ) / (2 * h)
            worst = max(worst, abs(fd - exact[j]))
    assert worst <= 1e-6, worst

    images = rng.uniform(0, 1, size=(3, 1, 8, 8))
    labels = np.array([0, 1, 0])
    model_h = 1e-3
    for scorer in scorers.SCORER_KINDS:
        config = vit.VitConfig(8, 1, 4, 1, 2, 8, 16, 2, scorer=scorer, depth=4)
        model = vit.init_model(config, 7)
        _, grads = vit.backward(model, images, labels)
        check_rng = np.random.default_rng(8)
        for name, par in model.params.items():
            flat = par.reshape(-1)
            for i in check_rng.choice(flat.size, size=min(20, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + model_h
                lp, _ = vit.cross_entropy(vit.forward(model, images), labels)
                flat[i] = orig - model_h
                lm, _ = vit.cross_entropy(vit.forward(model, images), labels)
                flat[i] = orig
                fd = (lp - lm) / (2 * model_h)
                an = grads[name].reshape(-1)[i]
                assert abs(fd - an) <= 1e-5 + 1e-3 * max(abs(fd), abs(an)), (scorer, name)
    elapsed = time.time() - start
    assert elapsed < 120.0, elapsed
    _report(6, f"parameter-shift vs FD {worst:.2e}; end-to-end check all scorers in {elapsed:.0f}s")


@pytest.fixture(scope="module")
def tiny_trained_qpa():
    overrides = [
        "scorer=qpa", "seed=2", "image_size=8", "n_per_class=20", "train_n=24",
        "valid_n=12", "patch_size=4", "hidden_size=8", "mlp_hidden=16", "depth=4",
        "epochs=3", "warmup_epochs=1", "batch_size=8", "lr0=0.2",
    ]
    cfg = cli.resolve_config(cli._TRAIN_KEYS, None, overrides)
    model, _ = _train(cfg, "qpa", 2)
    from qpattn.data import SyntheticSpec, split, synthetic_dataset

    dataset = synthetic_dataset(SyntheticSpec(20, 8, 0.1, 0))
    _, valid = split(dataset, 24, 12, 2)
    return model, valid


def test_criterion_07_noise_behaviour(tiny_trained_qpa):
    start = time.time()
    rng = np.random.default_rng(107)
    gammas = np.arange(0.0, 0.1001, 0.02)

    worst_pf, worst_bf = 0.0, 0.0
    for _ in range(100):
        p = random_params(rng)
        q, k = rng.normal(0, 1.5, 2)
        mu = circuit.score(q, k, p)
        worst_pf = max(worst_pf, abs(circuit.score_noisy(q, k, p, "PF", rng.uniform(0, 1)) - mu))
        for g in gammas:
            closed = mu * (1 - 2 * g) ** 2 + 2 * g * (1 - g)
            worst_bf = max(worst_bf, abs(circuit.score_noisy(q, k, p, "BF", g) - closed))
    assert worst_pf <= 1e-12, worst_pf
    assert worst_bf <= 1e-10, worst_bf

    # BF is the most damaging channel at gamma = 0.10 (mean |mu shift|).
    shifts = {}
    qs, ks = rng.normal(0, 1.5, (2, 400))
    p = random_params(rng)
    mu0 = circuit.score_batch(qs, ks, p)
    for channel in ("AD", "DP", "BF", "PF"):
        mu_noisy = circuit.score_noisy_batch(qs, ks, p, channel, 0.10)
        shifts[channel] = float(np.abs(mu_noisy - mu0).mean())
    assert shifts["BF"] == max(shifts.values()), shifts
    assert shifts["PF"] == 0.0

    # Validation accuracy of a trained model is untouched by PF noise.
    model, valid = tiny_trained_qpa
    base = vit.forward(model, valid.images)
    for gamma in (0.02, 0.1, 0.7):
        noisy = vit.forward(model, valid.images, noise=("PF", gamma))
        assert np.array_equal(noisy, base)
    elapsed = time.time() - start
    assert elapsed < 60.0, elapsed
    _report(7, f"PF exact ({worst_pf:.1e}); BF closed form ({worst_bf:.1e}); shifts {shifts}")


def test_criterion_08_shot_bound():
    # The underlying claim is Var(mu_hat) = mu(1-mu)/S <= 1/(4S), i.e. a true
    # std of at most 0.05 at S = 100. The exact bound is asserted exactly; the
    # empirical std over 1000 repetitions estimates it with sampling error
    # (std-of-std ~ 2.2% here), so it carries the 1.1x slack used throughout
    # the shot-noise study, plus a tight consistency band around the exact
    # value. Inputs with mu near 0.5 sit exactly on the bound.
    start = time.time()
    rng = np.random.default_rng(108)
    worst_true, worst_emp = 0.0, 0.0
    for _ in range(3):
        p = random_params(rng)
        q, k = rng.normal(0, 1.5, 2)
        mu = circuit.score(q, k, p)
        true_std = float(np.sqrt(mu * (1 - mu) / 100))
        assert true_std <= 0.05 + 1e-12
        estimates = np.array(
            [circuit.score_sampled(q, k, p, shots=100, seed=int(s)) for s in rng.integers(0, 2**31, 1000)]
        )
        emp = float(estimates.std(ddof=1))
        assert emp <= 1.1 * 0.05, emp
        assert abs(emp - true_std) <= 5 * true_std / np.sqrt(2 * 999)
        worst_true, worst_emp = max(worst_true, true_std), max(worst_emp, emp)
    elapsed = time.time() - start
    assert elapsed < 30.0, elapsed
    _report(8, f"S=100: exact std bound {worst_true:.4f} <= 0.05; empirical {worst_emp:.4f}")


def test_criterion_09_desk_scale_training(tmp_path):
    # Exact protocol: synthetic stripes, 200 train / 80 valid, 16x16 images,
    # patch 4, 1 layer, 2 heads, hidden 32, D = 16, 5 seeds, <= 50 epochs.
    protocol = [
        "--set", "epochs=50",
        "--set", "lr0=0.1",
        "--set", "batch_size=32",
    ]
    base_cfg = cli._apply_depth_default(
        cli.resolve_config(cli._TRAIN_KEYS, None, ["epochs=50", "lr0=0.1", "batch_size=32"])
    )
    assert (base_cfg["train_n"], base_cfg["valid_n"]) == (200, 80)
    assert (base_cfg["image_size"], base_cfg["patch_size"]) == (16, 4)
    assert (base_cfg["num_layers"], base_cfg["heads"], base_cfg["hidden_size"]) == (1, 2, 32)
    assert base_cfg["depth"] == 16

    # Per-run wall-time budget, measured on the slow (quantum) and fast kinds.
    for scorer in ("qpa", "dot"):
        t0 = time.time()
        _, result = _train(base_cfg, scorer, 1)
        elapsed = time.time() - t0
        assert elapsed < 180.0, (scorer, elapsed)
        assert result.best_accuracy >= 0.95

    out = tmp_path / "compare"
    code = cli.main(
        ["compare", "--set", "scorers=qpa,dot", "--set", "seeds=1,2,3,4,5", *protocol,
         "--out", str(out)]
    )
    assert code == 0

    best = {}
    with open(out / "runs.jsonl") as f:
        for line in f:
            rec = json.loads(line)
            key = (rec["scorer"], rec["seed"])
            best[key] = max(best.get(key, 0.0), rec["val_accuracy"])
            assert rec["epoch"] < 50
    assert len(best) == 10
    assert all(acc >= 0.95 for acc in best.values()), best

    with open(out / "compare.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    summaries = [r for r in rows if r["row_type"] == "summary"]
    ttests = [r for r in rows if r["row_type"] == "ttest"]
    assert [r["scorer"] for r in summaries] == ["qpa", "dot"]
    for r in summaries:
        assert float(r["accuracy_mean"]) >= 0.95
        for metric in ("precision", "recall", "f1", "auc_roc"):
            assert r[f"{metric}_mean"] != ""
    (t,) = ttests
    assert t["metric"] == "accuracy" and int(t["n"]) == 5
    for field in ("mean_diff", "t_statistic", "p_one_tail", "p_two_tail", "cohens_d",
                  "ci95_low", "ci95_high"):
        assert np.isfinite(float(t[field])), field
    assert t["significance"] in ("n.s.", "*", "**", "***", "n/a")
    _report(9, f"qpa/dot best accuracies {sorted(best.values())}; compare CSV complete")


def test_criterion_10_statistics_oracle():
    rng = np.random.default_rng(110)
    for _ in range(100):
        n = int(rng.integers(3, 30))
        a = rng.normal(0.8, 0.05, size=n)
        b = a - rng.normal(0.01, 0.03, size=n)
        r = training.paired_t_test(a, b)
        assert r.p_two_tail == pytest.approx(stats.ttest_rel(a, b).pvalue, abs=1e-6)
        assert r.p_one_tail == pytest.approx(
            stats.ttest_rel(a, b, alternative="greater").pvalue, abs=1e-6
        )

    r = training.paired_t_test([0.8, 0.9, 0.7], [0.6, 0.8, 0.7])
    assert r.t_statistic == pytest.approx(1.7321, abs=1e-4)
    assert r.cohens_d == pytest.approx(1.0, abs=1e-12)
    _report(10, f"t-test matches reference; hand case t={r.t_statistic:.4f}, d={r.cohens_d:.1f}")


def test_criterion_11_structural_counts():
    for layers in (1, 3):
        config = dict(image_size=16, channels=1, patch_size=4, num_layers=layers,
                      heads=2, hidden_size=32, mlp_hidden=64, num_classes=2, depth=16)
        qpa = vit.init_model(vit.VitConfig(scorer="qpa", **config), 0)
        dot = vit.init_model(vit.VitConfig(scorer="dot", **config), 0)
        assert vit.count_params(qpa) == vit.count_params(dot) + 5 * layers
        assert vit.scorer_param_count(qpa) == 5 * layers

    rng = np.random.default_rng(111)
    assert sum(w.size for w in scorers.init_mlp_params("mlp49", rng).values()) == 49
    assert sum(w.size for w in scorers.init_mlp_params("mlp585", rng).values()) == 585
    _report(11, "QPA adds exactly 5 params/layer; MLP scorers hold exactly 49 / 585")
