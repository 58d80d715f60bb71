"""End-to-end checks of the package's core guarantees, one test per claim.

Each test also asserts a wall-clock budget so the whole gate stays runnable
as a routine part of the suite.  The terminal summary (see conftest) prints
one PASS/FAIL line per test here.
"""

import time
from fractions import Fraction

import numpy as np
from conftest import bound_violation, cut_weight, layout, random_class_table

from aggforest import forest as forest_module
from aggforest.aggregation import predict_aggregated
from aggforest.cli import main
from aggforest.datasets import add_noise, make_toy_classification, signal_grid
from aggforest.binning import FeatureKind
from aggforest.forest import TrainConfig, fit
from aggforest.metrics import mse, roc_auc
from aggforest.model_io import load_model
from aggforest.reference import (
    aggregate_identity_error,
    complete_tree,
    exhaustive_categorical_gain,
    max_bound_violation,
    prior_total,
    random_grown_instance,
    smoothed_forecast_regret,
    synthetic_state,
    synthetic_tree,
)
from aggforest.sampling import RandomSource, bootstrap
from aggforest.splits import Histogram, SplitConstraints, find_best_split

CONT = FeatureKind.CONTINUOUS


class budget:
    """Assert on exit that the block ran within the given seconds."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, (
                f"took {elapsed:.1f}s, budget {self.seconds:.0f}s")
        return False


def test_aggregated_prediction_equals_sum_over_all_prunings():
    """Recursive predictor == explicit prior-times-weight sum, 1000 trees."""
    with budget(30):
        worst = 0.0
        for i in range(1000):
            rng = np.random.default_rng((101, i))
            task = "classification" if i % 2 == 0 else "regression"
            tree = synthetic_tree(rng, int(rng.integers(1, 7)), task,
                                  n_classes=int(rng.integers(2, 5)))
            state = synthetic_state(tree, rng,
                                    temperature=float(rng.uniform(0.05, 2.0)),
                                    max_loss=float(rng.uniform(0.5, 30.0)))
            x = np.array([rng.integers(0, 16)])
            fast = predict_aggregated(tree, state, x)
            worst = max(worst, aggregate_identity_error(tree, state, x, fast))
        assert worst <= 1e-10, f"worst relative error {worst:.3e}"


def test_pruning_prior_masses_sum_to_one():
    """The 2^-complexity prior is a probability measure, exactly."""
    with budget(5):
        for depth in range(5):
            assert prior_total(complete_tree(depth)) == Fraction(1)
        for i in range(100):
            tree, _, _, _, _ = random_grown_instance(
                3000 + i, task="classification" if i % 2 == 0 else "regression")
            assert prior_total(tree) == Fraction(1)


def test_aggregated_oob_loss_is_pruning_competitive():
    """Mean aggregated oob loss beats every pruning up to the log-prior term."""
    with budget(60):
        worst = -np.inf
        for i in range(200):
            for task in ("classification", "regression"):
                tree, state, binned, labels, sample = random_grown_instance(
                    5000 + i, task=task)
                worst = max(worst, max_bound_violation(
                    tree, state, binned.entries, labels, sample.oob_indices))
        assert worst <= 1e-9, f"worst violation {worst:.3e}"


def test_pruning_bound_holds_on_every_cut_tree(monkeypatch):
    """Full-size forests whose trees lose the subtrees that the aggregate
    weighs below CUT_WEIGHT, in the benchmark's ``wide`` setting and in
    its ``signals`` setting at temperature 10: the bound holds on every
    tree, checked in linear time, and predictions move by at most the
    removed weight times the forecast range (1 for probabilities), within
    1e-12 of the largest prediction."""
    with budget(60):
        rng = np.random.default_rng(17)
        n, d = 50_000, 20
        X = rng.standard_normal((n, d))
        y = (X @ rng.standard_normal(d) > 0).astype(np.int64)
        y = np.where(rng.random(n) < 0.1, 1 - y, y)
        t, clean = signal_grid("doppler", 2048)
        noisy = add_noise(clean, 0.5, seed=7)
        for cols, target, config, scale in (
                (list(X.T), y, TrainConfig(n_trees=4, seed=7), 1.0),
                ([t], noisy, TrainConfig(task="regression", n_trees=100,
                                         temperature=10.0, seed=7),
                 np.ptp(noisy))):
            kinds = [CONT] * len(cols)
            forest = fit(cols, target, kinds, config)
            with monkeypatch.context() as m:
                m.setattr(forest_module, "CUT_WEIGHT", 0.0)
                uncut = fit(cols, target, kinds, config)
            assert uncut.table.n_nodes > forest.table.n_nodes
            for f in (forest, uncut):
                worst = bound_violation(f.table, f.state, f.roots, f.n_oob,
                                        f.oob_loss_mean).max()
                assert worst <= 1e-12, f"worst violation {worst:.3e}"
            predict = ("predict" if config.task == "regression"
                       else "predict_proba")
            cut, full = (getattr(f, predict)(cols) for f in (forest, uncut))
            drift = float(np.abs(cut - full).max())
            assert drift <= (cut_weight(uncut) * scale
                             + 1e-15 * np.abs(full).max())
            assert drift <= 1e-12 * np.abs(full).max()


def test_smoothed_forecast_regret_is_bounded():
    """Log-loss regret of the half-smoothed frequencies stays under (K-1)/2."""
    with budget(5):
        rng = np.random.default_rng(77)
        worst_slack = -np.inf
        for _ in range(10_000):
            k = int(rng.integers(2, 11))
            counts = rng.integers(0, 51, size=k)
            regret = smoothed_forecast_regret(counts)
            slack = regret - (k - 1) / 2.0
            assert slack <= 1e-12
            worst_slack = max(worst_slack, slack)
        # the bound is tight enough to be meaningful, not vacuous
        assert worst_slack > -0.5


def test_categorical_split_scan_matches_exhaustive_search():
    """Probability-ordered scan finds the optimal subset for binary labels."""
    with budget(10):
        loose = SplitConstraints(min_leaf_weight=1e-9, min_leaf_oob=0)
        rng = np.random.default_rng(55)
        for _ in range(500):
            n_bins = int(rng.integers(2, 9))
            table = random_class_table(rng, n_bins, 2)
            hist = Histogram(features=np.array([0]),
                             tables=[np.asarray(table, dtype=np.float64)])
            binned = layout(["categorical"], [n_bins])
            split = find_best_split(hist, binned, "gini", loose, n_classes=2)
            want = exhaustive_categorical_gain(table, "gini", loose)
            if split is None:
                assert want == -np.inf
            else:
                assert split.gain == want or (
                    abs(split.gain - want) <= 1e-8 * max(abs(want), 1e-12))


def test_bootstrap_oob_fraction_matches_theory():
    """About 1 - 1/e of the rows land in the bag on average."""
    with budget(5):
        n = 100
        fractions = np.empty(10_000)
        for i in range(10_000):
            sample = bootstrap(n, RandomSource(42, (i, 0)))
            fractions[i] = sample.n_itb / n
        assert abs(fractions.mean() - (1.0 - np.exp(-1.0))) < 0.01


def test_aggregation_improves_auc_on_overlapping_classes():
    """On a noisy two-class mixture, aggregation lifts test AUC at every
    forest size, and almost every train/test split agrees on the direction."""
    with budget(120):
        X, y = make_toy_classification(5000, seed=9)
        cols = [X[:, 0].copy(), X[:, 1].copy()]
        kinds = [CONT, CONT]
        counts = (1, 2, 5, 10)
        gaps = {m: [] for m in counts}
        for r in range(10):
            perm = np.random.default_rng((900, r)).permutation(5000)
            tr, te = perm[:3500], perm[3500:]
            cols_tr = [c[tr] for c in cols]
            cols_te = [c[te] for c in cols]
            auc = {}
            for aggregation in (True, False):
                config = TrainConfig(n_trees=10, aggregation=aggregation,
                                     seed=r)
                forest = fit(cols_tr, y[tr], kinds, config)
                for m in counts:
                    proba = forest.predict_proba(cols_te, max_trees=m)
                    auc[aggregation, m] = roc_auc(proba[:, 1], y[te] == 1)
            for m in counts:
                gaps[m].append(auc[True, m] - auc[False, m])
        for m in counts:
            assert np.mean(gaps[m]) > 0, f"mean AUC gap at {m} trees"
        assert sum(g > 0 for g in gaps[10]) >= 8


def test_aggregation_reduces_mse_on_noisy_signals():
    """Recovering smooth/wiggly 1-d signals from noise: aggregation-on has
    mean recovery MSE no worse than off, with clear gains at heavy noise."""
    with budget(300):
        results = {}
        for name in ("doppler", "heavisine"):
            t, clean = signal_grid(name, 2048)
            cols = [t.copy()]
            for snr in (0.5, 1.0):
                cell = np.empty((10, 2))
                for seed in range(10):
                    noisy = add_noise(clean, snr, seed=(seed + 1) * 13)
                    for j, aggregation in enumerate((True, False)):
                        config = TrainConfig(
                            task="regression", n_trees=100,
                            aggregation=aggregation,
                            temperature=1.0 if aggregation else None,
                            seed=seed)
                        forest = fit(cols, noisy, [CONT], config)
                        cell[seed, j] = mse(forest.predict(cols), clean)
                results[name, snr] = cell.mean(axis=0)
        for (name, snr), (on, off) in results.items():
            assert on <= off, f"{name} snr={snr}: on {on:.5f} vs off {off:.5f}"
        # heavier noise, larger relative gain
        for name in ("doppler", "heavisine"):
            on, off = results[name, 0.5]
            assert on < off, f"{name} snr=0.5 shows no strict improvement"


def test_prediction_touches_two_path_lengths_minus_one_nodes():
    """Aggregated prediction cost scales with depth, not with subtree count."""
    with budget(5):
        for i in range(100):
            rng = np.random.default_rng((110, i))
            task = "classification" if i % 2 == 0 else "regression"
            tree = synthetic_tree(rng, int(rng.integers(1, 13)), task)
            state = synthetic_state(tree, rng, temperature=1.0)
            x = np.array([rng.integers(0, 16)])
            _, visits = predict_aggregated(tree, state, x, count_visits=True)
            assert visits == 2 * tree.path(x).shape[0] - 1


def test_extreme_losses_and_temperature_stay_finite():
    """Hot temperatures times huge losses must not overflow or denormalize."""
    with budget(5):
        for i in range(50):
            rng = np.random.default_rng((120, i))
            tree = synthetic_tree(rng, int(rng.integers(2, 9)),
                                  "classification", n_classes=3)
            state = synthetic_state(tree, rng, temperature=10.0,
                                    max_loss=1e4)
            assert np.all(np.isfinite(state.log_agg_weight))
            x = np.array([rng.integers(0, 16)])
            proba = predict_aggregated(tree, state, x)
            assert np.all(np.isfinite(proba))
            assert np.all(proba >= 0.0)
            assert abs(proba.sum() - 1.0) <= 1e-9


def test_training_is_deterministic_across_worker_counts(tmp_path, capsys):
    """Same seed, different --jobs: byte-identical models, stable predictions."""
    with budget(60):
        data = tmp_path / "toy.csv"
        assert main(["make-data", "--kind", "toy", "--n", "300",
                     "--seed", "1", "--out", str(data)]) == 0
        paths = []
        for jobs in (1, 2):
            model = tmp_path / f"model{jobs}.agf"
            assert main(["train", "--data", str(data), "--target", "label",
                         "--n-trees", "4", "--seed", "5",
                         "--jobs", str(jobs), "--out", str(model)]) == 0
            paths.append(model)
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

        forest = load_model(str(paths[0]))
        X, y = make_toy_classification(300, seed=1)
        cols = [X[:, 0].copy(), X[:, 1].copy()]
        again = load_model(str(paths[1]))
        assert np.array_equal(forest.predict_proba(cols),
                              again.predict_proba(cols))
