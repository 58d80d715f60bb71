"""Seeded inputs of the three benchmark workloads.

Each workload is a fixed problem (signal, boundary, category effects) drawn
from a constant generator; ``--seed`` draws the rows and seeds the forest.  A run fits ``rounds``
forests, round r on its own training sample, and scores each on one held-out
set, so quality metrics average over samples instead of hanging on one.

Every array is a pure function of (workload, seed): generators are
``numpy.random.default_rng([tag, ...])`` with fixed integer tags, never
Python's per-process salted ``hash()``.  The library receives only arrays;
nothing here goes through ``aggforest.datasets``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TEST = 0    # stream id of the held-out set; training round r uses r + 1


@dataclass
class Workload:
    name: str
    task: str               # "classification" or "regression"
    train: list             # per round: (list of 1-d feature columns, targets)
    test_cols: list
    y_test: np.ndarray      # labels, or the clean signal for regression
    kinds: list             # "continuous" / "categorical" per column
    config: dict            # TrainConfig keyword arguments


def _doppler(t: np.ndarray) -> np.ndarray:
    return np.sqrt(t * (1.0 - t)) * np.sin(2.1 * np.pi / (t + 0.05))


def signals(seed: int, rounds: int = 3) -> Workload:
    """Doppler regression at SNR 0.5: 2048 noisy training points on a grid,
    scored by MSE against the clean signal on an 8192-point held-out grid.

    The noise draw of round r is the same for every seed, which only sets
    the forest's seed: the MSE of one forest moves by about 25% (quartile
    spread over median) from one noise draw to the next, but by about 2%
    from one forest seed to the next, so seeded noise would bury any change
    in accuracy.
    """
    n, n_test = 2048, 8192
    t = (np.arange(n) + 0.5) / n
    clean = _doppler(t)
    noise_sd = clean.std() / 0.5
    train = [([t], clean + noise_sd * np.random.default_rng([1, r + 1])
               .standard_normal(n)) for r in range(rounds)]
    t_test = (np.arange(n_test) + 0.5) / n_test
    return Workload(
        name="signals", task="regression", train=train,
        test_cols=[t_test], y_test=_doppler(t_test),
        kinds=["continuous"],
        config=dict(task="regression", n_trees=100, aggregation=True,
                    temperature=1.0, seed=seed),
    )


def wide(seed: int, rounds: int = 2) -> Workload:
    """50k x 20 Gaussian rows, one fixed linear boundary, 10% of labels
    flipped; 50k held-out rows."""
    n, d = 50_000, 20
    w = np.random.default_rng([2]).standard_normal(d)
    w /= np.linalg.norm(w)

    def draw(stream):
        rng = np.random.default_rng([2, seed, stream])
        X = rng.standard_normal((n, d))
        y = (X @ w > 0).astype(np.int64)
        flip = rng.random(n) < 0.1
        return [X[:, j].copy() for j in range(d)], np.where(flip, 1 - y, y)

    test_cols, y_test = draw(TEST)
    return Workload(
        name="wide", task="classification",
        train=[draw(r + 1) for r in range(rounds)],
        test_cols=test_cols, y_test=y_test,
        kinds=["continuous"] * d,
        config=dict(task="classification", n_trees=4, aggregation=True,
                    seed=seed),
    )


CARDINALITIES = (5, 40, 250, 1000)
MISSING_RATE = 0.05
N_CLASSES = 3


def mixed_off(seed: int, rounds: int = 2) -> Workload:
    """4 Zipf-skewed categorical and 4 continuous columns, about 5% missing
    each, 3 classes, aggregation off; 20k training and 20k held-out rows."""
    n = 20_000
    # Fixed class scores: a random effect per category value plus linear terms.
    problem = np.random.default_rng([3])
    effects = [problem.normal(0.0, 1.0, size=(c, N_CLASSES))
               for c in CARDINALITIES]
    zipf = [1.0 / np.arange(1, c + 1) ** 1.1 for c in CARDINALITIES]
    slopes = problem.normal(0.0, 0.7, size=(4, N_CLASSES))

    def draw(stream):
        rng = np.random.default_rng([3, seed, stream])
        cols, score = [], np.zeros((n, N_CLASSES))
        for k, c in enumerate(CARDINALITIES):
            codes = rng.choice(c, size=n, p=zipf[k] / zipf[k].sum())
            score += effects[k][codes]
            col = np.array([f"c{k}v{v}" for v in codes], dtype=object)
            col[rng.random(n) < MISSING_RATE] = None
            cols.append(col)
        for k in range(4):
            x = rng.standard_normal(n)
            score += np.outer(x, slopes[k])
            x[rng.random(n) < MISSING_RATE] = np.nan
            cols.append(x)
        y = np.argmax(score + rng.gumbel(size=(n, N_CLASSES)), axis=1)
        return cols, y.astype(np.int64)

    test_cols, y_test = draw(TEST)
    return Workload(
        name="mixed-off", task="classification",
        train=[draw(r + 1) for r in range(rounds)],
        test_cols=test_cols, y_test=y_test,
        kinds=["categorical"] * 4 + ["continuous"] * 4,
        config=dict(task="classification", n_trees=10, aggregation=False,
                    seed=seed),
    )


WORKLOADS = {"signals": signals, "wide": wide, "mixed-off": mixed_off}
