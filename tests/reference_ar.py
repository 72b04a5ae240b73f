"""Whole-design AR fit, kept as a reference for the blocked QR one.

`fit_ar_predict` is the earlier implementation of
`meterfuse.detectors.fit_ar_predict`: it builds the full (n+p+1) x (p+1)
ridge-augmented design and hands it to `np.linalg.lstsq`, so its memory
grows with the series.  Each step is easy to check by eye; the blocked fit
must flag the same indices and give residuals within rounding of these,
which `rounding_bound` sizes.
"""

from __future__ import annotations

import numpy as np

_RIDGE = 1e-8


def augmented_design(values: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The ridge-augmented design and its right-hand side; the fit is argmin |aug c - rhs|."""
    y = np.asarray(values, dtype=np.float64)
    n = len(y)
    rows = n - p
    # argmin |Xc - y|^2 + 1e-8 |c|^2, with the design X the top rows of aug
    aug = np.empty((rows + p + 1, p + 1))
    design = aug[:rows]
    design[:, 0] = 1.0
    for lag in range(1, p + 1):
        design[:, lag] = y[p - lag : n - lag]
    aug[rows:] = np.sqrt(_RIDGE) * np.eye(p + 1)
    return aug, np.concatenate([y[p:], np.zeros(p + 1)])


def fit_ar_predict(values: np.ndarray, p: int) -> np.ndarray:
    aug, rhs = augmented_design(values, p)
    rows = len(values) - p
    coef, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    return rhs[:rows] - aug[:rows] @ coef


def rounding_bound(values: np.ndarray, p: int) -> float:
    """eps * (|rhs| + |aug| |c|): how far rounding may move a fit's residuals.

    A backward-stable least-squares solve returns the exact fit of a
    design and right-hand side each moved by about eps of its norm, so
    its fitted values move by about eps * (|rhs| + |aug| |c|), the
    coefficients c as solved here.  When the design is ill-conditioned
    the coefficients are large and this exceeds any bound scaled by the
    series alone; two such solves, the whole design's and the blocked
    QR's, round apart by up to about this much.
    """
    aug, rhs = augmented_design(values, p)
    coef, _, _, sv = np.linalg.lstsq(aug, rhs, rcond=None)
    return float(np.finfo(np.float64).eps * (np.linalg.norm(rhs) + sv[0] * np.linalg.norm(coef)))
