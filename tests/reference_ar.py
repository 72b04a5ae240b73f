"""Whole-design AR fit, kept as a reference for the blocked QR one.

`fit_ar_predict` is the earlier implementation of
`meterfuse.detectors.fit_ar_predict`: it builds the full (n+p+1) x (p+1)
ridge-augmented design and hands it to `np.linalg.lstsq`, so its memory
grows with the series.  Each step is easy to check by eye; the blocked fit
must flag the same indices and give residuals within rounding of these.
"""

from __future__ import annotations

import numpy as np

_RIDGE = 1e-8


def fit_ar_predict(values: np.ndarray, p: int) -> np.ndarray:
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
    target = y[p:]
    rhs = np.concatenate([target, np.zeros(p + 1)])
    coef, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    return target - design @ coef
