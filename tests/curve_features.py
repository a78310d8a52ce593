"""Features of sampled and fitted curves: resonances in spacing scans and
the decay rate of a fitted model."""

import numpy as np


def find_local_maxima(xs, values) -> list[float]:
    """Interior local maxima of a sampled curve (plateaus report their left edge)."""
    xs = np.asarray(xs, float)
    values = np.asarray(values, float)
    out = []
    for i in range(1, len(xs) - 1):
        if values[i] > values[i - 1] and values[i] >= values[i + 1]:
            out.append(float(xs[i]))
    return out


def resonance_onsets(xs, values) -> list[float]:
    """Spacings where the curve rises fastest (midpoints of max first difference).

    A new Bragg channel opens exactly at the commensurate spacing, so the
    scanned curve shows a sharp rise there; its steepest points locate the
    resonances.  The local maxima of the curve itself sit above the onset
    because the resonant bump rides a decaying baseline.
    """
    xs = np.asarray(xs, float)
    values = np.asarray(values, float)
    slope = np.diff(values)
    mids = 0.5 * (xs[1:] + xs[:-1])
    out = []
    for i in range(1, len(slope) - 1):
        if slope[i] > 0 and slope[i] > slope[i - 1] and slope[i] >= slope[i + 1]:
            out.append(float(mids[i]))
    return out


def normalized_rate_from_fit(trace, model) -> np.ndarray:
    """Normalized emission rate -(d/dt) ln f(t) on the trace grid.

    Differentiates the fitted model analytically; the data are never
    differentiated numerically.  The value at t=0 is +inf whenever a term
    with C < 1 carries weight (integrable divergence of the stretched form).
    """
    t = np.asarray(trace.times, dtype=float)
    f = model(t)
    if np.any(f <= 0):
        raise ValueError("model is non-positive on the trace support")
    return model.rate(t)
