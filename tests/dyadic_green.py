"""The free-space dyadic Green's tensor, the reference for the pair kernel."""

import numpy as np

K_WAVE = 2.0 * np.pi


def green_tensor(r) -> np.ndarray:
    """Free-space dyadic Green's tensor at separation r (units of lambda).

    G(r) = e^{ikr}/(4 pi r) [ (1 + i/(kr) - 1/(kr)^2) I
                              + (-1 - 3i/(kr) + 3/(kr)^2) rhat rhat ],  k = 2 pi.
    """
    r = np.asarray(r, dtype=float)
    rn = float(np.linalg.norm(r))
    if rn == 0.0:
        raise ValueError("green_tensor requires |r| > 0 (use the Dicke branch for r = 0)")
    u = K_WAVE * rn
    rhat = r / rn
    p = 1.0 + 1j / u - 1.0 / u**2
    q = -1.0 - 3j / u + 3.0 / u**2
    return np.exp(1j * u) / (4 * np.pi * rn) * (p * np.eye(3) + q * np.outer(rhat, rhat))
