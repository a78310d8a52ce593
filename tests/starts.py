"""Coherent starts stated by the pulse that prepares them.

The package states every start by its excitation probability p; a resonant
pulse of area theta leaves p = sin^2(theta/2).  b = sqrt(p (1 - p)) then
loses relative precision as theta -> pi, so tests that need the amplitude
near a pi pulse state p directly.
"""

import numpy as np

from dipolarray.exact import InitialStateSpec


def pulse(theta: float, k_laser=None, phase_offset: float = 0.0) -> InitialStateSpec:
    """The start a pulse of area `theta` leaves, with the phase gradient
    `k_laser` (units of 2*pi/lambda) and `phase_offset`."""
    return InitialStateSpec(float(np.sin(theta / 2) ** 2), coherent=True,
                            phase_gradient=None if k_laser is None
                            else tuple(float(c) for c in k_laser),
                            phase_offset=float(phase_offset))
