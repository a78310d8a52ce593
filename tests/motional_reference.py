"""The motional sampler written as whole-array draws, the reference for the
component-row table that `couplings._motional_rows` fills in place.

Each quantity is one (n_atoms, samples) draw, in the stream order the
package fixes: the first-band Bernoulli per atom, the Gaussian samples
axis by axis, then chi^2_3 and signs for every atom.  The first-band
values are formed for all atoms and kept where the Bernoulli came up, and
the trap-frame samples are rotated into the lab frame in one product.
"""

import numpy as np

from dipolarray.seeding import STREAM_MOTION, derive_seed


def motional_displacements(n_atoms: int, motion, beam_axis) -> np.ndarray:
    """Lab-frame displacement samples, shape (3, n_atoms, samples).  The trap
    axes are the in-plane drive axis, the in-plane perpendicular, and z."""
    b = np.asarray(beam_axis, dtype=float)
    u1 = np.array([b[0], b[1], 0.0])
    nrm = np.linalg.norm(u1)
    u1 = u1 / nrm if nrm > 1e-12 else np.array([1.0, 0.0, 0.0])
    u3 = np.array([0.0, 0.0, 1.0])
    frame = np.array([u1, np.cross(u3, u1), u3])

    rng = np.random.default_rng(derive_seed(motion.seed, STREAM_MOTION))
    excited = rng.random(n_atoms) < motion.excited_band_probability
    axis_samples = np.empty((3, n_atoms, motion.samples))
    for ax, w in enumerate(motion.widths):
        axis_samples[ax] = rng.normal(0.0, w, size=(n_atoms, motion.samples))
    chi = rng.chisquare(3, size=(n_atoms, motion.samples))
    sign = rng.integers(0, 2, size=(n_atoms, motion.samples)) * 2 - 1
    band1 = motion.widths[0] * np.sqrt(chi) * sign
    axis_samples[0, excited] = band1[excited]
    lab = frame.T @ axis_samples.reshape(3, -1)
    return lab.reshape(axis_samples.shape)
