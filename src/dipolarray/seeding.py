"""Deterministic seed derivation.

All stochastic components (lattice occupancy, positional disorder, motional
Monte Carlo, ensemble realizations, bootstrap, sweep points) draw from numpy
Generators seeded through this module.  The shot stream is reserved for the
measurement shots the tests emulate; no run draws from it.  Child seeds are
derived from a master seed plus an integer stream label via
``numpy.random.SeedSequence``, which implements a counter-based splitting
scheme: the same (master, stream, index) always yields the same child seed,
independent of how many other streams were derived.
"""

from __future__ import annotations

import numpy as np
# numpy loads its random module on first use; loading it here keeps that cost
# in the package import rather than in the first run that draws
from numpy.random import Generator, SeedSequence, default_rng

# Stream labels.  Keeping them in one place avoids accidental collisions.
STREAM_OCCUPANCY = 0
STREAM_DISORDER = 1
STREAM_MOTION = 2
STREAM_SHOTS = 3  # reserved: shots are emulated in tests only
STREAM_ENSEMBLE = 4
STREAM_BOOTSTRAP = 5
STREAM_SWEEP = 6


def derive_seed(master_seed: int, stream: int, index: int = 0) -> int:
    """Return a single derived 64-bit seed for (master, stream, index)."""
    ss = SeedSequence(entropy=int(master_seed), spawn_key=(int(stream), int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def rng_for(master_seed: int, stream: int, index: int = 0) -> Generator:
    """Generator seeded from the derived (master, stream, index) seed."""
    return default_rng(derive_seed(master_seed, stream, index))
