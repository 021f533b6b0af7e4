"""Reproducible random substreams.

Every stochastic component (each trial's process noise and dither,
Monte-Carlo scan cells) derives its own generator from a base seed plus an
integer key path, so a trial's draws do not depend on which other trials are
simulated with it, and any single stream can be reproduced in isolation.
Streams use the counter-based Philox bit generator keyed through
``numpy.random.SeedSequence`` spawn keys.
"""

from __future__ import annotations

import numpy as np

# Stream identifiers used by the simulation harness; scans use ad-hoc keys.
PROCESS_NOISE = 0
DITHER = 1


def substream(base_seed: int, *key: int) -> np.random.Generator:
    """Return an independent generator for (base_seed, key...).

    Identical arguments always yield an identical stream; distinct key
    paths yield statistically independent streams.
    """
    if base_seed < 0:
        raise ValueError("base_seed must be non-negative")
    seq = np.random.SeedSequence(entropy=int(base_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))
