"""Deterministic random-source helpers.

Every stochastic routine in this package takes an explicit
``numpy.random.Generator``; nothing draws from global state.  Multi-stream
work (e.g. the QKD session's four streams: setting cells, channel, Alice's
signs and Bob's signs) derives independent child generators via
:func:`split_generators`, which spawns them from a single
``numpy.random.SeedSequence`` so the streams are statistically independent
and reproducible for a fixed root seed.  numpy is imported by the two
helpers, not by the module, so reading :data:`DEFAULT_SEED` loads no numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

#: Default seed used by the command-line interface when none is supplied.
DEFAULT_SEED = 42


def make_generator(seed: int) -> np.random.Generator:
    """A fresh PCG64 generator seeded with ``seed``."""
    import numpy as np

    return np.random.default_rng(seed)


def split_generators(seed: int, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent generators from one root seed.

    Uses ``SeedSequence(seed).spawn(n)``, the documented seed-split function
    for parallel or multi-purpose sampling: children never share state and
    the full list is reproducible from ``seed`` alone.
    """
    import numpy as np

    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]
