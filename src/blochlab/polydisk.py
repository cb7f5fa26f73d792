"""Two small shared pieces for computing on the unit polydisk U^n.

`one_minus_sq` is the factored weight 1 - |z_k|^2 that every density uses,
and `complex_pair`/`complex_pairs` are the one [re, im] JSON codec for
complex values.  Points themselves are plain complex arrays, coordinate-major
where a batch is meant (see `sampling`).
"""

from __future__ import annotations

import numpy as np


def complex_pair(c) -> list:
    """A complex scalar as the JSON pair [re, im]."""
    return [float(c.real), float(c.imag)]


def complex_pairs(values) -> list:
    """Complex values, flattened, as a JSON list of [re, im] pairs."""
    return [complex_pair(c) for c in np.ravel(values)]


def one_minus_sq(mods: np.ndarray) -> np.ndarray:
    """(1 - m)(1 + m) for m = |z_k|; factored form keeps precision as m -> 1."""
    return (1.0 - mods) * (1.0 + mods)
