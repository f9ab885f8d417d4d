"""Fractal constructions, their Fourier transforms, and density verdicts.

The package splits into five layers:

* ``geometry``: covering/packing counts, neighborhood volumes and box
  dimension, all exact where the inputs allow;
* ``cantor``: parametrized Cantor-type interval constructions, their
  levels and closed-form tube data, and random offset draws;
* ``fourier``: transforms of those measures, octave diagnostics, bump
  mollifiers, and weighted shell sums;
* ``tauberian``: cyclic-grid span/rank certificates, spherical zero
  scans, and the density verdict table;
* ``experiments`` / ``cli``: reproducible experiment runs and the
  acceptance suite behind ``fracspec verify``.
"""

import os

# One OpenBLAS thread: the largest BLAS call is the SVD of one translate
# matrix, h x h with h = m/2 for even m (m <= 2048), and a worker thread
# started with numpy spins for about 0.05 CPU-s after the import.  Set
# before numpy loads; a value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import ConfigError, DomainError, SizeError
from .numeric import LogRatio, as_fraction, parse_rational

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DomainError",
    "LogRatio",
    "SizeError",
    "as_fraction",
    "parse_rational",
    "__version__",
]
