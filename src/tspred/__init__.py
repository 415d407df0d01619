"""Transient stability prediction with a swarm-optimized ELM."""

import os

# One BLAS thread unless the caller chose otherwise: the fitness solves
# many small matrices, where a second thread costs more than it gives.
# This must run before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
