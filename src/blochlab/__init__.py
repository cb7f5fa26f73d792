"""Numerical toolkit for Bloch-type function spaces on the unit polydisk.

The package estimates weighted-derivative (p-Bloch) and Lipschitz-quotient
norms of holomorphic functions on U^n, evaluates the pointwise densities that
control composition operators C_phi(f) = f o phi between such spaces, and runs
boundedness / compactness detectors together with an independent
finite-difference / uniform-grid oracle.
"""

__version__ = "0.1.0"
