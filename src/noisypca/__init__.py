"""Finite-sample PCA under non-isotropic and data-dependent noise.

Subspace primitives (`noisypca.linalg`), signal and noise models
(`noisypca.model`), rank estimators (`noisypca.estimator`), closed-form
error bounds with their feasibility conditions (`noisypca.bounds`) and a
seeded Monte Carlo harness (`noisypca.experiments`). Each name is imported
from its module; this namespace re-exports none.
"""

__version__ = "0.1.0"
