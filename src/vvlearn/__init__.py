"""Regularized linear models for multiclass and multilabel problems.

The package bundles sparse linear prediction over a CSR dataset, a family
of convex losses computed on score matrices with certified Lipschitz
constants, two strongly convex regularizers, a certified SGD trainer,
Rademacher complexity estimators, a sparse text data format,
learning-curve experiment drivers, and randomized property check suites.
Each lives in its own module and is imported from there, e.g.
``from vvlearn.optimizer import train``.
"""

__version__ = "0.1.0"
