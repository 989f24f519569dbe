"""Generalized-estimator information toolkit.

Model families with exact/Monte-Carlo expectation engines, estimating
functions assessed by the information they utilize (with the Fisher
bound), score-inversion confidence intervals, exact coverage
enumeration for the two-binomial log-odds-ratio problem, and a
location-estimator comparison lab.
"""

# The kernels have a single NumPy implementation.  The constant stays
# because the benchmark's environment probe (perfbench/run.py) reads it
# and perfbench/compare.py flags runs whose values differ.
KERNEL_BACKEND = "python"

__version__ = "0.1.0"

__all__ = ["KERNEL_BACKEND", "__version__"]
