"""Exact correlation functions of the rank-one Heisenberg vertex
operator algebra on Riemann surfaces of genus 0, 1 and 2, with a
Schottky uniformization layer for general genus.

All arithmetic is over the rationals; truncation windows are explicit
and every stored coefficient is exact.
"""

__version__ = "0.1.0"

from .series import TruncatedSeries, MultiSeries, rat

__all__ = [
    "TruncatedSeries",
    "MultiSeries",
    "rat",
    "__version__",
]
