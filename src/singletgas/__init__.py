"""Collective-spin fluctuations and entanglement witnesses of ideal
spin-1/2 quantum gases, plus lattice spin correlations and the
staggered-QFI witness."""

__version__ = "0.1.0"
