"""Lattice secrecy lab: nested-lattice coding on the many-to-one
Gaussian interference channel, with exact rate formulas, Monte Carlo
error campaigns and brute-force leakage verification.

Import from the modules: ``lsl.rates``, ``lsl.lattices``,
``lsl.representation``, ``lsl.simulate``, ``lsl.leakage`` and
``lsl.cli``.  The package root re-exports nothing, so importing one
layer loads only that layer and what it imports."""

__version__ = "0.1.0"
