"""Dynamical low-rank integrators for the scaled 1x1v radiative transfer
equation: the Galerkin alternating-projection scheme (GAP) with
projector-splitting (PSI) and basis-update Galerkin (BUG) baselines, a dense
reference solver, and the experiment drivers built on top of them.

The modules are the API; this package re-exports nothing.
"""
