"""Coordinate systems for SiDB design automation.

Two coordinate families are used throughout the framework:

* :mod:`repro.coords.hexagonal` -- pointy-top hexagonal tile coordinates in
  odd-row offset form, the floor-plan topology proposed by the paper.
* :mod:`repro.coords.lattice` -- H-Si(100)-2x1 surface lattice sites, the
  dot-accurate physical coordinates of individual SiDBs.
"""
