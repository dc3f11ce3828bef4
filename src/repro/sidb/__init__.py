"""SiDB electrostatics and ground-state simulation (SiQAD substitute).

Implements the physical model used by the paper's validation tool chain
[Ng TNANO'20]: SiDBs as point charges on the H-Si(100)-2x1 surface
interacting through a Thomas-Fermi-screened Coulomb potential, with the
chemical potential ``mu_minus`` deciding the neutral/negative population.
Ground states are found exactly by the pruned QuickExact search
(:mod:`repro.sidb.quickexact`) or heuristically by simulated annealing
(:mod:`repro.sidb.simanneal`, the *SimAnneal* port used for Figures 1c
and 5); brute-force enumeration (:mod:`repro.sidb.exhaustive`, ExGS) is
the reference both are tested against.  :mod:`repro.sidb.operational`
alone decides which engine simulates a given system.
"""
