"""Simulation parameter sets for the SiDB electrostatics engine.

The paper uses two calibrated parameter sets:

* Figure 1c (reproduction of Huff et al.'s OR gate):
  mu_minus = -0.28 eV, epsilon_r = 5.6, lambda_TF = 5 nm.
* Figure 5 (Bestagon library validation):
  mu_minus = -0.32 eV, epsilon_r = 5.6, lambda_TF = 5 nm.

``mu_minus`` is the energetic transition level between the neutral (DB0)
and the negative (DB-) charge state relative to the Fermi level;
``epsilon_r`` the effective relative permittivity; ``lambda_TF`` the
Thomas-Fermi screening length of the bulk electron gas.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SiDBSimulationParameters:
    """Physical parameters of the SiDB ground-state model."""

    mu_minus: float = -0.32
    epsilon_r: float = 5.6
    lambda_tf: float = 5.0

    def __post_init__(self) -> None:
        if self.epsilon_r <= 0:
            raise ValueError("epsilon_r must be positive")
        if self.lambda_tf <= 0:
            raise ValueError("lambda_tf must be positive")

    @classmethod
    def huff_or_gate(cls) -> "SiDBSimulationParameters":
        """Parameter set of Figure 1c (Huff et al. OR-gate reproduction)."""
        return cls(mu_minus=-0.28, epsilon_r=5.6, lambda_tf=5.0)

    @classmethod
    def bestagon(cls) -> "SiDBSimulationParameters":
        """Parameter set of Figure 5 (Bestagon gate validation)."""
        return cls(mu_minus=-0.32, epsilon_r=5.6, lambda_tf=5.0)
