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

from repro.sidb.charge import ChargeState, SidbLayout
from repro.sidb.energy import (
    EnergyModel,
    GeometryCache,
    clear_geometry_cache,
    geometry_cache_stats,
)
from repro.sidb.stability import (
    batched_configuration_stable,
    configuration_stability_mask,
    is_configuration_stable,
    is_population_stable,
)
from repro.sidb.exhaustive import exhaustive_ground_state, GroundStateResult
from repro.sidb.quickexact import (
    QuickExactStatistics,
    quickexact_ground_state,
)
from repro.sidb.simanneal import SimAnneal, SimAnnealParameters
from repro.sidb.parallel import (
    resolve_workers,
    run_tasks,
    workers_from_env,
)
from repro.sidb.bdl import BdlPair, detect_bdl_pairs, read_bdl_pair
from repro.sidb.operational import (
    GateFunctionSpec,
    OperationalReport,
    check_operational,
)
from repro.sidb.operational_domain import (
    OperationalDomain,
    compute_operational_domain,
    design_operational_domain,
)

__all__ = [
    "ChargeState",
    "SidbLayout",
    "EnergyModel",
    "GeometryCache",
    "clear_geometry_cache",
    "geometry_cache_stats",
    "is_population_stable",
    "is_configuration_stable",
    "batched_configuration_stable",
    "configuration_stability_mask",
    "exhaustive_ground_state",
    "GroundStateResult",
    "quickexact_ground_state",
    "QuickExactStatistics",
    "SimAnneal",
    "SimAnnealParameters",
    "resolve_workers",
    "run_tasks",
    "workers_from_env",
    "BdlPair",
    "detect_bdl_pairs",
    "read_bdl_pair",
    "GateFunctionSpec",
    "OperationalReport",
    "check_operational",
    "OperationalDomain",
    "compute_operational_domain",
    "design_operational_domain",
]
