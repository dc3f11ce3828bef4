"""Operational-domain evaluation for SiDB gate designs.

The paper's outlook (Section 6) calls for "a streamlined operational
domain evaluation framework ... since the existing work is
computationally heavy and not trivially quantifiable".  This module
provides exactly that: it sweeps the physical parameter plane
(epsilon_r x lambda_TF by default, or mu_minus on one axis) and records,
per grid point, whether a gate design remains operational -- yielding
the gate's *operational domain* and its area fraction as a robustness
figure of merit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

from repro.coords.lattice import LatticeSite
from repro.networks.truth_table import TruthTable
from repro.sidb.bdl import BdlPair
from repro.sidb.operational import GateFunctionSpec, check_operational
from repro.sidb.parallel import DomainPointTask, run_tasks
from repro.sidb.simanneal import SimAnnealParameters
from repro.tech.parameters import SiDBSimulationParameters


@dataclass(frozen=True)
class DomainPoint:
    """One sample of the operational domain."""

    x: float
    y: float
    operational: bool
    correct_patterns: int
    total_patterns: int


@dataclass
class OperationalDomain:
    """The sampled operational domain of a gate design."""

    x_parameter: str
    y_parameter: str
    points: list[DomainPoint] = field(default_factory=list)

    @property
    def num_operational(self) -> int:
        return sum(1 for p in self.points if p.operational)

    @property
    def coverage(self) -> float:
        """Fraction of sampled parameter points where the gate works."""
        if not self.points:
            return 0.0
        return self.num_operational / len(self.points)

    def to_ascii(self) -> str:
        """Grid rendering: '#' operational, '.' not."""
        xs = sorted({p.x for p in self.points})
        ys = sorted({p.y for p in self.points})
        value = {(p.x, p.y): p.operational for p in self.points}
        lines = []
        for y in reversed(ys):
            row = "".join(
                "#" if value.get((x, y), False) else "." for x in xs
            )
            lines.append(f"{y:8.3f} |{row}|")
        lines.append(" " * 10 + "".join("-" for _ in xs))
        return "\n".join(lines)


_PARAMETERS = ("epsilon_r", "lambda_tf", "mu_minus")


def evaluate_domain_point(task: DomainPointTask) -> DomainPoint:
    """Operational check at one parameter grid point (worker-safe).

    Module-level so :func:`repro.sidb.parallel.run_tasks` can ship grid
    points to a ``ProcessPoolExecutor`` by reference; the per-pattern
    simulations inside stay serial (one process per grid point).
    """
    report = check_operational(
        body_sites=list(task.body_sites),
        input_stimuli=[
            (list(sites0), list(sites1))
            for sites0, sites1 in task.input_stimuli
        ],
        output_pairs=list(task.output_pairs),
        spec=GateFunctionSpec(task.outputs),
        parameters=task.parameters,
        engine=task.engine,
        schedule=task.schedule,
    )
    return DomainPoint(
        x=task.x,
        y=task.y,
        operational=report.operational,
        correct_patterns=sum(p.correct for p in report.patterns),
        total_patterns=len(report.patterns),
    )


def compute_operational_domain(
    body_sites: Sequence[LatticeSite],
    input_stimuli: Sequence[tuple[list[LatticeSite], list[LatticeSite]]],
    output_pairs: Sequence[BdlPair],
    outputs: Sequence[TruthTable],
    x_parameter: str = "epsilon_r",
    x_values: Sequence[float] = (4.6, 5.1, 5.6, 6.1, 6.6),
    y_parameter: str = "lambda_tf",
    y_values: Sequence[float] = (3.0, 4.0, 5.0, 6.0, 7.0),
    base: SiDBSimulationParameters | None = None,
    engine: str = "auto",
    schedule: SimAnnealParameters | None = None,
    workers: int = 1,
) -> OperationalDomain:
    """Sweep two physical parameters; returns the operational domain.

    ``workers > 1`` distributes the grid points over a process pool;
    each point is an independent simulation, and the returned
    ``DomainPoint`` list is bit-identical to a serial sweep.
    """
    for parameter in (x_parameter, y_parameter):
        if parameter not in _PARAMETERS:
            raise ValueError(
                f"unknown parameter {parameter!r}; know {_PARAMETERS}"
            )
    if x_parameter == y_parameter:
        raise ValueError("x and y must sweep different parameters")
    base = base or SiDBSimulationParameters.bestagon()
    domain = OperationalDomain(x_parameter, y_parameter)

    body = tuple(body_sites)
    stimuli = tuple(
        (tuple(sites0), tuple(sites1)) for sites0, sites1 in input_stimuli
    )
    pairs = tuple(output_pairs)
    tables = tuple(outputs)
    tasks = []
    for x in x_values:
        for y in y_values:
            tasks.append(
                DomainPointTask(
                    x=x,
                    y=y,
                    body_sites=body,
                    input_stimuli=stimuli,
                    output_pairs=pairs,
                    outputs=tables,
                    parameters=dataclasses.replace(
                        base, **{x_parameter: x, y_parameter: y}
                    ),
                    engine=engine,
                    schedule=schedule,
                )
            )
    domain.points.extend(
        run_tasks(evaluate_domain_point, tasks, workers, label="domain.points")
    )
    return domain


def design_operational_domain(design, **kwargs) -> OperationalDomain:
    """Operational domain of a :class:`~repro.gatelib.designs.GateDesign`."""
    return compute_operational_domain(
        body_sites=list(design.sites) + list(design.output_perturbers),
        input_stimuli=design.input_stimuli,
        output_pairs=design.output_pairs,
        outputs=design.functions,
        **kwargs,
    )
