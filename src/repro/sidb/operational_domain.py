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
import functools
from dataclasses import dataclass, field
from typing import Sequence

from repro.sidb.operational import GateUnderTest, check_operational
from repro.sidb.parallel import run_tasks
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


def _domain_point(
    gate: GateUnderTest,
    point: tuple[float, float, SiDBSimulationParameters],
) -> DomainPoint:
    """Operational check at one parameter grid point (worker-safe).

    Module-level so :func:`repro.sidb.parallel.run_tasks` can ship grid
    points to a ``ProcessPoolExecutor``; the per-pattern simulations
    inside stay serial (one process per grid point).
    """
    x, y, parameters = point
    report = check_operational(gate, parameters)
    return DomainPoint(
        x=x,
        y=y,
        operational=report.operational,
        correct_patterns=sum(p.correct for p in report.patterns),
        total_patterns=len(report.patterns),
    )


def compute_operational_domain(
    gate: GateUnderTest,
    x_parameter: str = "epsilon_r",
    x_values: Sequence[float] = (4.6, 5.1, 5.6, 6.1, 6.6),
    y_parameter: str = "lambda_tf",
    y_values: Sequence[float] = (3.0, 4.0, 5.0, 6.0, 7.0),
    workers: int = 1,
) -> OperationalDomain:
    """Sweep two physical parameters around the Bestagon point.

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
    base = SiDBSimulationParameters.bestagon()
    points = [
        (x, y, dataclasses.replace(base, **{x_parameter: x, y_parameter: y}))
        for x in x_values
        for y in y_values
    ]
    domain = OperationalDomain(x_parameter, y_parameter)
    domain.points.extend(
        run_tasks(
            functools.partial(_domain_point, gate),
            points,
            workers,
            label="domain.points",
        )
    )
    return domain
