"""*SimAnneal*: simulated-annealing ground-state finder (SiQAD port).

The engine of [Ng TNANO'20] used by the paper to validate the Bestagon
gates (Figures 1c and 5): multiple annealing instances explore the
occupation space with single-electron add/remove and hop moves under a
geometric cooling schedule; the best *population-stable* configurations
encountered are reported.  The exhaustive engine certifies its results
on small systems (see the cross-validation tests).

All instances run in lockstep as NumPy arrays -- occupation matrix
``(instances, n)``, incremental local-potential matrix, vectorized
Metropolis accept/reject -- in place of SiQAD's per-move loop
(QuickSim / "The Need for Speed" style).

Per-instance random streams are derived with
``numpy.random.SeedSequence(seed).spawn(instances)``, so instance *k*'s
trajectory depends only on ``(seed, k)`` -- never on which other
instances run beside it -- and every seeded run is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.sidb.charge import SidbLayout
from repro.sidb.energy import EnergyModel
from repro.sidb.exhaustive import GroundStateResult
from repro.sidb.stability import (
    POPULATION_TOLERANCE,
    is_metastable,
    is_population_stable,
)
from repro.tech.parameters import SiDBSimulationParameters

#: Configurations within this energy window of the minimum are reported
#: as degenerate ground states (matches the exhaustive engine).
ENERGY_TOLERANCE = 1e-9

#: Vectorized resolution rounds per sweep in the batch engine.  Each
#: round finalizes every instance's proposal prefix up to (and
#: including) its first Metropolis-accepted move; rejected proposals
#: are final the moment they are evaluated.  Cold sweeps resolve in one
#: or two rounds; hot sweeps are cut off after this many accepted moves
#: per instance, which bounds the kernel's wall time without hurting
#: solution quality (the exhaustive cross-validation gates this).
MAX_SPECULATIVE_PASSES = 6

#: Sweep interval between ``obs.progress`` ticks in the batch kernel --
#: frequent enough for a live display, sparse enough to stay invisible
#: in the kernel's per-sweep cost.
PROGRESS_EVERY_SWEEPS = 50


@dataclass
class SimAnnealParameters:
    """Annealing schedule parameters (SiQAD-like defaults)."""

    instances: int = 16
    sweeps: int = 300
    initial_temperature: float = 0.25  # eV-scale effective temperature
    final_temperature: float = 0.002
    seed: int = 0


class SimAnneal:
    """Simulated-annealing ground-state search."""

    def __init__(
        self,
        layout: SidbLayout,
        parameters: SiDBSimulationParameters | None = None,
        schedule: SimAnnealParameters | None = None,
        model: EnergyModel | None = None,
    ) -> None:
        self.layout = layout
        self.model = model or EnergyModel(layout, parameters)
        self.schedule = schedule or SimAnnealParameters()
        # Move bookkeeping of the most recent run (reported via obs).
        self._proposals = 0
        self._accepted = 0
        self._kernel_passes = 0

    # --- public API -------------------------------------------------------
    def run(self) -> GroundStateResult:
        """Anneal; returns the best stable configuration(s) found."""
        return self._collect_result(self._run_instances())

    def _run_instances(self) -> list[tuple[np.ndarray, float]]:
        """Run all instances; returns (occupation, energy) finalists.

        Every finalist is greedy-descended to the bottom of its basin
        and carries an *exactly recomputed* energy (no accumulated
        floating-point drift).
        """
        n = len(self.layout)
        indices = list(range(self.schedule.instances))
        if n == 0 or not indices:
            return []
        with obs.span("simanneal.run") as span:
            span.set("batch_shape", [len(indices), n])
            self._proposals = 0
            self._accepted = 0
            self._kernel_passes = 0
            candidates = self._run_batch(indices)
            span.add("sweeps", self.schedule.sweeps * len(indices))
            span.add("moves.proposed", self._proposals)
            span.add("moves.accepted", self._accepted)
            span.add("kernel.passes", self._kernel_passes)
            if self._proposals:
                span.set(
                    "acceptance_rate",
                    round(self._accepted / self._proposals, 4),
                )

            finalists: list[tuple[np.ndarray, float]] = []
            for candidate in candidates:
                descended = self._greedy_descent(candidate)
                if not is_population_stable(self.model, descended):
                    continue
                energy = self.model.energy(descended)
                finalists.append((descended, energy))
                span.observe("simanneal.energy", energy)
            span.add("finalists", len(finalists))
        return finalists

    def _collect_result(
        self, finalists: list[tuple[np.ndarray, float]]
    ) -> GroundStateResult:
        """Merge finalists into a result with degenerate-state collection.

        All distinct metastable configurations within
        :data:`ENERGY_TOLERANCE` of the best energy are reported, so
        degeneracy-agreement checks fire for this engine exactly as they
        do for the exhaustive one.
        """
        n = len(self.layout)
        result = GroundStateResult(self.layout, total_count=1 << n)
        if n == 0:
            result.ground_states = [np.zeros(0, dtype=np.int8)]
            result.ground_energy = 0.0
            result.valid_count = 1
            return result
        if not finalists:
            return result

        best_energy = min(energy for _, energy in finalists)
        tied: dict[bytes, np.ndarray] = {}
        for occupation, energy in finalists:
            if energy > best_energy + ENERGY_TOLERANCE:
                continue
            key = occupation.astype(np.int8).tobytes()
            if key in tied:
                continue
            if not is_metastable(self.model, occupation):
                continue
            tied[key] = occupation.astype(np.int8)
        if not tied:
            return result
        result.ground_states = [tied[key] for key in sorted(tied)]
        result.ground_energy = min(
            self.model.energy(state) for state in result.ground_states
        )
        result.valid_count = len(result.ground_states)
        return result

    def instance_seeds(self) -> list[np.random.SeedSequence]:
        """Independent per-instance seed sequences (order-invariant)."""
        return np.random.SeedSequence(self.schedule.seed).spawn(
            self.schedule.instances
        )

    # --- vectorized lockstep batch ----------------------------------------
    def _run_batch(self, indices: list[int]) -> list[np.ndarray]:
        """All instances advance together as (instances, n) arrays.

        The kernel is *speculative*: a whole sweep's worth of proposals
        (one per site, per instance) is evaluated against the current
        state in a handful of vectorized passes.  Rejected proposals are
        final on first evaluation (the state they saw is the state the
        sequential chain would have seen); after each accepted move only
        the instance's remaining proposals are re-evaluated.  Because
        annealing is rejection-dominated once the system cools, most
        sweeps resolve in one or two passes instead of ``n`` sequential
        steps -- this is where the order-of-magnitude win over the
        per-move loop comes from.

        Moves use an augmented "reservoir" site ``n``: every proposal
        draws a site pair ``(a, b)`` and becomes a hop ``a -> b`` when
        ``a`` is occupied and ``b`` empty, an electron *removal* at
        ``a`` when both are occupied, and an electron *addition* at
        ``a`` when ``a`` is empty -- i.e. an electron moves between two
        endpoints ``s -> t`` where either endpoint may be the reservoir.
        All moves then share one delta formula ``w[t] - w[s] - M[s, t]``
        (``w`` = local potential + mu on real sites, 0 on the
        reservoir) and one update path.
        """
        model = self.model
        n = model.num_sites
        mu = model.parameters.mu_minus
        # On-site term: scalar mu on pristine surfaces, mu plus the fixed
        # defect potential per site when charged defects are present.  The
        # incremental w updates below stay valid either way because the
        # external contribution is state-independent.
        onsite = (
            mu
            if model.external_potential is None
            else mu + model.external_potential
        )
        matrix = model.potential_matrix
        schedule = self.schedule
        seeds = self.instance_seeds()
        generators = [np.random.default_rng(seeds[k]) for k in indices]
        batch = len(generators)
        sweeps = schedule.sweeps

        n1 = n + 1
        # Augmented interaction matrix: zero row/column for the reservoir.
        matrix_aug = np.zeros((n1, n1))
        matrix_aug[:n, :n] = matrix
        row_base = (np.arange(batch) * n1)[:, None]
        slot_index = np.arange(n)[None, :]

        # State: occupation and w = local potential + mu, both with the
        # extra reservoir column (occupation there is scratch, w is 0 --
        # preserved by updates since the reservoir row of M is zero).
        occupation = np.zeros((batch, n1), dtype=bool)
        occupation[:, :n] = np.stack(
            [(g.random(n) < 0.5) for g in generators]
        )
        w = np.zeros((batch, n1))
        w[:, :n] = occupation[:, :n].astype(float) @ matrix + onsite

        # All random draws for the whole run, one call per instance:
        # (sweeps, n) blocks of (site a, site b, Metropolis uniform).
        draws = np.stack([g.random((sweeps, n, 3)) for g in generators])
        site_a_all = np.minimum((draws[..., 0] * n).astype(np.intp), n - 1)
        site_b_all = np.minimum((draws[..., 1] * n).astype(np.intp), n - 1)
        # Metropolis in threshold form: accept u < exp(-delta/T) is
        # exactly delta < -T*ln(u) -- one comparison, no per-pass exp.
        # u == 0.0 maps to +inf (always accept), same as the exp form.
        with np.errstate(divide="ignore"):
            log_accept_all = -np.log(draws[..., 2])
        flat_a_all = row_base[:, None, :] + site_a_all
        flat_b_all = row_base[:, None, :] + site_b_all
        # The hop interaction M[a, b] only matters when the move is an
        # a->b hop; for add/remove one endpoint is the zero reservoir
        # row.  It is state-independent, so gather it up front.
        hop_interaction_all = matrix.ravel().take(
            site_a_all * n + site_b_all
        )

        best = np.zeros((batch, n), dtype=bool)
        best_energy = np.full(batch, np.inf)
        have_best = np.zeros(batch, dtype=bool)

        temperature = schedule.initial_temperature
        cooling = (
            schedule.final_temperature / schedule.initial_temperature
        ) ** (1.0 / max(1, sweeps - 1))

        for sweep in range(sweeps):
            site_a = site_a_all[:, sweep]
            site_b = site_b_all[:, sweep]
            flat_a = flat_a_all[:, sweep]
            flat_b = flat_b_all[:, sweep]
            hop_interaction = hop_interaction_all[:, sweep]
            threshold = temperature * log_accept_all[:, sweep]

            # Speculative resolution: `consumed` counts how many of the
            # sweep's proposals each instance has finalized.  An
            # instance whose round produced no accepted move is frozen
            # for the rest of the sweep (its remaining proposals keep
            # evaluating to the same rejection), so no explicit
            # bookkeeping is needed for it.
            consumed = np.zeros(batch, dtype=np.intp)
            self._proposals += batch * n
            for _ in range(MAX_SPECULATIVE_PASSES):
                self._kernel_passes += 1
                occ_a = occupation.take(flat_a)
                occ_b = occupation.take(flat_b)
                source = np.where(occ_a, site_a, n)
                target = np.where(
                    occ_a, np.where(occ_b, n, site_b), site_a
                )
                is_hop = occ_a & ~occ_b
                delta = (
                    w.take(row_base + target)
                    - w.take(row_base + source)
                    - is_hop * hop_interaction
                )
                accept = (delta < threshold) & (
                    slot_index >= consumed[:, None]
                )
                moving_rows = np.flatnonzero(accept.any(axis=1))
                if moving_rows.size == 0:
                    break
                self._accepted += moving_rows.size
                slots = accept[moving_rows].argmax(axis=1)
                move_source = source[moving_rows, slots]
                move_target = target[moving_rows, slots]
                occupation[moving_rows, move_source] = False
                occupation[moving_rows, move_target] = True
                w[moving_rows] += (
                    matrix_aug[move_target] - matrix_aug[move_source]
                )
                # Everything before the accepted slot was rejected under
                # the very state it would have seen sequentially; slots
                # after it are re-evaluated next round.
                consumed[moving_rows] = slots + 1

            # End of sweep: refresh w exactly (cancels any incremental
            # drift), test population stability of every instance at
            # once and record exact best energies.
            occ_real = occupation[:, :n]
            potentials = occ_real.astype(float) @ matrix
            w[:, :n] = potentials + onsite
            slack = w[:, :n]
            occupied_mask = occ_real
            stable = ~(
                (occupied_mask & (slack > POPULATION_TOLERANCE))
                | (~occupied_mask & (slack < -POPULATION_TOLERANCE))
            ).any(axis=1)
            if stable.any():
                stable_rows = np.flatnonzero(stable)
                energies = model.batched_energies(occ_real[stable_rows])
                better = energies < best_energy[stable_rows] - 1e-12
                if better.any():
                    improved = stable_rows[better]
                    best[improved] = occ_real[improved]
                    best_energy[improved] = energies[better]
                    have_best[improved] = True
            temperature *= cooling
            if (sweep + 1) % PROGRESS_EVERY_SWEEPS == 0 or sweep + 1 == sweeps:
                obs.progress(
                    "simanneal.sweeps", sweep + 1, sweeps, instances=batch
                )

        candidates = []
        for row in range(batch):
            # Instances that never visited a stable state fall back to
            # greedy-repairing their final configuration.
            candidates.append(
                best[row].astype(np.int8)
                if have_best[row]
                else occupation[row, :n].astype(np.int8)
            )
        return candidates

    # --- deterministic polishing ------------------------------------------
    def _greedy_descent(self, occupation: np.ndarray) -> np.ndarray:
        """Apply strictly improving flips/hops until none remain."""
        model = self.model
        mu = model.parameters.mu_minus
        matrix = model.potential_matrix
        occupation = occupation.copy()
        potentials = model.local_potentials(occupation)
        improved = True
        while improved:
            improved = False
            # Population moves.
            for site in range(len(occupation)):
                if occupation[site]:
                    delta = -(potentials[site] + mu)
                else:
                    delta = potentials[site] + mu
                if delta < -1e-12:
                    if occupation[site]:
                        occupation[site] = 0
                        potentials -= matrix[site]
                    else:
                        occupation[site] = 1
                        potentials += matrix[site]
                    improved = True
            # Hop moves.
            occupied = np.flatnonzero(occupation)
            empty = np.flatnonzero(occupation == 0)
            for source in occupied:
                for target in empty:
                    delta = (
                        potentials[target]
                        - potentials[source]
                        - matrix[source, target]
                    )
                    if delta < -1e-12:
                        occupation[source] = 0
                        occupation[target] = 1
                        potentials -= matrix[source]
                        potentials += matrix[target]
                        improved = True
                        break
                if improved:
                    break
        return occupation
