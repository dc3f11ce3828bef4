"""Deterministic featurization of candidate gate geometries.

Turns one candidate design -- the SiDB dots on the hex canvas plus its
I/O context (input perturber stimuli, output BDL pairs, expected truth
tables, optional charged defects) -- into a fixed-length ``float64``
vector a surrogate model can score before any physics runs.

Documented invariances (property-tested in ``tests/test_learn.py``):

* **translation** -- the vector is *byte-identical* under translation
  of the whole candidate (sites, stimuli, output pairs and defects
  together) by any number of columns and any whole number of dimer
  rows (even ``drow``; odd row shifts change the physical geometry of
  the H-Si(100)-2x1 surface and are *not* symmetries).  This holds
  exactly, not merely to rounding: geometry is canonicalized by an
  integer shift of the lattice indices before any float is computed.
* **process stability** -- no ``hash()``-order, ``set``-iteration or
  environment dependence anywhere; the same candidate featurizes to
  the same bytes in every process, including ``spawn`` workers.
* **ordering** -- sites are sorted into canonical ``(n, m, l)`` order
  first, so the vector is independent of SiDB insertion order.

Features with no defined value for a candidate (e.g. canvas distances
of an empty canvas) are pinned to the deterministic cap
:data:`DISTANCE_CAP_NM` rather than NaN, so every vector is finite.

Pairwise-potential statistics come from the same screened-Coulomb
:class:`~repro.sidb.energy.EnergyModel` the physics engines use;
geometrically invalid candidates (two dots coinciding) set the
``collision`` flag and zero the physics-derived block instead of
raising -- a colliding candidate is a legitimate (always-negative)
training example.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.coords.lattice import LatticeSite
from repro.networks.truth_table import TruthTable
from repro.sidb.bdl import BdlPair
from repro.sidb.charge import SidbLayout
from repro.sidb.energy import EnergyModel
from repro.tech.parameters import SiDBSimulationParameters

#: Bump when the feature vector layout changes; models and dataset
#: shards record the version they were built against and refuse to mix.
FEATURE_VERSION = 1

#: Deterministic stand-in for distances that do not exist for a
#: candidate (empty canvas, no defects); far beyond any real coupling
#: range at lambda_TF = 5 nm.
DISTANCE_CAP_NM = 10.0

#: Feature names in vector order.  The docstring of each block lives in
#: :func:`featurize_candidate`; the names are part of the dataset/model
#: schema contract checked by ``scripts/check_learn_schema.py``.
FEATURE_NAMES: tuple[str, ...] = (
    "n_inputs",
    "n_outputs",
    "n_sites",
    "n_canvas",
    "n_fixed",
    "collision",
    "truth_ones_fraction",
    "pair_dist_min",
    "pair_dist_p25",
    "pair_dist_median",
    "pair_dist_mean",
    "pair_dist_max",
    "pair_dist_std",
    "nn_dist_mean",
    "bbox_width_nm",
    "bbox_height_nm",
    "pot_total",
    "pot_max",
    "pot_site_sum_max",
    "pot_site_sum_mean",
    "pot_site_sum_std",
    "canvas_pair_dist_min",
    "canvas_out_centroid_dist",
    "canvas_out_min_dist",
    "canvas_fixed_min_dist",
    "canvas_fixed_mean_dist",
    "out_pair_separation_mean",
    "close_stim_dist_mean",
    "far_stim_dist_mean",
    "stim_contrast",
    "readout_agreement",
    "readout_margin",
    "n_defects",
    "n_charged_defects",
    "defect_min_dist",
    "defect_potential_mean_abs",
)


def feature_names() -> tuple[str, ...]:
    """The feature names, in vector order."""
    return FEATURE_NAMES


@dataclass(frozen=True)
class CandidateGeometry:
    """One candidate gate design plus its I/O context.

    ``sites`` are *all* design dots (fixed template plus any canvas
    dots); ``canvas`` is the searched subset (possibly empty, and
    possibly overlapping ``sites`` entries -- a collision, which the
    featurizer flags instead of rejecting).  ``input_stimuli[i]`` is
    the (far, close) perturber site pair of input ``i``; ``outputs[k]``
    the truth table output pair ``k`` must realize.
    """

    sites: tuple[LatticeSite, ...]
    canvas: tuple[LatticeSite, ...]
    input_stimuli: tuple[
        tuple[tuple[LatticeSite, ...], tuple[LatticeSite, ...]], ...
    ]
    output_pairs: tuple[BdlPair, ...]
    outputs: tuple[TruthTable, ...]
    name: str = ""

    @classmethod
    def from_canvas_problem(
        cls, problem, canvas, name: str = ""
    ) -> "CandidateGeometry":
        """Adapt a designer :class:`CanvasSearchProblem` candidate."""
        canvas_sites = tuple(sorted(canvas))
        return cls(
            sites=tuple(problem.fixed_sites) + canvas_sites,
            canvas=canvas_sites,
            input_stimuli=tuple(
                (tuple(far), tuple(close))
                for far, close in problem.input_stimuli
            ),
            output_pairs=tuple(problem.output_pairs),
            outputs=tuple(problem.outputs),
            name=name,
        )

    @classmethod
    def from_operational(cls, gate) -> "CandidateGeometry":
        """Adapt a :func:`check_operational` gate (no canvas subset)."""
        return cls(
            sites=gate.body,
            canvas=(),
            input_stimuli=gate.input_stimuli,
            output_pairs=gate.output_pairs,
            outputs=gate.outputs,
        )

    def translated(self, dn: int, dm: int) -> "CandidateGeometry":
        """The whole candidate shifted by ``dn`` columns, ``dm`` dimer rows."""

        def shift(site: LatticeSite) -> LatticeSite:
            return LatticeSite(site.n + dn, site.m + dm, site.l)

        return CandidateGeometry(
            sites=tuple(shift(s) for s in self.sites),
            canvas=tuple(shift(s) for s in self.canvas),
            input_stimuli=tuple(
                (tuple(shift(s) for s in far), tuple(shift(s) for s in close))
                for far, close in self.input_stimuli
            ),
            output_pairs=tuple(
                BdlPair(shift(p.site0), shift(p.site1))
                for p in self.output_pairs
            ),
            outputs=self.outputs,
            name=self.name,
        )


def _canonicalized(
    candidate: CandidateGeometry, defects: tuple
) -> tuple[CandidateGeometry, tuple]:
    """Integer-shift the candidate so min ``n`` and min ``m`` are zero.

    The shift is over *all* involved sites (dots plus stimuli plus
    output pairs) and is applied to the lattice-anchored defects too,
    making the float geometry downstream exactly translation invariant
    while preserving the candidate/defect relative placement.
    """
    involved = list(candidate.sites)
    for far, close in candidate.input_stimuli:
        involved.extend(far)
        involved.extend(close)
    for pair in candidate.output_pairs:
        involved.extend((pair.site0, pair.site1))
    if not involved:
        return candidate, defects
    dn = -min(site.n for site in involved)
    dm = -min(site.m for site in involved)
    shifted_defects = tuple(
        dataclasses.replace(
            defect,
            site=LatticeSite(
                defect.site.n + dn, defect.site.m + dm, defect.site.l
            ),
        )
        for defect in defects
    )
    return candidate.translated(dn, dm), shifted_defects


def _positions(sites) -> np.ndarray:
    if not sites:
        return np.zeros((0, 2), dtype=np.float64)
    return np.array([site.position_nm for site in sites], dtype=np.float64)


def _pairwise_distances(positions: np.ndarray) -> np.ndarray:
    deltas = positions[:, None, :] - positions[None, :, :]
    return np.sqrt((deltas**2).sum(axis=2))


def _screened_potential(
    distances: np.ndarray, parameters: SiDBSimulationParameters
) -> np.ndarray:
    """Screened Coulomb potential for strictly positive distances."""
    from repro.tech.constants import COULOMB_CONSTANT_EV_NM

    return (
        COULOMB_CONSTANT_EV_NM
        / parameters.epsilon_r
        * np.exp(-distances / parameters.lambda_tf)
        / distances
    )


def _min_distance_to(
    sources: np.ndarray, targets: np.ndarray
) -> float:
    """Min distance from any source point to any target point."""
    if sources.size == 0 or targets.size == 0:
        return DISTANCE_CAP_NM
    deltas = sources[:, None, :] - targets[None, :, :]
    return min(float(np.sqrt((deltas**2).sum(axis=2)).min()), DISTANCE_CAP_NM)


def _readout_features(
    candidate: CandidateGeometry,
    parameters: SiDBSimulationParameters,
) -> tuple[float, float]:
    """Mean-field readout (agreement fraction, mean margin).

    A cheap physics-free predictor: treat every dot and every active
    perturber as a unit point charge and read each output pair by
    which of its two sites sees the lower total screened potential
    (the electron of the pair localizes there; logic 1 is the electron
    on ``site1``).  The *fraction of patterns* where this mean-field
    readout matches the expected truth table is the single strongest
    geometry-only correctness signal.
    """
    num_inputs = len(candidate.input_stimuli)
    num_outputs = len(candidate.output_pairs)
    if num_outputs == 0:
        return 0.0, 0.0
    patterns = 1 << num_inputs
    # Sorted like every other block: float summation order must not
    # depend on site insertion order (byte-identical contract).
    body = _positions(tuple(sorted(candidate.sites)))
    agree = 0
    margins: list[float] = []
    for pattern in range(patterns):
        active: list[LatticeSite] = []
        for bit, (far, close) in enumerate(candidate.input_stimuli):
            active.extend(close if (pattern >> bit) & 1 else far)
        sources = (
            np.concatenate([body, _positions(active)])
            if active
            else body
        )
        for index, pair in enumerate(candidate.output_pairs):
            values = []
            for site in (pair.site0, pair.site1):
                point = np.array(site.position_nm, dtype=np.float64)
                distances = np.sqrt(
                    ((sources - point[None, :]) ** 2).sum(axis=1)
                )
                distances = distances[distances > 1e-9]
                values.append(
                    float(_screened_potential(distances, parameters).sum())
                    if distances.size
                    else 0.0
                )
            predicted = values[1] < values[0]
            expected = candidate.outputs[index].get_bit(pattern)
            if predicted == expected:
                agree += 1
            margins.append(abs(values[0] - values[1]))
    total = patterns * num_outputs
    margin = float(np.mean(np.array(margins, dtype=np.float64)))
    return agree / total, margin


def featurize_candidate(
    candidate: CandidateGeometry,
    parameters: SiDBSimulationParameters | None = None,
    defects=(),
) -> np.ndarray:
    """The :data:`FEATURE_NAMES` vector of one candidate (``float64``).

    Blocks, in order: candidate arity counts and the collision flag;
    truth-table density; pairwise-distance summary statistics and the
    bounding box of the (canonicalized) dots; screened-Coulomb
    pairwise-potential statistics from :class:`EnergyModel`; canvas
    placement relative to the fixed template and the output pairs; I/O
    BDL distances and the far/close stimulus contrast; the mean-field
    readout agreement; defect counts/proximity.  See the module
    docstring for the invariance contract.
    """
    parameters = parameters or SiDBSimulationParameters()
    candidate, defects = _canonicalized(candidate, tuple(defects))

    sites = tuple(sorted(candidate.sites))
    canvas = tuple(sorted(candidate.canvas))
    stimulus_sites = tuple(
        site
        for far, close in candidate.input_stimuli
        for site in tuple(far) + tuple(close)
    )
    collision = float(
        len(set(sites)) != len(sites)
        or bool(set(sites) & set(stimulus_sites))
    )

    positions = _positions(sites)
    num_sites = len(sites)
    num_canvas = len(canvas)
    num_inputs = len(candidate.input_stimuli)
    num_outputs = len(candidate.output_pairs)

    if candidate.outputs:
        patterns = 1 << num_inputs
        ones = sum(
            bin(table.bits).count("1") for table in candidate.outputs
        )
        truth_ones = ones / (patterns * len(candidate.outputs))
    else:
        truth_ones = 0.0

    model: EnergyModel | None = None
    if not collision and num_sites >= 1:
        try:
            model = EnergyModel(SidbLayout(sites), parameters, defects)
        except ValueError:
            # Sub-lattice-constant coincidence the integer check missed.
            collision = 1.0

    if model is not None and num_sites >= 2:
        distance_matrix = model.distance_matrix
        potential_matrix = model.potential_matrix
        upper = np.triu_indices(num_sites, k=1)
        condensed = distance_matrix[upper]
        dist_stats = (
            float(condensed.min()),
            float(np.quantile(condensed, 0.25)),
            float(np.quantile(condensed, 0.5)),
            float(condensed.mean()),
            float(condensed.max()),
            float(condensed.std()),
        )
        off_diagonal = distance_matrix + np.eye(num_sites) * DISTANCE_CAP_NM
        nn_mean = float(off_diagonal.min(axis=1).mean())
        site_sums = potential_matrix.sum(axis=1)
        pot_stats = (
            float(potential_matrix[upper].sum()),
            float(potential_matrix[upper].max()),
            float(site_sums.max()),
            float(site_sums.mean()),
            float(site_sums.std()),
        )
    else:
        dist_stats = (0.0,) * 6
        nn_mean = 0.0
        pot_stats = (0.0,) * 5

    if num_sites:
        spans = positions.max(axis=0) - positions.min(axis=0)
        bbox = (float(spans[0]), float(spans[1]))
    else:
        bbox = (0.0, 0.0)

    canvas_positions = _positions(canvas)
    fixed = tuple(site for site in sites if site not in set(canvas))
    fixed_positions = _positions(fixed)
    output_sites = tuple(
        site
        for pair in candidate.output_pairs
        for site in (pair.site0, pair.site1)
    )
    output_positions = _positions(output_sites)
    if num_canvas >= 2:
        canvas_condensed = _pairwise_distances(canvas_positions)[
            np.triu_indices(num_canvas, k=1)
        ]
        canvas_pair_min = min(float(canvas_condensed.min()), DISTANCE_CAP_NM)
    else:
        canvas_pair_min = DISTANCE_CAP_NM
    if num_canvas and num_outputs:
        centroid = canvas_positions.mean(axis=0)
        midpoints = np.array(
            [
                (
                    np.array(pair.site0.position_nm)
                    + np.array(pair.site1.position_nm)
                )
                / 2.0
                for pair in candidate.output_pairs
            ],
            dtype=np.float64,
        )
        canvas_out_centroid = min(
            float(
                np.sqrt(((midpoints - centroid[None, :]) ** 2).sum(axis=1))
                .mean()
            ),
            DISTANCE_CAP_NM,
        )
    else:
        canvas_out_centroid = DISTANCE_CAP_NM
    canvas_out_min = _min_distance_to(canvas_positions, output_positions)
    canvas_fixed_min = _min_distance_to(canvas_positions, fixed_positions)
    if num_canvas and len(fixed):
        deltas = canvas_positions[:, None, :] - fixed_positions[None, :, :]
        canvas_fixed_mean = min(
            float(np.sqrt((deltas**2).sum(axis=2)).mean()), DISTANCE_CAP_NM
        )
    else:
        canvas_fixed_mean = DISTANCE_CAP_NM

    out_separation = (
        float(
            np.mean(
                np.array(
                    [pair.separation_nm for pair in candidate.output_pairs],
                    dtype=np.float64,
                )
            )
        )
        if num_outputs
        else 0.0
    )

    close_distances = []
    far_distances = []
    for far, close in candidate.input_stimuli:
        far_distances.append(
            _min_distance_to(_positions(tuple(far)), positions)
        )
        close_distances.append(
            _min_distance_to(_positions(tuple(close)), positions)
        )
    close_mean = (
        float(np.mean(np.array(close_distances, dtype=np.float64)))
        if close_distances
        else DISTANCE_CAP_NM
    )
    far_mean = (
        float(np.mean(np.array(far_distances, dtype=np.float64)))
        if far_distances
        else DISTANCE_CAP_NM
    )

    if collision:
        readout_agreement, readout_margin = 0.0, 0.0
    else:
        readout_agreement, readout_margin = _readout_features(
            candidate, parameters
        )

    charged = tuple(defect for defect in defects if defect.is_charged)
    if defects and num_sites:
        defect_positions = np.array(
            [defect.position_nm for defect in defects], dtype=np.float64
        )
        defect_min = _min_distance_to(defect_positions, positions)
    else:
        defect_min = DISTANCE_CAP_NM
    if model is not None and model.external_potential is not None:
        defect_potential = float(np.abs(model.external_potential).mean())
    else:
        defect_potential = 0.0

    vector = np.array(
        (
            float(num_inputs),
            float(num_outputs),
            float(num_sites),
            float(num_canvas),
            float(num_sites - num_canvas),
            collision,
            truth_ones,
            *dist_stats,
            nn_mean,
            *bbox,
            *pot_stats,
            canvas_pair_min,
            canvas_out_centroid,
            canvas_out_min,
            canvas_fixed_min,
            canvas_fixed_mean,
            out_separation,
            close_mean,
            far_mean,
            far_mean - close_mean,
            readout_agreement,
            readout_margin,
            float(len(defects)),
            float(len(charged)),
            defect_min,
            defect_potential,
        ),
        dtype=np.float64,
    )
    if vector.shape != (len(FEATURE_NAMES),):
        raise AssertionError("feature vector does not match FEATURE_NAMES")
    return vector
