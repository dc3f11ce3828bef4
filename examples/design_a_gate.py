#!/usr/bin/env python3
"""Design and validate an SiDB gate with the physics engine.

Demonstrates the paper's gate-design methodology (Section 4.1) with our
automated substitute for its RL agent:

1. build a BDL wire and watch both logic values propagate through it,
   judged by the operational check every library tile goes through;
2. simulate the Y-shaped OR-gate core over all input patterns using the
   paper's close/far input-perturber refinement;
3. let the stochastic canvas designer re-discover a missing dot of a
   known-good design.

    python examples/design_a_gate.py
"""

from repro import api

S = api.LatticeSite.from_row
PARAMS = api.SiDBSimulationParameters.bestagon()
IDENTITY = api.TruthTable(1, 0b10)
OR = api.TruthTable(2, 0b1110)


def wire_demo() -> None:
    print("=== 1. BDL wire (3 pairs, pitch 6 rows) ===")
    pairs = [api.BdlPair(S(0, 6 * k), S(0, 6 * k + 2)) for k in range(3)]
    wire = api.GateUnderTest(
        body=[site for p in pairs for site in (p.site0, p.site1)] + [S(0, 18)],
        input_stimuli=[([S(0, -6)], [S(0, -2)])],
        output_pairs=pairs,
        outputs=[IDENTITY] * len(pairs),
    )
    for result in api.check_operational(wire, PARAMS).patterns:
        bit = result.pattern
        print(f"  input {bit} (perturber {'close' if bit else 'far'}) "
              f"-> pairs read {[int(bool(v)) for v in result.observed]}  "
              f"E = {result.ground_energy:.4f} eV")


def or_gate_demo() -> None:
    print("\n=== 2. Y-shaped OR-gate core, all input patterns ===")
    core = api.two_input_core(api.core_parameters("or"), OR)
    for result in api.check_operational(core, PARAMS).patterns:
        a, b = result.pattern & 1, result.pattern >> 1 & 1
        # The last output pair is the junction; the others hold the inputs.
        print(f"  ({a} OR {b}) -> {int(bool(result.observed[-1]))}")


def designer_demo() -> None:
    print("\n=== 3. Canvas designer re-discovers the hold perturber ===")
    sites, pairs = [], []
    for k in range(3):
        sites += [S(0, 6 * k), S(0, 6 * k + 2)]
        pairs.append(api.BdlPair(S(0, 6 * k), S(0, 6 * k + 2)))
    problem = api.CanvasSearchProblem(
        fixed_sites=sites,  # note: no hold perturber below the wire
        candidate_sites=[S(c, r) for c in (-2, 0, 2) for r in (16, 18, 20)],
        input_stimuli=[([S(0, -6)], [S(0, -2)])],
        output_pairs=[pairs[-1]],
        outputs=[IDENTITY],
        parameters=PARAMS,
    )
    result = api.search_canvas_design(problem, max_dots=2, iterations=80, seed=2)
    if result is None:
        print("  no design found")
        return
    canvas, correct, total = result
    print(f"  found canvas {sorted(str(s) for s in canvas)} "
          f"scoring {correct}/{total} patterns")


if __name__ == "__main__":
    wire_demo()
    or_gate_demo()
    designer_demo()
