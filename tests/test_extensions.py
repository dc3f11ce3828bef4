"""Tests for the extension modules: operational domain, BDDs, AIGs,
layout serialization and the CLI."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.coords.lattice import LatticeSite
from repro.layout.serialize import layout_from_json, layout_to_json
from repro.networks import benchmark_network
from repro.networks.aig import Aig, aig_from_xag
from repro.networks.simulation import exhaustive_equivalent
from repro.networks.truth_table import TruthTable
from repro.networks.xag import Xag
from repro.sidb.bdl import BdlPair
from repro.sidb.operational import GateUnderTest
from repro.sidb.operational_domain import compute_operational_domain
from repro.verification.bdd import (
    Bdd,
    bdd_equivalent,
    bdd_from_network,
    bdd_from_xag,
)

S = LatticeSite.from_row


class TestBddManager:
    def test_terminals(self):
        manager = Bdd(2)
        assert manager.constant(False) == Bdd.ZERO
        assert manager.constant(True) == Bdd.ONE

    def test_variable_semantics(self):
        manager = Bdd(2)
        x0 = manager.variable(0)
        assert manager.evaluate(x0, [True, False]) is True
        assert manager.evaluate(x0, [False, True]) is False

    def test_canonical_hashing(self):
        manager = Bdd(2)
        a, b = manager.variable(0), manager.variable(1)
        left = manager.apply_and(a, b)
        right = manager.apply_and(b, a)
        assert left == right

    def test_de_morgan_is_canonical(self):
        manager = Bdd(3)
        a, b = manager.variable(0), manager.variable(1)
        lhs = manager.apply_not(manager.apply_and(a, b))
        rhs = manager.apply_or(manager.apply_not(a), manager.apply_not(b))
        assert lhs == rhs

    def test_xor_count(self):
        manager = Bdd(3)
        a, b, c = (manager.variable(i) for i in range(3))
        parity = manager.apply_xor(manager.apply_xor(a, b), c)
        assert manager.count_satisfying(parity) == 4

    def test_tautology_collapses(self):
        manager = Bdd(2)
        a = manager.variable(0)
        assert manager.apply_or(a, manager.apply_not(a)) == Bdd.ONE

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 255), st.integers(0, 7))
    def test_matches_truth_table(self, bits, pattern):
        table = TruthTable(3, bits)
        manager = Bdd(3)
        node = manager.ZERO
        # Build via Shannon expansion on minterms.
        for index in range(8):
            if table.get_bit(index):
                term = manager.ONE
                for var in range(3):
                    literal = manager.variable(var)
                    if not (index >> var) & 1:
                        literal = manager.apply_not(literal)
                    term = manager.apply_and(term, literal)
                node = manager.apply_or(node, term)
        inputs = [bool(pattern >> i & 1) for i in range(3)]
        assert manager.evaluate(node, inputs) == table.get_bit(pattern)
        assert manager.count_satisfying(node) == table.count_ones()


class TestBddEquivalence:
    @pytest.mark.parametrize("name", ["c17", "mux21", "cm82a_5", "newtag"])
    def test_xag_self_equivalence(self, name):
        xag = benchmark_network(name)
        assert bdd_equivalent(xag, xag.cleanup())

    def test_detects_inequivalence(self):
        assert not bdd_equivalent(
            benchmark_network("xor2"), benchmark_network("xnor2")
        )

    def test_agrees_with_sat_miter(self):
        from repro.verification import check_equivalence

        a = benchmark_network("xor5_r1")
        b = benchmark_network("xor5_majority")
        assert bdd_equivalent(a, b) == check_equivalence(a, b).equivalent

    def test_network_route(self):
        from repro.synthesis import map_to_bestagon

        xag = benchmark_network("par_check")
        network = map_to_bestagon(xag)
        manager, outputs = bdd_from_network(network)
        xmanager, xoutputs = bdd_from_xag(xag)
        assert manager.count_satisfying(outputs[0]) == xmanager.count_satisfying(
            xoutputs[0]
        )


class TestAig:
    def test_xor_costs_three_ands(self):
        aig = Aig()
        a, b = aig.create_pi(), aig.create_pi()
        aig.create_po(aig.create_xor(a, b))
        assert aig.num_gates == 3

    @pytest.mark.parametrize("name", ["xor5_r1", "cm82a_5", "par_check"])
    def test_conversion_preserves_function(self, name):
        xag = benchmark_network(name)
        aig = aig_from_xag(xag)
        assert exhaustive_equivalent(xag, aig)

    def test_aig_never_smaller_than_xag(self):
        for name in ("xor2", "par_check", "cm82a_5", "c17"):
            xag = benchmark_network(name)
            assert aig_from_xag(xag).num_gates >= xag.num_gates

    def test_xor_free_logic_equal_size(self):
        xag = Xag()
        a, b = xag.create_pi(), xag.create_pi()
        xag.create_po(xag.create_and(a, b))
        assert aig_from_xag(xag).num_gates == xag.num_gates


class TestOperationalDomain:
    def _wire(self):
        sites, pairs = [], []
        for k in range(3):
            sites += [S(0, 6 * k), S(0, 6 * k + 2)]
            pairs.append(BdlPair(S(0, 6 * k), S(0, 6 * k + 2)))
        sites.append(S(0, 18))
        return GateUnderTest(
            sites,
            [([S(0, -6)], [S(0, -2)])],
            [pairs[-1]],
            [TruthTable(1, 0b10)],
        )

    def test_wire_domain_contains_nominal_point(self):
        domain = compute_operational_domain(
            self._wire(), x_values=(5.6,), y_values=(5.0,)
        )
        assert domain.coverage == 1.0

    def test_extreme_screening_breaks_the_wire(self):
        domain = compute_operational_domain(
            self._wire(),
            x_values=(5.6,),
            y_values=(0.5,),  # lambda_TF = 0.5 nm: interactions vanish
        )
        assert domain.coverage == 0.0

    def test_domain_sweep_and_ascii(self):
        domain = compute_operational_domain(
            self._wire(), x_values=(5.1, 5.6), y_values=(4.0, 5.0)
        )
        assert len(domain.points) == 4
        art = domain.to_ascii()
        assert "|" in art and len(art.splitlines()) == 3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            compute_operational_domain(
                self._wire(),
                x_parameter="epsilon_r", y_parameter="epsilon_r",
            )


class TestLayoutSerialization:
    def test_roundtrip_preserves_function(self):
        from repro.physical_design import ExactPhysicalDesign
        from repro.synthesis import map_to_bestagon
        from repro.verification import check_layout_against_network

        xag = benchmark_network("mux21")
        layout = ExactPhysicalDesign().run(map_to_bestagon(xag))
        restored = layout_from_json(layout_to_json(layout))
        assert restored.width == layout.width
        assert restored.height == layout.height
        assert restored.gate_census() == layout.gate_census()
        assert check_layout_against_network(xag, restored).equivalent

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            layout_from_json('{"format": 99}')


class TestCli:
    def test_library_listing(self, capsys):
        from repro.cli import main

        assert main(["library"]) == 0
        out = capsys.readouterr().out
        assert "wire_NW_SW" in out and "and_SE" in out

    def test_synth_benchmark(self, capsys, tmp_path):
        from repro.cli import main

        sqd = tmp_path / "xor2.sqd"
        assert main(["synth", "xor2", "-o", str(sqd), "--ascii"]) == 0
        assert sqd.exists()
        out = capsys.readouterr().out
        assert "verified" in out

    def test_synth_unknown_spec(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["synth", "no_such_thing"])

    def test_bench_rows(self, capsys):
        from repro.cli import main

        assert main(["bench", "xor2"]) == 0
        assert "paper" in capsys.readouterr().out

    def test_validate_wire(self, capsys):
        from repro.cli import main

        assert main(["validate", "wire_NW_SW"]) == 0
        assert "operational" in capsys.readouterr().out
