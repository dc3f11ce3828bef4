"""Logic network substrate (mockturtle substitute).

Provides truth tables, XOR-AND-inverter graphs (XAGs) with structural
hashing, generic technology netlists, simulation, Verilog I/O and the
built-in benchmark suite used by the paper's evaluation.
"""

from repro.networks.truth_table import TruthTable
from repro.networks.xag import Xag, Signal
from repro.networks.logic_network import GateType, LogicNetwork
from repro.networks.benchmarks import (
    BENCHMARK_NAMES,
    FONTES18_NAMES,
    TABLE1_NAMES,
    TRINDADE16_NAMES,
    benchmark_network,
    benchmark_verilog,
)

__all__ = [
    "TruthTable",
    "Xag",
    "Signal",
    "GateType",
    "LogicNetwork",
    "BENCHMARK_NAMES",
    "TRINDADE16_NAMES",
    "FONTES18_NAMES",
    "TABLE1_NAMES",
    "benchmark_network",
    "benchmark_verilog",
]
