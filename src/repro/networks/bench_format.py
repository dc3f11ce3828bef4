"""ISCAS BENCH format reader and writer.

BENCH is the classic netlist format of the ISCAS benchmark suites (the
``c17`` circuit of Table 1 was originally published in this form).
Supported operators: AND, NAND, OR, NOR, XOR, XNOR, NOT, BUF with
arbitrary arity where associative.
"""

from __future__ import annotations

import re

from repro.networks.xag import Signal, Xag, is_complemented, signal_node, XagNodeKind


class BenchError(ValueError):
    """Raised on malformed BENCH input."""


_LINE_RE = re.compile(
    r"^\s*(?P<out>[\w.\[\]]+)\s*=\s*(?P<op>\w+)\s*\((?P<args>[^)]*)\)\s*$"
)
_IO_RE = re.compile(r"^\s*(INPUT|OUTPUT)\s*\(\s*([\w.\[\]]+)\s*\)\s*$", re.I)


def parse_bench(text: str, name: str = "bench") -> Xag:
    """Parse a BENCH netlist into an XAG."""
    inputs: list[str] = []
    outputs: list[str] = []
    definitions: dict[str, tuple[str, list[str]]] = {}

    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        io_match = _IO_RE.match(line)
        if io_match:
            keyword, net = io_match.group(1).upper(), io_match.group(2)
            (inputs if keyword == "INPUT" else outputs).append(net)
            continue
        gate_match = _LINE_RE.match(line)
        if not gate_match:
            raise BenchError(f"cannot parse line: {raw_line!r}")
        args = [a.strip() for a in gate_match.group("args").split(",") if a.strip()]
        definitions[gate_match.group("out")] = (
            gate_match.group("op").upper(),
            args,
        )

    xag = Xag(name)
    signals: dict[str, Signal] = {n: xag.create_pi(n) for n in inputs}
    resolving: set[str] = set()

    def resolve(net: str) -> Signal:
        if net in signals:
            return signals[net]
        if net not in definitions:
            raise BenchError(f"undefined net {net!r}")
        if net in resolving:
            raise BenchError(f"combinational cycle through {net!r}")
        resolving.add(net)
        operator, args = definitions[net]
        operands = [resolve(a) for a in args]
        signals[net] = _apply(xag, operator, operands)
        resolving.discard(net)
        return signals[net]

    for net in outputs:
        xag.create_po(resolve(net), net)
    return xag


def _apply(xag: Xag, operator: str, operands: list[Signal]) -> Signal:
    if operator in ("NOT", "BUF", "BUFF"):
        if len(operands) != 1:
            raise BenchError(f"{operator} expects one operand")
        return operands[0] ^ (operator == "NOT")
    if len(operands) < 2:
        raise BenchError(f"{operator} expects at least two operands")
    combine = {
        "AND": xag.create_and,
        "NAND": xag.create_and,
        "OR": xag.create_or,
        "NOR": xag.create_or,
        "XOR": xag.create_xor,
        "XNOR": xag.create_xor,
    }.get(operator)
    if combine is None:
        raise BenchError(f"unknown operator {operator!r}")
    signal = operands[0]
    for other in operands[1:]:
        signal = combine(signal, other)
    if operator in ("NAND", "NOR", "XNOR"):
        signal ^= 1
    return signal


def write_bench(xag: Xag) -> str:
    """Serialize an XAG in BENCH format (NOT gates made explicit)."""
    lines = []
    used: set[str] = set()

    def unique(name: str) -> str:
        candidate = name
        suffix = 0
        while candidate in used:
            suffix += 1
            candidate = f"{name}_{suffix}"
        used.add(candidate)
        return candidate

    net_of: dict[int, str] = {}
    for index, pi in enumerate(xag.pis()):
        net = unique(xag.pi_name(pi) or f"pi{index}")
        net_of[pi] = net
        lines.append(f"INPUT({net})")
    output_names = [
        unique(xag.po_name(i) or f"po{i}") for i in range(xag.num_pos)
    ]
    for net in output_names:
        lines.append(f"OUTPUT({net})")

    body: list[str] = []
    inverted: dict[int, str] = {}

    def literal(signal: Signal) -> str:
        node = signal_node(signal)
        if node == 0:
            # Model constants as x NAND/ AND with itself is unavailable in
            # BENCH; emit via an input-free convention instead.
            raise BenchError("constant signals are not expressible in BENCH")
        if not is_complemented(signal):
            return net_of[node]
        if node not in inverted:
            inverted[node] = unique(f"{net_of[node]}_not")
            body.append(f"{inverted[node]} = NOT({net_of[node]})")
        return inverted[node]

    for node in xag.gates():
        f0, f1 = xag.fanins(node)
        operator = "AND" if xag.kind(node) is XagNodeKind.AND else "XOR"
        left, right = literal(f0), literal(f1)
        net_of[node] = unique(f"n{node}")
        body.append(f"{net_of[node]} = {operator}({left}, {right})")

    for index, po in enumerate(xag.pos()):
        body.append(f"{output_names[index]} = BUF({literal(po)})")
    return "\n".join(lines + body) + "\n"
