"""Gate-level Verilog reader and writer.

The paper's flow "starts with specifications at the logic level, e.g.,
provided by gate-level Verilog" (Section 4.2, flow step 1).  This module
parses the structural/dataflow Verilog subset used by the fiction
benchmark suites into an :class:`~repro.networks.xag.Xag`:

* one module per file,
* ``input`` / ``output`` / ``wire`` declarations (scalar only),
* ``assign`` statements with ``~ & ^ | ?:`` expressions and parentheses,
* gate primitives ``not/buf/and/nand/or/nor/xor/xnor (out, in...)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.networks.xag import Signal, Xag, is_complemented, signal_node, XagNodeKind


class VerilogError(ValueError):
    """Raised on malformed Verilog input."""


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_$\[\]]*)"
    r"|(?P<const>1'b[01])"
    r"|(?P<punct>[(),;=~&^|?:])"
    r")"
)

_PRIMITIVES = {"not", "buf", "and", "nand", "or", "nor", "xor", "xnor"}
_KEYWORDS = {"module", "endmodule", "input", "output", "wire", "assign"} | _PRIMITIVES


@dataclass
class _Module:
    name: str
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    wires: list[str] = field(default_factory=list)
    # net name -> expression AST (for assigns) or ('gate', prim, fanins)
    definitions: dict[str, tuple] = field(default_factory=dict)


def _strip_comments(text: str) -> str:
    text = re.sub(r"//[^\n]*", "", text)
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.DOTALL)
    return text


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match or match.end() == pos:
            raise VerilogError(f"unexpected character at: {text[pos:pos + 20]!r}")
        token = match.group("ident") or match.group("const") or match.group("punct")
        tokens.append(token)
        pos = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise VerilogError("unexpected end of input")
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise VerilogError(f"expected {token!r}, got {got!r}")

    # --- module structure ---------------------------------------------
    def parse_module(self) -> _Module:
        self.expect("module")
        module = _Module(self.next())
        if self.peek() == "(":
            self.next()
            while self.peek() != ")":
                token = self.next()
                if token in ("input", "output", "wire", ","):
                    continue
                # port name (ANSI or non-ANSI style)
            self.expect(")")
        self.expect(";")
        while self.peek() != "endmodule":
            self._parse_item(module)
        self.expect("endmodule")
        return module

    def _parse_item(self, module: _Module) -> None:
        token = self.next()
        if token in ("input", "output", "wire"):
            names = self._parse_name_list()
            target = {
                "input": module.inputs,
                "output": module.outputs,
                "wire": module.wires,
            }[token]
            target.extend(names)
        elif token == "assign":
            net = self.next()
            if net in module.inputs:
                raise VerilogError(f"cannot assign to input {net!r}")
            self.expect("=")
            expression = self._parse_expression()
            self.expect(";")
            if net in module.definitions:
                raise VerilogError(f"net {net!r} assigned twice")
            module.definitions[net] = expression
        elif token in _PRIMITIVES:
            # optional instance name
            if self.peek() != "(":
                self.next()
            self.expect("(")
            nets = [self.next()]
            while self.peek() == ",":
                self.next()
                nets.append(self.next())
            self.expect(")")
            self.expect(";")
            out, fanins = nets[0], nets[1:]
            if out in module.definitions:
                raise VerilogError(f"net {out!r} assigned twice")
            module.definitions[out] = ("gate", token, fanins)
        else:
            raise VerilogError(f"unexpected token {token!r}")

    def _parse_name_list(self) -> list[str]:
        names = [self.next()]
        while self.peek() == ",":
            self.next()
            names.append(self.next())
        self.expect(";")
        return names

    # --- expressions (precedence: ~  &  ^  |  ?:) ----------------------
    def _parse_expression(self) -> tuple:
        condition = self._parse_or()
        if self.peek() == "?":
            self.next()
            then_branch = self._parse_expression()
            self.expect(":")
            else_branch = self._parse_expression()
            return ("ite", condition, then_branch, else_branch)
        return condition

    def _parse_or(self) -> tuple:
        left = self._parse_xor()
        while self.peek() == "|":
            self.next()
            left = ("or", left, self._parse_xor())
        return left

    def _parse_xor(self) -> tuple:
        left = self._parse_and()
        while self.peek() == "^":
            self.next()
            left = ("xor", left, self._parse_and())
        return left

    def _parse_and(self) -> tuple:
        left = self._parse_unary()
        while self.peek() == "&":
            self.next()
            left = ("and", left, self._parse_unary())
        return left

    def _parse_unary(self) -> tuple:
        token = self.peek()
        if token == "~":
            self.next()
            return ("not", self._parse_unary())
        if token == "(":
            self.next()
            inner = self._parse_expression()
            self.expect(")")
            return inner
        token = self.next()
        if token in ("1'b0", "1'b1"):
            return ("const", token.endswith("1"))
        if token in _KEYWORDS or not re.match(r"[A-Za-z_]", token):
            raise VerilogError(f"unexpected token {token!r} in expression")
        return ("net", token)


def parse_verilog(text: str, name: str | None = None) -> Xag:
    """Parse a Verilog module into an XAG."""
    tokens = _tokenize(_strip_comments(text))
    module = _Parser(tokens).parse_module()
    xag = Xag(name or module.name)

    signals: dict[str, Signal] = {}
    for input_name in module.inputs:
        signals[input_name] = xag.create_pi(input_name)

    resolving: set[str] = set()

    def resolve(net: str) -> Signal:
        if net in signals:
            return signals[net]
        if net not in module.definitions:
            raise VerilogError(f"undefined net {net!r}")
        if net in resolving:
            raise VerilogError(f"combinational cycle through {net!r}")
        resolving.add(net)
        signal = build(module.definitions[net])
        resolving.discard(net)
        signals[net] = signal
        return signal

    def build(expression: tuple) -> Signal:
        op = expression[0]
        if op == "net":
            return resolve(expression[1])
        if op == "const":
            return xag.get_constant(expression[1])
        if op == "not":
            return xag.create_not(build(expression[1]))
        if op == "ite":
            return xag.create_ite(
                build(expression[1]), build(expression[2]), build(expression[3])
            )
        if op == "gate":
            _, primitive, fanins = expression
            inputs = [resolve(f) for f in fanins]
            return _build_primitive(xag, primitive, inputs)
        left = build(expression[1])
        right = build(expression[2])
        if op == "and":
            return xag.create_and(left, right)
        if op == "or":
            return xag.create_or(left, right)
        if op == "xor":
            return xag.create_xor(left, right)
        raise VerilogError(f"unknown operator {op!r}")

    for output_name in module.outputs:
        xag.create_po(resolve(output_name), output_name)
    return xag


def _build_primitive(xag: Xag, primitive: str, inputs: list[Signal]) -> Signal:
    """Build a (possibly multi-input) Verilog gate primitive."""
    if primitive in ("not", "buf"):
        if len(inputs) != 1:
            raise VerilogError(f"{primitive} expects one input")
        return inputs[0] ^ (primitive == "not")
    if len(inputs) < 2:
        raise VerilogError(f"{primitive} expects at least two inputs")
    combine = {
        "and": xag.create_and,
        "nand": xag.create_and,
        "or": xag.create_or,
        "nor": xag.create_or,
        "xor": xag.create_xor,
        "xnor": xag.create_xor,
    }[primitive]
    signal = inputs[0]
    for other in inputs[1:]:
        signal = combine(signal, other)
    if primitive in ("nand", "nor", "xnor"):
        signal ^= 1
    return signal


def _sanitize(name: str) -> str:
    """Make a net name a legal Verilog identifier."""
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_$]*", name) and name not in _KEYWORDS:
        return name
    cleaned = re.sub(r"[^A-Za-z0-9_$]", "_", name)
    return f"g{cleaned}"


def write_verilog(xag: Xag) -> str:
    """Serialize an XAG as dataflow Verilog (assign statements)."""
    used: set[str] = set()

    def unique(name: str) -> str:
        candidate = name
        suffix = 0
        while candidate in used:
            suffix += 1
            candidate = f"{name}_{suffix}"
        used.add(candidate)
        return candidate

    input_names = [
        unique(_sanitize(xag.pi_name(pi) or f"pi{i}"))
        for i, pi in enumerate(xag.pis())
    ]
    output_names = [
        unique(_sanitize(xag.po_name(i) or f"po{i}")) for i in range(xag.num_pos)
    ]
    module_name = _sanitize(xag.name)
    lines = [f"module {module_name} ({', '.join(input_names + output_names)});"]
    if input_names:
        lines.append(f"  input {', '.join(input_names)};")
    if output_names:
        lines.append(f"  output {', '.join(output_names)};")

    net_of: dict[int, str] = {pi: name for pi, name in zip(xag.pis(), input_names)}
    gates = xag.gates()
    wire_names = {node: unique(f"n{node}") for node in gates}
    if wire_names:
        lines.append(f"  wire {', '.join(wire_names.values())};")

    def literal(signal: Signal) -> str:
        node = signal_node(signal)
        if node == 0:
            return "1'b1" if is_complemented(signal) else "1'b0"
        text = net_of[node]
        return f"~{text}" if is_complemented(signal) else text

    for node in gates:
        f0, f1 = xag.fanins(node)
        operator = "&" if xag.kind(node) is XagNodeKind.AND else "^"
        lines.append(
            f"  assign {wire_names[node]} = "
            f"{literal(f0)} {operator} {literal(f1)};"
        )
        net_of[node] = wire_names[node]

    for index, po in enumerate(xag.pos()):
        lines.append(f"  assign {output_names[index]} = {literal(po)};")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
