"""Gate-level combinational netlists: cell kinds, parsing, validation, rewrites.

A netlist is a DAG of single-output gates over named nets. Net names are
plain identifiers; ``GND`` and ``VDD`` are reserved constant nets that no
gate may drive.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from ._kernels import OP_CODES

GND = "GND"
VDD = "VDD"
CONSTANT_NETS = frozenset((GND, VDD))

POSITIVE = "positive"
NEGATIVE = "negative"
NON_UNATE = "non_unate"


class NetlistError(Exception):
    """Structural problem in a netlist (drivers, cycles, bad references)."""


class ParseError(NetlistError):
    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class CellKind:
    """A combinational cell: ordered input pins, per-pin unateness, function."""

    name: str
    input_pins: tuple[str, ...]
    unateness: tuple[str, ...]  # aligned with input_pins

    def evaluate(self, values: dict[str, int]) -> int:
        return _CELL_FUNCS[self.name](values)


def _mux(v):
    return v["B"] if v["S"] else v["A"]


_CELL_FUNCS = {
    "INV": lambda v: 1 - v["A"],
    "BUF": lambda v: v["A"],
    "NAND2": lambda v: 1 - (v["A"] & v["B"]),
    "NOR2": lambda v: 1 - (v["A"] | v["B"]),
    "AND2": lambda v: v["A"] & v["B"],
    "OR2": lambda v: v["A"] | v["B"],
    "XOR2": lambda v: v["A"] ^ v["B"],
    "XNOR2": lambda v: 1 - (v["A"] ^ v["B"]),
    "MUX2": _mux,
}

CELLS: dict[str, CellKind] = {
    "INV": CellKind("INV", ("A",), (NEGATIVE,)),
    "BUF": CellKind("BUF", ("A",), (POSITIVE,)),
    "NAND2": CellKind("NAND2", ("A", "B"), (NEGATIVE, NEGATIVE)),
    "NOR2": CellKind("NOR2", ("A", "B"), (NEGATIVE, NEGATIVE)),
    "AND2": CellKind("AND2", ("A", "B"), (POSITIVE, POSITIVE)),
    "OR2": CellKind("OR2", ("A", "B"), (POSITIVE, POSITIVE)),
    "XOR2": CellKind("XOR2", ("A", "B"), (NON_UNATE, NON_UNATE)),
    "XNOR2": CellKind("XNOR2", ("A", "B"), (NON_UNATE, NON_UNATE)),
    "MUX2": CellKind("MUX2", ("A", "B", "S"), (POSITIVE, POSITIVE, NON_UNATE)),
}


@dataclass(frozen=True)
class Gate:
    """One cell instance: unique name, kind, pin->net fanin map, output net."""

    name: str
    kind: str
    fanin: dict[str, str]
    output: str

    @property
    def cell(self) -> CellKind:
        return CELLS[self.kind]

    def key(self):
        return (self.name, self.kind, tuple(sorted(self.fanin.items())), self.output)


def _check_name(token: str, what: str):
    """Refuse an empty name, or one holding whitespace, '=' or '#'."""
    if token.split() != [token] or "=" in token or "#" in token:
        raise NetlistError(f"invalid {what} name {token!r}")


class Netlist:
    """An immutable, validated combinational netlist.

    Validation on construction: unique PI and gate names, reserved nets
    undriven, single driver per net, every read net driven, acyclic.
    The topological order (gate-name tiebreak) is computed once and cached.
    """

    def __init__(self, name: str, inputs, outputs, gates):
        self.name = str(name)
        self.inputs: tuple[str, ...] = tuple(inputs)
        self.outputs: tuple[str, ...] = tuple(outputs)
        self.gates: tuple[Gate, ...] = tuple(gates)
        _check_name(self.name, "circuit")
        self._validate()

    def _validate(self):
        if len(set(self.inputs)) != len(self.inputs):
            raise NetlistError(f"duplicate primary input in {sorted(self.inputs)}")
        for pi in self.inputs:
            _check_name(pi, "input")
            if pi in CONSTANT_NETS:
                raise NetlistError(f"primary input uses reserved net {pi!r}")

        driver: dict[str, Gate] = {}
        names = set()
        for g in self.gates:
            _check_name(g.name, "gate")
            if g.name in names:
                raise NetlistError(f"duplicate gate name {g.name!r}")
            names.add(g.name)
            cell = CELLS.get(g.kind)
            if cell is None:
                raise NetlistError(f"gate {g.name!r}: unknown cell kind {g.kind!r}")
            if tuple(sorted(g.fanin)) != tuple(sorted(cell.input_pins)):
                raise NetlistError(
                    f"gate {g.name!r}: pins {sorted(g.fanin)} do not match "
                    f"{g.kind} pins {sorted(cell.input_pins)}"
                )
            _check_name(g.output, "net")
            if g.output in CONSTANT_NETS:
                raise NetlistError(f"gate {g.name!r} drives reserved net {g.output!r}")
            if g.output in self.inputs:
                raise NetlistError(f"gate {g.name!r} drives primary input {g.output!r}")
            if g.output in driver:
                raise NetlistError(
                    f"net {g.output!r} has multiple drivers "
                    f"({driver[g.output].name!r} and {g.name!r})"
                )
            driver[g.output] = g

        driven = set(self.inputs) | CONSTANT_NETS | set(driver)
        for g in self.gates:
            for pin, net in g.fanin.items():
                if net not in driven:
                    raise NetlistError(
                        f"gate {g.name!r} pin {pin} reads undriven net {net!r}"
                    )
        for po in self.outputs:
            if po not in driven:
                raise NetlistError(f"primary output {po!r} is undriven")

        self._driver = driver
        self._topo = self._toposort()
        self._fingerprint = None  # `netlist_fingerprint`, once asked for

    def _toposort(self) -> tuple[Gate, ...]:
        # Kahn's algorithm; ready set is a heap of gate names so the order
        # is deterministic for a given structure.
        by_name = {g.name: g for g in self.gates}
        missing = {}
        waiting: dict[str, list[str]] = {}
        for g in self.gates:
            deps = {
                self._driver[net].name
                for net in g.fanin.values()
                if net in self._driver
            }
            missing[g.name] = len(deps)
            for d in deps:
                waiting.setdefault(d, []).append(g.name)
        ready = [n for n, c in missing.items() if c == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            n = heapq.heappop(ready)
            order.append(by_name[n])
            for w in waiting.get(n, ()):
                missing[w] -= 1
                if missing[w] == 0:
                    heapq.heappush(ready, w)
        if len(order) != len(self.gates):
            stuck = sorted(n for n, c in missing.items() if c > 0)
            raise NetlistError(f"combinational cycle through gates {stuck}")
        return tuple(order)

    # -- queries ----------------------------------------------------------

    def topological_order(self) -> tuple[Gate, ...]:
        return self._topo

    def driver_of(self, net: str):
        """Gate driving `net`, or None for PIs and constants."""
        return self._driver.get(net)

    @property
    def nets(self) -> tuple[str, ...]:
        seen = list(self.inputs)
        seen.extend(g.output for g in self.gates)
        return tuple(seen)

    def __eq__(self, other):
        if not isinstance(other, Netlist):
            return NotImplemented
        return (
            self.name == other.name
            and self.inputs == other.inputs
            and self.outputs == other.outputs
            and sorted(g.key() for g in self.gates)
            == sorted(g.key() for g in other.gates)
        )

    def __hash__(self):
        return hash((self.name, self.inputs, self.outputs, len(self.gates)))

    def __repr__(self):
        return (
            f"Netlist({self.name!r}, {len(self.inputs)} PI, "
            f"{len(self.outputs)} PO, {len(self.gates)} gates)"
        )


# -- text format ------------------------------------------------------------


def parse_netlist(text: str) -> Netlist:
    """Parse the line-based netlist format.

    Lines: ``circuit <name>``, ``input <net>...``, ``output <net>...``,
    ``gate <inst> <KIND> <PIN>=<net>... Y=<net>``, ``end``.  ``#`` starts a
    comment.  input/output lines are repeatable and accumulate in order.
    """
    name = None
    inputs: list[str] = []
    outputs: list[str] = []
    gates: list[Gate] = []
    ended = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise ParseError("content after 'end'", line_no)
        tokens = line.split()
        kw = tokens[0]
        if kw == "circuit":
            if name is not None:
                raise ParseError("duplicate 'circuit' line", line_no)
            if len(tokens) != 2:
                raise ParseError("'circuit' takes exactly one name", line_no)
            name = tokens[1]
        elif name is None:
            raise ParseError("expected 'circuit <name>' first", line_no)
        elif kw == "input":
            if len(tokens) < 2:
                raise ParseError("'input' needs at least one net", line_no)
            inputs.extend(tokens[1:])
        elif kw == "output":
            if len(tokens) < 2:
                raise ParseError("'output' needs at least one net", line_no)
            outputs.extend(tokens[1:])
        elif kw == "gate":
            if len(tokens) < 4:
                raise ParseError("'gate' needs instance, kind and pins", line_no)
            inst, kind = tokens[1], tokens[2]
            cell = CELLS.get(kind)
            if cell is None:
                raise ParseError(f"unknown cell kind {kind!r}", line_no)
            fanin: dict[str, str] = {}
            out = None
            for tok in tokens[3:]:
                if "=" not in tok:
                    raise ParseError(f"expected PIN=net, got {tok!r}", line_no)
                pin, _, net = tok.partition("=")
                if not net:
                    raise ParseError(f"empty net in {tok!r}", line_no)
                if pin == "Y":
                    if out is not None:
                        raise ParseError("duplicate Y= on gate", line_no)
                    out = net
                elif pin in cell.input_pins:
                    if pin in fanin:
                        raise ParseError(f"duplicate pin {pin} on gate", line_no)
                    fanin[pin] = net
                else:
                    raise ParseError(f"{kind} has no pin {pin!r}", line_no)
            if out is None:
                raise ParseError("gate is missing Y=<net>", line_no)
            if set(fanin) != set(cell.input_pins):
                missing = sorted(set(cell.input_pins) - set(fanin))
                raise ParseError(f"gate is missing pins {missing}", line_no)
            gates.append(Gate(inst, kind, fanin, out))
        elif kw == "end":
            if len(tokens) != 1:
                raise ParseError("'end' takes no arguments", line_no)
            ended = True
        else:
            raise ParseError(f"unknown keyword {kw!r}", line_no)
    if name is None:
        raise ParseError("empty netlist: no 'circuit' line")
    if not ended:
        raise ParseError("missing 'end'")
    return Netlist(name, inputs, outputs, gates)


def _decl_lines(kw: str, nets, per_line: int = 16) -> list[str]:
    lines = []
    for i in range(0, len(nets), per_line):
        lines.append(f"{kw} " + " ".join(nets[i : i + per_line]))
    return lines


def write_netlist(n: Netlist) -> str:
    """Serialize to the canonical text form; parse(write(n)) == n."""
    lines = [f"circuit {n.name}"]
    lines.extend(_decl_lines("input", n.inputs))
    lines.extend(_decl_lines("output", n.outputs))
    for g in n.gates:
        pins = " ".join(f"{p}={g.fanin[p]}" for p in g.cell.input_pins)
        lines.append(f"gate {g.name} {g.kind} {pins} Y={g.output}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def netlist_fingerprint(n: Netlist) -> str:
    """sha256 hex digest of the canonical text form, cached on the netlist."""
    if n._fingerprint is None:
        n._fingerprint = hashlib.sha256(write_netlist(n).encode("ascii")).hexdigest()
    return n._fingerprint


# -- rewrites ----------------------------------------------------------------


_CONST_VALUE = {GND: 0, VDD: 1}  # a constant net's logic value


def _fold_target(g: Gate, fanin: dict[str, str]):
    """Replacement net for a gate under constant fanins, or None to keep it.

    Returns a net name: a constant net when the function collapses, or an
    input net for identity-style rules.  Gates left computing a complement
    (e.g. NAND2 with one VDD pin) are kept as-is: rewiring them through
    other logic could create new timing paths.
    """
    kind = g.kind
    consts = {p: _CONST_VALUE.get(w) for p, w in fanin.items()}
    if all(v is not None for v in consts.values()):
        return VDD if CELLS[kind].evaluate(consts) else GND
    if kind == "AND2" or kind == "NAND2":
        for p, q in (("A", "B"), ("B", "A")):
            if consts[p] == 0:
                return GND if kind == "AND2" else VDD
            if consts[p] == 1 and kind == "AND2":
                return fanin[q]
    elif kind == "OR2" or kind == "NOR2":
        for p, q in (("A", "B"), ("B", "A")):
            if consts[p] == 1:
                return VDD if kind == "OR2" else GND
            if consts[p] == 0 and kind == "OR2":
                return fanin[q]
    elif kind == "XOR2":
        for p, q in (("A", "B"), ("B", "A")):
            if consts[p] == 0:
                return fanin[q]
    elif kind == "XNOR2":
        for p, q in (("A", "B"), ("B", "A")):
            if consts[p] == 1:
                return fanin[q]
    elif kind == "MUX2":
        if consts["S"] == 0:
            return fanin["A"]
        if consts["S"] == 1:
            return fanin["B"]
        if consts["A"] is not None and consts["A"] == consts["B"]:
            return VDD if consts["A"] else GND
    return None  # e.g. a BUF of a live net


def _fold_table(kind: str) -> np.ndarray:
    """`_fold_target` tabulated over every constant pattern of `kind`.

    Entry c0 + 3 c1 + 9 c2 is for the pattern whose pin k, in pin order,
    has code c_k: 0 for GND, 1 for VDD, 2 for a live net, and 0 for a pin
    the kind lacks.  Its value is -1 when the gate is kept, 0 or 1 when it
    collapses to GND or VDD, and 2 + k when it forwards the net on pin k.
    The rules look only at which pins are constant, so the table covers
    every gate of the kind.
    """
    pins = CELLS[kind].input_pins
    nets = (GND, VDD) + pins  # a live pin reads a net named after the pin
    table = np.full(27, -1, dtype=np.int8)
    for pattern in itertools.product((0, 1, 2), repeat=len(pins)):
        fanin = {p: nets[c] if c < 2 else p for p, c in zip(pins, pattern)}
        target = _fold_target(Gate("g", kind, fanin, "y"), fanin)
        if target is not None:
            table[sum(c * 3**k for k, c in enumerate(pattern))] = nets.index(target)
    return table


# per `_kernels` op code: its cell kind, that kind's pin count, and its `_fold_table`
OP_KINDS = tuple(sorted(OP_CODES, key=OP_CODES.get))
PIN_COUNT = np.array([len(CELLS[kind].input_pins) for kind in OP_KINDS], dtype=np.int64)
FOLD_TABLE = np.stack([_fold_table(kind) for kind in OP_KINDS])


def simplify_constants(n: Netlist) -> Netlist:
    """Fold constant fanins, then drop dead gates; one pass each.

    The forward pass visits gates in topological order, so each gate sees
    the final replacements of its fanins.  Dropping dead gates changes no
    live gate's fanins, so the result is a fixed point: no gate in it could
    be replaced by a constant or by one of its own fanins under the rules
    above, and every gate reaches a PO.  PI/PO interface is preserved;
    output nets may be renamed to constants or upstream nets.  For any
    non-negative delay assignment the longest-path arrival never increases:
    rewrites only delete gates or shortcut nets, so every surviving
    input-to-output path existed before.
    """
    sub: dict[str, str] = {}
    kept: list[Gate] = []
    for g in n.topological_order():
        fanin = {p: sub.get(w, w) for p, w in g.fanin.items()}
        target = _fold_target(g, fanin)
        if target is None:
            kept.append(Gate(g.name, g.kind, fanin, g.output))
        else:
            sub[g.output] = target

    outputs = [sub.get(po, po) for po in n.outputs]
    needed = set(outputs)
    live: list[Gate] = []
    for g in reversed(kept):
        if g.output in needed:
            needed.update(g.fanin.values())
            live.append(g)
    return Netlist(n.name, n.inputs, outputs, live[::-1])


def depth_to_output(n: Netlist) -> dict[str, int]:
    """Min gate count from each net to any PO; PO nets are depth 0.

    Nets with no path to a PO (and the constant nets) are absent.
    """
    depth: dict[str, int] = {}
    for po in n.outputs:
        if po not in CONSTANT_NETS:
            depth[po] = 0
    for g in reversed(n.topological_order()):
        d_out = depth.get(g.output)
        if d_out is None:
            continue
        for w in g.fanin.values():
            if w in CONSTANT_NETS:
                continue
            d = d_out + 1
            if d < depth.get(w, d + 1):
                depth[w] = d
    return depth
