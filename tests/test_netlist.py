import numpy as np
import pytest

from vaxcirc.celllib import default_library, nominal_library
from vaxcirc.errsim import Evaluator, generate_dataset
from vaxcirc.netlist import (
    GND,
    VDD,
    Gate,
    Netlist,
    NetlistError,
    ParseError,
    depth_to_output,
    netlist_fingerprint,
    parse_netlist,
    simplify_constants,
    write_netlist,
)
from vaxcirc.timing import sta_arrivals

from _oracles import random_dag

MINIMAL = """
circuit tiny
input a
output y
gate g INV A=a Y=y
end
"""


def _chain(k, kind="INV"):
    gates = tuple(
        Gate(f"g{i}", kind, {"A": "a" if i == 0 else f"n{i - 1}"}, f"n{i}")
        for i in range(k)
    )
    return Netlist("chain", ("a",), (f"n{k - 1}",), gates)


class TestParse:
    def test_minimal_single_gate(self):
        n = parse_netlist(MINIMAL)
        assert n.name == "tiny"
        assert n.inputs == ("a",)
        assert n.outputs == ("y",)
        assert len(n.gates) == 1
        assert n.gates[0].kind == "INV"

    def test_undriven_fanin_rejected(self):
        with pytest.raises(NetlistError, match="missing"):
            parse_netlist(MINIMAL.replace("A=a", "A=missing"))

    def test_unknown_cell_rejected(self):
        with pytest.raises(ParseError, match="NAND9"):
            parse_netlist(MINIMAL.replace("INV", "NAND9"))

    def test_syntax_error_reports_line(self):
        bad = "circuit t\ninput a\noutput y\ngate g INV A=a\nend\n"
        with pytest.raises(ParseError) as exc:
            parse_netlist(bad)
        assert exc.value.line_no == 4

    def test_cycle_rejected(self):
        text = """
circuit loop
input a
output y
gate g1 AND2 A=a B=y2 Y=y
gate g2 BUF A=y Y=y2
end
"""
        with pytest.raises(NetlistError, match="cycle"):
            parse_netlist(text)

    def test_multiple_drivers_rejected(self):
        text = MINIMAL.replace("end", "gate g2 BUF A=a Y=y\nend")
        with pytest.raises(NetlistError):
            parse_netlist(text)

    def test_comments_and_repeat_decls(self):
        text = """
# header comment
circuit c
input a   # trailing comment
input b
output y
gate g AND2 A=a B=b Y=y
end
"""
        n = parse_netlist(text)
        assert n.inputs == ("a", "b")

    def test_rca8_structure(self, rca8):
        # 8 full-adder slices over XOR2/NAND2, 16 PIs + carry-in, 9 POs
        assert len(rca8.inputs) == 17
        assert len(rca8.outputs) == 9
        assert len(rca8.gates) == 8 * (len(rca8.gates) // 8)
        per_slice = len(rca8.gates) // 8
        assert len(rca8.gates) == 8 * per_slice
        assert {g.kind for g in rca8.gates} <= {"XOR2", "NAND2"}


class TestValidation:
    def test_reserved_net_drive_rejected(self):
        with pytest.raises(NetlistError):
            Netlist("c", ("a",), (GND,), (Gate("g", "INV", {"A": "a"}, GND),))

    def test_pi_driven_by_gate_rejected(self):
        with pytest.raises(NetlistError):
            Netlist("c", ("a",), ("a",), (Gate("g", "INV", {"A": "a"}, "a"),))

    def test_duplicate_gate_names_rejected(self):
        g1 = Gate("g", "INV", {"A": "a"}, "x")
        g2 = Gate("g", "INV", {"A": "a"}, "y")
        with pytest.raises(NetlistError):
            Netlist("c", ("a",), ("y",), (g1, g2))

    def test_wrong_pins_rejected(self):
        with pytest.raises(NetlistError):
            Netlist("c", ("a",), ("y",), (Gate("g", "AND2", {"A": "a"}, "y"),))

    def test_undriven_po_rejected(self):
        with pytest.raises(NetlistError, match="undriven"):
            Netlist("c", ("a",), ("zz",), (Gate("g", "INV", {"A": "a"}, "y"),))

    @pytest.mark.parametrize("bad", ["", "a\tb", "a\u00a0b", "a=b", "a#b"])
    def test_invalid_gate_and_net_names_rejected(self, bad):
        with pytest.raises(NetlistError, match="invalid gate name"):
            Netlist("c", ("a",), ("y",), (Gate(bad, "INV", {"A": "a"}, "y"),))
        with pytest.raises(NetlistError, match="invalid net name"):
            Netlist("c", ("a",), (bad,), (Gate("g", "INV", {"A": "a"}, bad),))
        Netlist("c", ("a",), ("y[0]",), (Gate("g.0", "INV", {"A": "a"}, "y[0]"),))


class TestTopologicalOrder:
    def test_single_gate(self):
        n = parse_netlist(MINIMAL)
        assert [g.name for g in n.topological_order()] == ["g"]

    def test_chain_in_order(self):
        n = _chain(3)
        assert [g.name for g in n.topological_order()] == ["g0", "g1", "g2"]

    def test_random_dag_edges_point_forward(self):
        rng = np.random.default_rng(11)
        n = random_dag(rng, 50, n_pis=6)
        order = n.topological_order()
        pos = {g.output: i for i, g in enumerate(order)}
        for i, g in enumerate(order):
            for net in g.fanin.values():
                if net in pos:
                    assert pos[net] < i

    def test_tie_break_is_lexicographic(self):
        # two independent gates, both ready immediately
        gates = (
            Gate("zz", "INV", {"A": "a"}, "y1"),
            Gate("aa", "INV", {"A": "a"}, "y2"),
        )
        n = Netlist("c", ("a",), ("y1", "y2"), gates)
        assert [g.name for g in n.topological_order()] == ["aa", "zz"]


class TestSimplifyConstants:
    def test_and_gnd_absorbs(self):
        text = """
circuit c
input a
output y
gate g AND2 A=a B=GND Y=y
end
"""
        s = simplify_constants(parse_netlist(text))
        assert s.gates == ()
        assert s.outputs == (GND,)

    def test_xor_gnd_is_wire(self):
        text = """
circuit c
input a
output y
gate g XOR2 A=a B=GND Y=y
end
"""
        s = simplify_constants(parse_netlist(text))
        assert s.gates == ()
        assert s.outputs == ("a",)

    def test_nand_with_constant_pin_kept(self):
        # complement cases are left in place: no cell insertion, ever
        text = """
circuit c
input a
output y
gate g NAND2 A=a B=VDD Y=y
end
"""
        s = simplify_constants(parse_netlist(text))
        assert len(s.gates) == 1
        assert s.gates[0].kind == "NAND2"

    def test_mux_constant_select(self):
        text = """
circuit c
input a b
output y
gate g MUX2 A=a B=b S=VDD Y=y
end
"""
        s = simplify_constants(parse_netlist(text))
        assert s.gates == ()
        assert s.outputs == ("b",)

    def test_rca4_b0_tied_equivalent(self, rca4):
        tied = _tie_pi(rca4, "b0", GND)
        simplified = simplify_constants(tied)
        exact = Evaluator(rca4)
        approx = Evaluator(simplified)
        ds = generate_dataset(rca4, 1, seed=0, exhaustive=True)
        vectors = ds.vectors.copy()
        vectors[:, rca4.inputs.index("b0")] = 0
        want = exact(vectors)
        got = approx(vectors)
        assert np.array_equal(want, got)

    def test_fixpoint(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = random_dag(rng, 15, n_pis=4)
            tied = _tie_pi(n, n.inputs[0], VDD)
            once = simplify_constants(tied)
            twice = simplify_constants(once)
            assert once == twice

    def test_never_increases_gates_or_cpd(self, default_lib):
        rng = np.random.default_rng(6)
        lib = nominal_library(default_lib)
        for _ in range(10):
            n = random_dag(rng, 20, n_pis=4)
            tied = _tie_pi(n, n.inputs[0], GND)
            s = simplify_constants(tied)
            assert len(s.gates) <= len(tied.gates)
            assert sta_arrivals(s, lib).cpd <= sta_arrivals(tied, lib).cpd


def _tie_pi(n, pi, const):
    """Rewire every reader of a PI to a constant (PI stays declared)."""
    gates = tuple(
        Gate(
            g.name,
            g.kind,
            {p: (const if net == pi else net) for p, net in g.fanin.items()},
            g.output,
        )
        for g in n.gates
    )
    outputs = tuple(const if po == pi else po for po in n.outputs)
    return Netlist(n.name, n.inputs, outputs, gates)


class TestDepthToOutput:
    def test_po_net_zero(self):
        n = parse_netlist(MINIMAL)
        assert depth_to_output(n)["y"] == 0

    def test_feeder_is_one(self):
        n = parse_netlist(MINIMAL)
        assert depth_to_output(n)["a"] == 1

    def test_chain_depths(self):
        n = _chain(3)
        d = depth_to_output(n)
        assert (d["a"], d["n0"], d["n1"], d["n2"]) == (3, 2, 1, 0)

    def test_min_over_paths(self):
        # a feeds both a deep chain and a direct PO gate: min wins
        gates = (
            Gate("g0", "INV", {"A": "a"}, "n0"),
            Gate("g1", "INV", {"A": "n0"}, "n1"),
            Gate("g2", "BUF", {"A": "a"}, "n2"),
        )
        n = Netlist("c", ("a",), ("n1", "n2"), gates)
        assert depth_to_output(n)["a"] == 1


class TestRoundTrip:
    def test_minimal_round_trip(self):
        n = parse_netlist(MINIMAL)
        assert parse_netlist(write_netlist(n)) == n

    def test_rca8_round_trip(self, rca8):
        assert parse_netlist(write_netlist(rca8)) == rca8

    def test_constant_pin_verbatim(self):
        text = """
circuit c
input a
output y
gate g AND2 A=a B=GND Y=y
end
"""
        n = parse_netlist(text)
        assert "B=GND" in write_netlist(n)
        assert parse_netlist(write_netlist(n)) == n

    def test_fingerprint_tracks_structure(self, rca4, rca8):
        assert netlist_fingerprint(rca4) == netlist_fingerprint(rca4)
        assert netlist_fingerprint(rca4) != netlist_fingerprint(rca8)
