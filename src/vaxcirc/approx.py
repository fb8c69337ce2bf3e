"""Wire-level approximation: candidate nets, chromosomes, application.

A chromosome assigns one gene per candidate net: -1 keeps the exact
driver, 0 ties the net to GND, 1 ties it to VDD.  Candidates are the nets
whose critical-path probability reaches a threshold, so edits concentrate
where timing mass lives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._compile import LogicProgram
from .netlist import CONSTANT_NETS, FOLD_TABLE, GND, VDD, Gate, Netlist
from .netlist import netlist_fingerprint, simplify_constants
from .timing import SstaResult

GENE_EXACT = -1
GENE_GND = 0
GENE_VDD = 1


class ChromosomeError(Exception):
    """Chromosome/netlist mismatch or malformed gene data."""


@dataclass(frozen=True)
class CandidateSet:
    """Ordered approximation sites for one baseline netlist."""

    nets: tuple[str, ...]
    cpb_threshold: float
    fingerprint: str

    def __len__(self):
        return len(self.nets)


def build_candidates(
    n: Netlist, ssta: SstaResult, cpb_threshold: float = 1e-3
) -> CandidateSet:
    """Nets with CPB >= threshold, ordered by falling CPB then name.

    PI nets are eligible (tying one is precision scaling; the input stays
    declared), gate outputs are eligible (pruning); GND/VDD are not nets
    you can approximate.
    """
    if not (0.0 < cpb_threshold <= 1.0):
        raise ChromosomeError(f"cpb_threshold {cpb_threshold} outside (0, 1]")
    picked = [
        (p, net)
        for net, p in ssta.cpb.items()
        if p >= cpb_threshold and net not in CONSTANT_NETS
    ]
    picked.sort(key=lambda t: (-t[0], t[1]))
    return CandidateSet(
        tuple(net for _, net in picked), cpb_threshold, netlist_fingerprint(n)
    )


def exact_chromosome(cs: CandidateSet) -> np.ndarray:
    return np.full(len(cs), GENE_EXACT, dtype=np.int8)


def validate_genes(cs: CandidateSet, genes) -> np.ndarray:
    genes = np.asarray(genes, dtype=np.int8)
    if genes.shape != (len(cs),):
        raise ChromosomeError(
            f"chromosome length {genes.shape} does not match {len(cs)} candidates"
        )
    if not np.all(np.isin(genes, (-1, 0, 1))):
        raise ChromosomeError("genes must be -1, 0 or 1")
    return genes


def require_fingerprint(n: Netlist, cs: CandidateSet):
    """Refuse a netlist other than the one `cs` was built for."""
    if netlist_fingerprint(n) != cs.fingerprint:
        raise ChromosomeError(
            "candidate set was built for a different netlist (fingerprint mismatch)"
        )


def tie_nets(n: Netlist, tie: dict[str, str]) -> Netlist:
    """Rewire every reader of each net in `tie`, and any PO on it, to the
    net's constant (GND or VDD), then fold the result."""
    gates = [
        Gate(g.name, g.kind, {p: tie.get(w, w) for p, w in g.fanin.items()}, g.output)
        for g in n.gates
    ]
    outputs = [tie.get(po, po) for po in n.outputs]
    return simplify_constants(Netlist(n.name, n.inputs, outputs, gates))


def apply_chromosome(
    n: Netlist, cs: CandidateSet, genes, check_fingerprint: bool = True
) -> Netlist:
    """Tie each non-exact gene's net to its constant and fold the result.

    Refuses to run against a netlist whose fingerprint differs from the one
    the candidate set was built for, unless check_fingerprint is cleared
    (used for effect-level idempotence checks on already-approximate nets).
    """
    genes = validate_genes(cs, genes)
    if check_fingerprint:
        require_fingerprint(n, cs)
    tie = {
        net: (VDD if gene == GENE_VDD else GND)
        for net, gene in zip(cs.nets, genes)
        if gene != GENE_EXACT
    }
    return tie_nets(n, tie) if tie else n


@dataclass
class Fold:
    """What `apply_chromosome` makes of one chromosome, over the baseline's
    `compile_logic` rows (row 0 is GND, row 1 VDD, gate rows follow the
    PIs in topological order)."""

    alias: list[int]  # per row: GND 0, VDD 1, the upstream row it forwards, or itself
    cone: list[int]  # kept gates the fold visited, topological
    cone_fanins: list[list[int]]  # their aliased fanin rows, in pin order
    dropped: list[int]  # tied nets' drivers, then the gates folded away


class TieFold:
    """The tie fold of `apply_chromosome` as one pass over compiled rows.

    Calling it with a validated chromosome gives the `Fold` of that
    chromosome: each tied net aliases its constant, and each gate, in
    topological order, is folded by `netlist.FOLD_TABLE` to a constant or
    to one of its aliased fanins, or kept.  The pass visits only the
    fanout of the tied nets and, once any net is tied, of the baseline's
    own GND/VDD readers, since `simplify_constants` folds those too.  A
    gate it does not visit is kept with its baseline fanins.  A tied net's
    driver is dropped whether or not the pass visits it.
    """

    def __init__(self, p: LogicProgram, cs: CandidateSet):
        require_fingerprint(p.netlist, cs)
        gates = p.netlist.topological_order()
        self.first_gate = 2 + len(p.netlist.inputs)  # row of the first gate output
        self._fanins = [
            tuple(p.signal_index[g.fanin[pin]] for pin in g.cell.input_pins)
            for g in gates
        ]
        self._folds = [FOLD_TABLE[g.kind] for g in gates]
        self._outs = p.out.tolist()
        self._readers: list[list[int]] = [[] for _ in range(p.n_signals)]
        for gi, fanin in enumerate(self._fanins):
            for row in set(fanin):
                self._readers[row].append(gi)
        self._const_readers = sorted(set(self._readers[0]) | set(self._readers[1]))
        self._cand_rows = np.array([p.signal_index[w] for w in cs.nets], np.int64)

    def __call__(self, genes: np.ndarray) -> Fold:
        alias = list(range(len(self._readers)))
        dirty = bytearray(len(self._fanins))
        hot = np.flatnonzero(genes != GENE_EXACT)
        tied = self._cand_rows[hot].tolist()
        # a GND gene (0) and a VDD gene (1) are also the GND and VDD rows
        for row, const in zip(tied, genes[hot].tolist()):
            alias[row] = const
            for gi in self._readers[row]:
                dirty[gi] = 1
        if tied:
            for gi in self._const_readers:
                dirty[gi] = 1
        dropped = [row - self.first_gate for row in tied if row >= self.first_gate]

        cone: list[int] = []
        cone_fanins: list[list[int]] = []
        for gi, fanin in enumerate(self._fanins):
            if not dirty[gi]:
                continue
            out = self._outs[gi]
            if alias[out] != out:
                continue  # a tied net's driver, dropped above
            for reader in self._readers[out]:
                dirty[reader] = 1
            rows = [alias[r] for r in fanin]
            target = self._folds[gi][tuple([r if r < 2 else 2 for r in rows])]
            if target is None:
                cone.append(gi)
                cone_fanins.append(rows)
            else:
                alias[out] = (0, 1, *rows)[target]
                dropped.append(gi)
        return Fold(alias, cone, cone_fanins, dropped)


def chromosome_distance(a, b) -> int:
    a = np.asarray(a, dtype=np.int8)
    b = np.asarray(b, dtype=np.int8)
    if a.shape != b.shape:
        raise ChromosomeError("chromosomes differ in length")
    return int(np.count_nonzero(a != b))


def format_chromosome(cs: CandidateSet, genes) -> str:
    """Text form: fingerprint header line, then comma-separated genes."""
    genes = validate_genes(cs, genes)
    return (
        f"fingerprint {cs.fingerprint}\n"
        + ",".join(str(int(g)) for g in genes)
        + "\n"
    )


def parse_chromosome(text: str, cs: CandidateSet) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2 or not lines[0].startswith("fingerprint "):
        raise ChromosomeError("expected a fingerprint header and one gene line")
    fp = lines[0].split(None, 1)[1].strip()
    if fp != cs.fingerprint:
        raise ChromosomeError("chromosome was saved for a different netlist")
    try:
        genes = np.array([int(t) for t in lines[1].split(",")], dtype=np.int8)
    except ValueError as e:
        raise ChromosomeError(f"bad gene value: {e}") from e
    return validate_genes(cs, genes)


def save_chromosome(path, cs: CandidateSet, genes):
    with open(path, "w") as f:
        f.write(format_chromosome(cs, genes))


def load_chromosome(path, cs: CandidateSet) -> np.ndarray:
    """Load genes saved for the same candidate set; refuses a mismatch."""
    with open(path) as f:
        return parse_chromosome(f.read(), cs)
