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
from .netlist import CONSTANT_NETS, FOLD_TABLE, GND, PIN_COUNT, VDD, Gate, Netlist
from .netlist import netlist_fingerprint, simplify_constants
from .timing import SstaResult

GENE_EXACT = -1
GENE_GND = 0
GENE_VDD = 1

# pin k's weight in a `netlist.FOLD_TABLE` pattern index
_PIN_WEIGHTS = np.array([1, 3, 9], dtype=np.int32)


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
    if genes.size and (genes.min() < -1 or genes.max() > 1):
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
class FoldBatch:
    """What `apply_chromosome` makes of each of B chromosomes, over the
    baseline's `compile_logic` rows (row 0 is GND, row 1 VDD, gate rows
    follow the PIs in topological order)."""

    # per row: GND 0, VDD 1, the upstream row it forwards, or itself
    alias: np.ndarray  # (B, rows) int32
    cone: np.ndarray  # (B, gates) bool: kept gates in the fanout of the ties
    dropped: np.ndarray  # (B, gates) bool: tied nets' drivers and the gates folded away


class TieFold:
    """The tie fold of `apply_chromosome` over compiled rows, level by level
    for a batch of chromosomes.

    Each tied net aliases its constant; then each gate is folded by
    `netlist.FOLD_TABLE` to a constant or to one of its aliased fanins, or
    kept.  The fold visits only the fanout of the tied nets and, once any
    net of a chromosome is tied, of the baseline's own GND/VDD readers,
    since `simplify_constants` folds those too.  A gate it does not visit
    is kept with its baseline fanins.  A tied net's driver is dropped
    whether or not it is visited.

    The gates are held in one schedule, in evaluation order: by logic
    level, then by op code.  Position i of the schedule is gate `order[i]`,
    with output row `out[i]`, fanin rows `fanin[i]` and the same rows in
    `readers[i]` but `n_rows` for a pin the gate lacks.  The slice
    `levels[l]` holds level l, whose gates have at most `level_pins[l]`
    pins, and no gate reads another gate of its level.
    """

    def __init__(self, p: LogicProgram, cs: CandidateSet):
        require_fingerprint(p.netlist, cs)
        self.first_gate = 2 + len(p.netlist.inputs)  # row of the first gate output
        self.n_rows = p.n_signals
        # a row's level: 0 for GND, VDD and the PIs; a pin the gate lacks reads GND
        level = [0] * self.n_rows
        for o, (a, b, c) in zip(p.out.tolist(), p.fanin.tolist()):
            level[o] = 1 + max(level[a], level[b], level[c])
        level = np.array(level, dtype=np.int64)[p.out]
        self.order = np.lexsort((p.ops, level))
        level, ops = level[self.order], p.ops[self.order]
        pins = PIN_COUNT[ops]
        self.out, self.fanin = p.out[self.order], p.fanin[self.order]
        self.readers = np.where(np.arange(3) < pins[:, None], self.fanin, self.n_rows)
        self.folds = FOLD_TABLE[ops]  # (gates, 27): the fold of each position
        new_level = np.diff(level, prepend=0) != 0  # gate levels start at 1
        starts = np.append(np.flatnonzero(new_level), len(level)).tolist()
        self.levels = [slice(lo, hi) for lo, hi in zip(starts, starts[1:])]
        self.level_pins = np.maximum.reduceat(pins, starts[:-1]).tolist()
        self._cand_rows = np.array([p.signal_index[w] for w in cs.nets], np.int64)

    def batch(self, genes: np.ndarray) -> FoldBatch:
        """The folds of validated chromosomes, one per row of `genes`."""
        n_chrom = genes.shape[0]
        alias = np.tile(np.arange(self.n_rows, dtype=np.int32), (n_chrom, 1))
        # rows whose readers the fold visits; the last column is never set
        touched = np.zeros((n_chrom, self.n_rows + 1), dtype=bool)
        b, k = np.nonzero(genes != GENE_EXACT)
        rows = self._cand_rows[k]
        # a GND gene (0) and a VDD gene (1) are also the GND and VDD rows
        alias[b, rows] = genes[b, k]
        touched[b, rows] = True
        touched[b, :2] = True  # the constants' readers fold once a net is tied
        n_gates = self.n_rows - self.first_gate
        visited = np.zeros((n_chrom, n_gates), dtype=bool)
        dropped = np.zeros((n_chrom, n_gates), dtype=bool)
        gate = rows >= self.first_gate
        dropped[b[gate], rows[gate] - self.first_gate] = True
        for lv in self.levels:
            seen = touched[:, self.readers[lv]].any(axis=2)
            if not seen.any():
                continue
            gates, out = self.order[lv], self.out[lv]
            fanin = alias[:, self.fanin[lv]]
            # a pin the gate lacks reads GND, code 0, as the table has it
            code = np.minimum(fanin, 2) @ _PIN_WEIGHTS
            target = self.folds[np.arange(lv.start, lv.stop), code]
            folded = seen & (target >= 0) & ~dropped[:, gates]
            forward = np.where(
                target == 2, fanin[..., 0], np.where(target == 3, fanin[..., 1], fanin[..., 2])
            )
            alias[:, out] = np.where(
                folded, np.where(target < 2, target, forward), alias[:, out]
            )
            dropped[:, gates] |= folded
            visited[:, gates] = seen
            touched[:, out] |= seen
        return FoldBatch(alias, visited & ~dropped, dropped)


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
    if not len(cs) and len(lines) == 1:
        lines.append("")  # the gene line of no candidates is blank
    if len(lines) != 2 or not lines[0].startswith("fingerprint "):
        raise ChromosomeError("expected a fingerprint header and one gene line")
    fp = lines[0].split(None, 1)[1].strip()
    if fp != cs.fingerprint:
        raise ChromosomeError("chromosome was saved for a different netlist")
    try:  # clamped to [-2, 2] for int8: `validate_genes` refuses any gene out of range
        genes = [min(max(int(t), -2), 2) for t in lines[1].split(",") if lines[1]]
    except ValueError as e:
        raise ChromosomeError(f"bad gene value: {e}") from e
    return validate_genes(cs, genes)


def save_chromosome(path, cs: CandidateSet, genes):
    with open(path, "w") as f:
        f.write(format_chromosome(cs, genes))


def load_chromosome(path, cs: CandidateSet) -> np.ndarray:
    """Load genes saved for the same candidate set; refuses a mismatch."""
    with open(path) as f:
        try:
            return parse_chromosome(f.read(), cs)
        except ChromosomeError as e:
            raise ChromosomeError(f"{path}: {e}") from None
