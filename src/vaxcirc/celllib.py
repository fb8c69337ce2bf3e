"""Timing libraries: per-arc Gaussian delay models and sampled instances.

A variation library carries one (mu, sigma) pair per timing arc, where an
arc is (cell kind, input pin, output edge).  Sampling draws one delay per
arc from a split global/local Gaussian model, producing a deterministic
plain-number library for STA.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .netlist import CELLS

EDGES = ("fall", "rise")  # alphabetical; canonical arc order relies on this

ArcKey = tuple[str, str, str]  # (cell, pin, edge)


class LibraryError(Exception):
    """Malformed library data."""


@dataclass(frozen=True)
class TimingArc:
    pin: str
    edge: str
    mu_ps: float
    sigma_ps: float

    def __post_init__(self):
        if self.edge not in EDGES:
            raise LibraryError(f"bad edge {self.edge!r}")
        if not (self.mu_ps > 0.0):
            raise LibraryError(f"arc {self.pin}/{self.edge}: mu must be > 0")
        if self.sigma_ps < 0.0:
            raise LibraryError(f"arc {self.pin}/{self.edge}: sigma must be >= 0")
        if self.sigma_ps > 0.5 * self.mu_ps:
            raise LibraryError(
                f"arc {self.pin}/{self.edge}: sigma/mu = "
                f"{self.sigma_ps / self.mu_ps:.3f} exceeds 0.5"
            )


class VariationLibrary:
    """Gaussian delay model per arc for a set of cell kinds."""

    def __init__(self, name: str, cells: dict[str, list[TimingArc]], rho_default=0.5):
        self.name = str(name)
        if not (0.0 <= rho_default <= 1.0):
            raise LibraryError(f"rho_default {rho_default} outside [0, 1]")
        self.rho_default = float(rho_default)
        self.cells: dict[str, tuple[TimingArc, ...]] = {}
        for kind in sorted(cells):
            cell = CELLS.get(kind)
            if cell is None:
                raise LibraryError(f"unknown cell kind {kind!r}")
            arcs = {(a.pin, a.edge): a for a in cells[kind]}
            if len(arcs) != len(cells[kind]):
                raise LibraryError(f"{kind}: duplicate arc")
            want = [(p, e) for p in cell.input_pins for e in EDGES]
            if sorted(arcs) != sorted(want):
                raise LibraryError(
                    f"{kind}: arcs {sorted(arcs)} do not cover {sorted(want)}"
                )
            self.cells[kind] = tuple(
                arcs[(p, e)] for p in sorted(cell.input_pins) for e in EDGES
            )
        self._arcs: dict[ArcKey, TimingArc] = {
            (kind, a.pin, a.edge): a for kind in sorted(self.cells)
            for a in self.cells[kind]
        }
        self._arc_order: tuple[ArcKey, ...] = tuple(self._arcs)
        self._arc_index = {k: i for i, k in enumerate(self._arc_order)}
        self._mu = np.array([a.mu_ps for a in self._arcs.values()])
        self._sigma = np.array([a.sigma_ps for a in self._arcs.values()])

    def arc(self, kind: str, pin: str, edge: str) -> TimingArc:
        return self._arcs[(kind, pin, edge)]

    def arc_order(self) -> tuple[ArcKey, ...]:
        """Canonical arc ordering: cells alphabetical, arcs by (pin, edge)."""
        return self._arc_order

    def arc_index(self) -> dict[ArcKey, int]:
        return self._arc_index

    def mu_vector(self) -> np.ndarray:
        return self._mu.copy()

    def sigma_vector(self) -> np.ndarray:
        return self._sigma.copy()


class SampledLibrary:
    """One concrete delay per arc, drawn from a VariationLibrary."""

    def __init__(self, name, seed, arc_order, values):
        self.name = str(name)
        self.seed = int(seed)
        self._arc_order = tuple(arc_order)
        self._values = np.asarray(values, dtype=np.float64)
        if self._values.shape != (len(self._arc_order),):
            raise LibraryError("value vector does not match arc order")
        if np.any(self._values <= 0.0):
            raise LibraryError("sampled delays must be positive")
        self._arc_index = {k: i for i, k in enumerate(self._arc_order)}

    def delay(self, kind: str, pin: str, edge: str) -> float:
        return float(self._values[self._arc_index[(kind, pin, edge)]])

    def arc_order(self) -> tuple[ArcKey, ...]:
        return self._arc_order

    def arc_index(self) -> dict[ArcKey, int]:
        return self._arc_index

    def values(self) -> np.ndarray:
        return self._values.copy()


def sample_library(lib: VariationLibrary, seed: int, rho=None) -> SampledLibrary:
    """Draw one delay per arc: mu + sigma*(sqrt(rho)*g + sqrt(1-rho)*z).

    g is a single global draw shared by all arcs, z is independent per arc,
    both from numpy's default generator seeded with `seed`.  Delays clamp
    at 5% of mu from below.
    """
    return SampledLibrary(
        f"{lib.name}@{seed}", seed, lib.arc_order(), sample_matrix(lib, [seed], rho)[0]
    )


def check_seeds(name: str, first: int, count: int) -> None:
    """Refuse a draw of seeds first .. first + count - 1 unless every one
    lies in sample_matrix's range, [0, 2**64)."""
    if not 0 <= first <= (1 << 64) - count:
        raise LibraryError(f"{name} must be in [0, 2**64 - {count}], not {first}")


def sample_matrix(lib: VariationLibrary, seeds, rho=None) -> np.ndarray:
    """Stack sample_library value rows for `seeds`: shape (len(seeds), arcs).

    Seeds are integers; one outside [0, 2**64) is refused with a
    LibraryError that names it.  Row i is bit for bit what numpy's default
    generator seeded with seeds[i], `Generator(PCG64(seeds[i]))`, gives:
    its first standard normal is g, its next `arcs` are z.  All seeds are
    hashed at once (`_seed_words`), then one PCG64 is re-seeded per row and
    draws g and z together; the arithmetic and the clamp run in place over
    the whole matrix, so the result is a view of it, rows `arcs + 1` apart.
    """
    if rho is None:
        rho = lib.rho_default
    if not (0.0 <= rho <= 1.0):
        raise LibraryError(f"rho {rho} outside [0, 1]")
    seeds = [operator.index(s) for s in seeds]
    for s in seeds:
        if not 0 <= s < 1 << 64:
            raise LibraryError(f"seed {s} outside [0, 2**64)")
    draws = np.empty((len(seeds), 1 + len(lib.arc_order())), dtype=np.float64)
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for row, words in zip(draws, _seed_words(seeds)):
        # pcg64_set_seed: state and increment from the four seed words; one
        # row at a time, since all rows as Python ints would raise peak RSS
        s_hi, s_lo, q_hi, q_lo = words.tolist()
        inc = ((q_hi << 65) | (q_lo << 1) | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        bits.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }
        rng.standard_normal(out=row)
    # mu + sigma * (sqrt(rho) * g + sqrt(1 - rho) * z), bit for bit: + and * commute
    g, z = draws[:, :1], draws[:, 1:]
    z *= math.sqrt(1.0 - rho)
    z += math.sqrt(rho) * g
    z *= lib._sigma
    z += lib._mu
    return np.maximum(0.05 * lib._mu, z, out=z)


# numpy's SeedSequence hash (bit_generator.pyx) and PCG64's 128-bit multiplier
_M32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """One SeedSequence hashmix step over uint32 words, and the next constant."""
    value = value ^ np.uint32(const)
    const = const * mult & _M32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(16)), const


def _seed_words(seeds) -> np.ndarray:
    """`SeedSequence(s).generate_state(4, np.uint64)` for every seed, as rows.

    A seed below 2**64 is at most two 32-bit entropy words, fewer than the
    pool's 4, and the hash mixes a missing word exactly as a zero word; so
    every seed is hashed as (low, high, 0, 0), all seeds in one uint32 pass.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    zero = np.zeros(len(seeds), dtype=np.uint32)
    pool, const = [], 0x43B0D7E5
    for word in (seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32), zero, zero):
        mixed, const = _hashmix(word, const, 0x931E8875)
        pool.append(mixed)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed, const = _hashmix(pool[src], const, 0x931E8875)
                r = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * mixed
                pool[dst] = r ^ (r >> np.uint32(16))
    out = np.empty((len(seeds), 8), dtype="<u4")
    const = 0x8B51F9DD
    for i in range(8):
        out[:, i], const = _hashmix(pool[i % 4], const, 0x58F38DED)
    return out.view("<u8")


def nominal_library(lib: VariationLibrary) -> SampledLibrary:
    """Sampled view pinning every arc at its mean delay."""
    return SampledLibrary(f"{lib.name}@nominal", 0, lib.arc_order(), lib._mu)


# -- persistence -------------------------------------------------------------


def save_variation_library(path, lib: VariationLibrary):
    doc = {
        "name": lib.name,
        "rho_default": lib.rho_default,
        "cells": {
            kind: [
                {"pin": a.pin, "edge": a.edge, "mu_ps": a.mu_ps, "sigma_ps": a.sigma_ps}
                for a in lib.cells[kind]
            ]
            for kind in sorted(lib.cells)
        },
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def load_variation_library(path) -> VariationLibrary:
    with open(path) as f:
        try:
            doc = json.load(f)
            cells = {
                kind: [TimingArc(a["pin"], a["edge"], a["mu_ps"], a["sigma_ps"]) for a in arcs]
                for kind, arcs in doc["cells"].items()
            }
            return VariationLibrary(doc["name"], cells, doc.get("rho_default", 0.5))
        except (KeyError, TypeError, ValueError, LibraryError) as e:
            raise LibraryError(f"malformed library file {path}: {e}") from e


_DEFAULT_MU = {
    # (kind, pin) -> (rise mu, fall mu); sigma is 8% of mu on every arc.
    ("INV", "A"): (10.0, 9.0),
    ("BUF", "A"): (12.0, 11.0),
    ("NAND2", "A"): (13.0, 12.0),
    ("NAND2", "B"): (14.0, 13.0),
    ("NOR2", "A"): (15.0, 14.0),
    ("NOR2", "B"): (16.0, 15.0),
    ("AND2", "A"): (17.0, 16.0),
    ("AND2", "B"): (18.0, 17.0),
    ("OR2", "A"): (19.0, 18.0),
    ("OR2", "B"): (20.0, 19.0),
    ("XOR2", "A"): (23.0, 22.0),
    ("XOR2", "B"): (24.0, 23.0),
    ("XNOR2", "A"): (24.0, 23.0),
    ("XNOR2", "B"): (25.0, 24.0),
    ("MUX2", "A"): (21.0, 20.0),
    ("MUX2", "B"): (22.0, 21.0),
    ("MUX2", "S"): (25.0, 24.0),
}


def default_library() -> VariationLibrary:
    """Built-in synthetic library covering all supported cells (sigma/mu = 0.08)."""
    cells: dict[str, list[TimingArc]] = {}
    for (kind, pin), (mu_r, mu_f) in _DEFAULT_MU.items():
        cells.setdefault(kind, []).append(TimingArc(pin, "rise", mu_r, 0.08 * mu_r))
        cells[kind].append(TimingArc(pin, "fall", mu_f, 0.08 * mu_f))
    return VariationLibrary("default", cells, rho_default=0.5)
