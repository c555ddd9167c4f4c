"""Branch-prediction models: bimodal BHT, gshare, BTB, RAS, and TAGE-L.

Rocket tiles use a BTB + BHT + RAS front end; BOOM uses a TAGE-L
predictor with a fetch-target queue (paper Table 5).  These are real
predictor implementations — tables, tags, useful counters — not statistical
stand-ins, because several MicroBench kernels (Cca, Cce, CCh, CRd, CRf,
CS1, CS3) exist specifically to separate predictable from unpredictable
control flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..isa.opcodes import OpClass

__all__ = [
    "BimodalBHT",
    "GShare",
    "BTB",
    "ReturnAddressStack",
    "TAGE",
    "BranchUnit",
    "BranchStats",
    "rocket_branch_unit",
    "boom_branch_unit",
]


class BimodalBHT:
    """Table of 2-bit saturating counters indexed by PC."""

    def __init__(self, entries: int = 512) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.entries = entries
        self._ctr = np.full(entries, 1, dtype=np.int8)  # weakly not-taken

    def _idx(self, pc: int) -> int:
        return (pc >> 2) & (self.entries - 1)

    def predict(self, pc: int) -> bool:
        return bool(self._ctr[self._idx(pc)] >= 2)

    def update(self, pc: int, taken: bool) -> None:
        i = self._idx(pc)
        c = self._ctr[i] + (1 if taken else -1)
        self._ctr[i] = min(3, max(0, c))


class GShare:
    """Global-history-XOR-PC indexed 2-bit counter table."""

    def __init__(self, entries: int = 1024, hist_bits: int = 10) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.entries = entries
        self.hist_bits = hist_bits
        self._ctr = np.full(entries, 1, dtype=np.int8)
        self._hist = 0

    def _idx(self, pc: int) -> int:
        return ((pc >> 2) ^ self._hist) & (self.entries - 1)

    def predict(self, pc: int) -> bool:
        return bool(self._ctr[self._idx(pc)] >= 2)

    def update(self, pc: int, taken: bool) -> None:
        i = self._idx(pc)
        c = self._ctr[i] + (1 if taken else -1)
        self._ctr[i] = min(3, max(0, c))
        self._hist = ((self._hist << 1) | int(taken)) & ((1 << self.hist_bits) - 1)


class BTB:
    """Branch target buffer: set-associative PC -> target mapping."""

    def __init__(self, entries: int = 32, assoc: int = 2) -> None:
        if entries % assoc:
            raise ValueError("entries must be divisible by assoc")
        self.sets = entries // assoc
        self.assoc = assoc
        self._tag = np.full((self.sets, assoc), -1, dtype=np.int64)
        self._target = np.zeros((self.sets, assoc), dtype=np.int64)
        self._lru = np.zeros((self.sets, assoc), dtype=np.int64)
        self._stamp = 0

    def lookup(self, pc: int) -> int | None:
        s = (pc >> 2) % self.sets
        tag = pc >> 2
        ways = np.nonzero(self._tag[s] == tag)[0]
        if ways.size:
            w = int(ways[0])
            self._stamp += 1
            self._lru[s, w] = self._stamp
            return int(self._target[s, w])
        return None

    def insert(self, pc: int, target: int) -> None:
        s = (pc >> 2) % self.sets
        tag = pc >> 2
        ways = np.nonzero(self._tag[s] == tag)[0]
        w = int(ways[0]) if ways.size else int(np.argmin(self._lru[s]))
        self._tag[s, w] = tag
        self._target[s, w] = target
        self._stamp += 1
        self._lru[s, w] = self._stamp


class ReturnAddressStack:
    """Fixed-depth RAS; overflow wraps (overwrites oldest), as in hardware."""

    def __init__(self, depth: int = 8) -> None:
        if depth <= 0:
            raise ValueError("depth must be positive")
        self.depth = depth
        self._stack: list[int] = []

    def push(self, ret_addr: int) -> None:
        self._stack.append(ret_addr)
        if len(self._stack) > self.depth:
            del self._stack[0]

    def pop(self) -> int | None:
        return self._stack.pop() if self._stack else None

    def __len__(self) -> int:
        return len(self._stack)


class TAGE:
    """TAGE predictor: bimodal base + tagged tables with geometric history.

    A functional implementation of the TAGE scheme (Seznec): provider =
    longest-history tagged hit; alternate prediction on low-confidence new
    entries; usefulness counters steer allocation on mispredicts.

    The global history ``_hist`` is a 64-bit register, so a table whose
    ``hist_len`` is above 64 folds the last 64 outcomes only.
    """

    def __init__(
        self,
        num_tables: int = 4,
        table_bits: int = 9,
        tag_bits: int = 9,
        min_hist: int = 4,
        max_hist: int = 64,
        base_entries: int = 2048,
    ) -> None:
        self.num_tables = num_tables
        self.size = 1 << table_bits
        self.tag_bits = tag_bits
        self.base = BimodalBHT(base_entries)
        # geometric history lengths
        if num_tables == 1:
            self.hist_len = [min_hist]
        else:
            ratio = (max_hist / min_hist) ** (1 / (num_tables - 1))
            self.hist_len = [int(round(min_hist * ratio**i)) for i in range(num_tables)]
        self._ctr = [np.zeros(self.size, dtype=np.int8) for _ in range(num_tables)]
        self._tag = [np.full(self.size, -1, dtype=np.int32) for _ in range(num_tables)]
        self._useful = [np.zeros(self.size, dtype=np.int8) for _ in range(num_tables)]
        self._hist = 0
        self._rng = np.random.default_rng(0xB00)

    def _fold(self, bits: int, out_bits: int) -> int:
        h = self._hist & ((1 << bits) - 1)
        folded = 0
        while h:
            folded ^= h & ((1 << out_bits) - 1)
            h >>= out_bits
        return folded

    def _index(self, pc: int, t: int) -> int:
        return ((pc >> 2) ^ self._fold(self.hist_len[t], self.size.bit_length() - 1)) % self.size

    def _tag_of(self, pc: int, t: int) -> int:
        return ((pc >> 2) ^ self._fold(self.hist_len[t], self.tag_bits)
                ^ (self._fold(self.hist_len[t], self.tag_bits - 1) << 1)) & (
            (1 << self.tag_bits) - 1
        )

    def predict(self, pc: int) -> bool:
        pred, _, _ = self._predict_full(pc)
        return pred

    def _predict_full(self, pc: int) -> tuple[bool, int, int]:
        """Return (prediction, provider table or -1, provider index)."""
        for t in range(self.num_tables - 1, -1, -1):
            i = self._index(pc, t)
            if self._tag[t][i] == self._tag_of(pc, t):
                return bool(self._ctr[t][i] >= 0), t, i
        return self.base.predict(pc), -1, 0

    def update(self, pc: int, taken: bool) -> None:
        pred, prov, idx = self._predict_full(pc)
        mispredicted = pred != taken
        if prov >= 0:
            c = self._ctr[prov][idx] + (1 if taken else -1)
            self._ctr[prov][idx] = min(3, max(-4, c))
            u = self._useful[prov][idx] + (0 if mispredicted else 1)
            self._useful[prov][idx] = min(3, max(0, u - (1 if mispredicted else 0)))
        else:
            self.base.update(pc, taken)
        if mispredicted and prov < self.num_tables - 1:
            # allocate in a longer-history table with a non-useful entry
            candidates = range(prov + 1, self.num_tables)
            allocated = False
            for t in candidates:
                i = self._index(pc, t)
                if self._useful[t][i] == 0:
                    self._tag[t][i] = self._tag_of(pc, t)
                    self._ctr[t][i] = 0 if taken else -1
                    allocated = True
                    break
            if not allocated:
                # decay usefulness so future allocations can succeed
                for t in candidates:
                    i = self._index(pc, t)
                    self._useful[t][i] = max(0, self._useful[t][i] - 1)
        self._hist = ((self._hist << 1) | int(taken)) & ((1 << 64) - 1)


@dataclass
class BranchStats:
    branches: int = 0
    mispredicts: int = 0
    btb_misses: int = 0
    ras_mispredicts: int = 0

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0

    def reset(self) -> None:
        self.__init__()


class BranchUnit:
    """Front-end control-flow handling shared by both core models.

    ``resolve`` processes one control op and returns the redirect class:
    ``0`` = correctly predicted, ``1`` = taken-but-BTB-miss (front-end
    bubble), ``2`` = full mispredict (pipeline flush).
    """

    CORRECT, BUBBLE, FLUSH = 0, 1, 2

    def __init__(self, direction, btb: BTB, ras: ReturnAddressStack) -> None:
        self.direction = direction
        self.btb = btb
        self.ras = ras
        self.stats = BranchStats()

    def resolve(self, op: int, pc: int, taken: bool, target: int) -> int:
        self.stats.branches += 1
        if op == OpClass.BRANCH:
            pred = self.direction.predict(pc)
            self.direction.update(pc, taken)
            if pred != taken:
                self.stats.mispredicts += 1
                if taken:
                    self.btb.insert(pc, target)
                return self.FLUSH
            if taken and self.btb.lookup(pc) != target:
                self.btb.insert(pc, target)
                self.stats.btb_misses += 1
                return self.BUBBLE
            return self.CORRECT
        if op == OpClass.JUMP or op == OpClass.CALL:
            if op == OpClass.CALL:
                self.ras.push(pc + 4)
            pred = self.btb.lookup(pc)
            if pred == target:
                return self.CORRECT
            self.btb.insert(pc, target)
            if pred is None:
                # cold BTB: direct jumps still resolve at decode (bubble)
                self.stats.btb_misses += 1
                return self.BUBBLE
            # stale target: an indirect jump/call went elsewhere — full flush
            self.stats.mispredicts += 1
            return self.FLUSH
        if op == OpClass.RET:
            pred_target = self.ras.pop()
            if pred_target != target:
                self.stats.mispredicts += 1
                self.stats.ras_mispredicts += 1
                return self.FLUSH
            return self.CORRECT
        return self.CORRECT


def rocket_branch_unit(bht_entries: int = 512, btb_entries: int = 32,
                       ras_depth: int = 6) -> BranchUnit:
    """Rocket-style front end: bimodal BHT + small BTB + RAS."""
    return BranchUnit(BimodalBHT(bht_entries), BTB(btb_entries),
                      ReturnAddressStack(ras_depth))


def boom_branch_unit(tables: int = 6, table_bits: int = 10,
                     btb_entries: int = 128, ras_depth: int = 32) -> BranchUnit:
    """BOOM-style front end: TAGE-L + larger BTB + deep RAS."""
    return BranchUnit(
        TAGE(num_tables=tables, table_bits=table_bits, max_hist=128),
        BTB(btb_entries, assoc=4),
        ReturnAddressStack(ras_depth),
    )
