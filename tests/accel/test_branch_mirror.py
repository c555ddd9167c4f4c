"""The accelerated branch mirror against the reference predictors.

``_mirror_direction`` replaces the reference ``predict``/``update`` pair
with one ``step`` per branch; for TAGE it keeps circular-shift-register
(CSR) folded histories instead of re-folding ``_hist`` on every lookup.
These tests hold both to the reference, value for value.
"""

from __future__ import annotations

import copy
import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.engine import _mirror_branch_unit, _mirror_direction
from repro.core.branch import (
    BTB,
    BimodalBHT,
    BranchUnit,
    GShare,
    ReturnAddressStack,
    TAGE,
)
from repro.isa.opcodes import OpClass
from repro.soc.presets import ALL_CONFIGS
from repro.soc.system import build_branch_unit

M64 = (1 << 64) - 1

#: every TAGE shape the presets build, as (num_tables, table_bits)
PRESET_SHAPES = sorted({(c.branch.tage_tables, c.branch.tage_table_bits)
                        for c in ALL_CONFIGS.values() if c.branch.kind == "boom"})


def preset_tage(tables, table_bits):
    return TAGE(num_tables=tables, table_bits=table_bits, max_hist=128)


def test_preset_shapes_cover_the_long_window():
    assert [tb for _, tb in PRESET_SHAPES] == [10, 11]
    for shape in PRESET_SHAPES:
        d = preset_tage(*shape)
        assert d.tag_bits == 9 and max(d.hist_len) == 128


@pytest.mark.parametrize("shape", PRESET_SHAPES, ids=str)
@settings(max_examples=30, deadline=None)
@given(hist=st.integers(0, M64),
       outcomes=st.lists(st.booleans(), min_size=1, max_size=150),
       pc_seed=st.integers(0, 2**16))
def test_csr_registers_equal_direct_fold(shape, hist, outcomes, pc_seed):
    """Every register equals ``TAGE._fold`` at attach and after every
    shift, for index (10/11 bits), tag (9) and tag-1 (8) widths and for
    hist_len 128, whose window is the 64-bit ``_hist``."""
    d = preset_tage(*shape)
    d._hist = hist
    ref = copy.deepcopy(d)
    nbits = d.size.bit_length() - 1
    step, _ = _mirror_direction(d)
    fidx, ftag, ftag1 = step.folds
    rng = random.Random(pc_seed)

    def check():
        for t, L in enumerate(ref.hist_len):
            assert fidx[t] == ref._fold(L, nbits)
            assert ftag[t] == ref._fold(L, ref.tag_bits)
            assert ftag1[t] == ref._fold(L, ref.tag_bits - 1)

    check()
    for taken in outcomes:
        step(0x1_0000 + 4 * rng.randrange(1 << 12), taken)
        ref._hist = ((ref._hist << 1) | int(taken)) & M64
        check()


class _SubTAGE(TAGE):
    """A TAGE subclass: the mirror must fall back to predict-then-update."""


def _brus():
    boom = [(c.name, build_branch_unit(c.branch)) for c in ALL_CONFIGS.values()
            if c.branch.kind == "boom"]
    seen, out = set(), []
    for name, bru in boom:  # one per predictor shape
        d = bru.direction
        shape = (d.num_tables, d.size)
        if shape not in seen:
            seen.add(shape)
            out.append(pytest.param(bru, id=name))
    small = dict(num_tables=3, table_bits=6, tag_bits=7, min_hist=3,
                 max_hist=40, base_entries=256)
    out += [
        pytest.param(BranchUnit(TAGE(**small), BTB(32, 2),
                                ReturnAddressStack(8)), id="tage3"),
        pytest.param(BranchUnit(_SubTAGE(**small), BTB(32, 2),
                                ReturnAddressStack(8)), id="tage-subclass"),
        pytest.param(BranchUnit(GShare(256, hist_bits=8), BTB(32, 2),
                                ReturnAddressStack(8)), id="gshare"),
        pytest.param(BranchUnit(BimodalBHT(256), BTB(32, 2),
                                ReturnAddressStack(8)), id="bimodal"),
    ]
    return out


def _scramble(d, seed=11):
    """Seeded random predictor state, so allocation meets useful entries
    and the decay path fires even on the large BOOM tables."""
    rng = np.random.default_rng(seed)
    if isinstance(d, TAGE):
        for t in range(d.num_tables):
            d._ctr[t][:] = rng.integers(-4, 4, d.size)
            d._tag[t][:] = rng.integers(-1, 1 << d.tag_bits, d.size)
            d._useful[t][:] = rng.integers(0, 4, d.size)
        d._hist = int(rng.integers(0, 1 << 63)) * 2 + 1
        d = d.base
    d._ctr[:] = rng.integers(0, 4, d.entries)


def _stream(n=20_000, n_pcs=300, seed=7):
    """Seeded branches over a few hundred PCs: biased, periodic and random
    outcomes, so TAGE allocates and also decays usefulness."""
    rng = random.Random(seed)
    pcs = [0x4_0000 + 4 * rng.randrange(1 << 14) for _ in range(n_pcs)]
    kinds = [rng.randrange(3) for _ in pcs]
    periods = [rng.randrange(2, 9) for _ in pcs]
    seen = [0] * n_pcs
    for _ in range(n):
        j = rng.randrange(n_pcs)
        seen[j] += 1
        if kinds[j] == 0:
            taken = rng.random() < 0.9
        elif kinds[j] == 1:
            taken = seen[j] % periods[j] != 0
        else:
            taken = rng.random() < 0.5
        yield pcs[j], taken


@pytest.mark.parametrize("bru", _brus())
def test_mirror_matches_reference_branch_unit(bru):
    """Same stream through the mirror and a deep copy's ``resolve``:
    every redirect kind, the stats and the final predictor state agree,
    across a detach and re-attach halfway (the CSRs re-seed from _hist)."""
    _scramble(bru.direction)
    ref = copy.deepcopy(bru)
    stream = list(_stream())
    resolve, detach = _mirror_branch_unit(bru)
    for n, (pc, taken) in enumerate(stream):
        if n == len(stream) // 2:
            if detach is not None:
                detach()
            resolve, detach = _mirror_branch_unit(bru)
        got = resolve(int(OpClass.BRANCH), pc, taken, pc + 64)
        assert got == ref.resolve(OpClass.BRANCH, pc, taken, pc + 64), n
    if detach is not None:
        detach()
    assert dataclasses.asdict(bru.stats) == dataclasses.asdict(ref.stats)
    assert ref.stats.mispredicts > 0
    d, r = bru.direction, ref.direction
    if isinstance(d, TAGE):
        assert d._hist == r._hist
        for t in range(d.num_tables):
            assert d._ctr[t].tolist() == r._ctr[t].tolist()
            assert d._tag[t].tolist() == r._tag[t].tolist()
            assert d._useful[t].tolist() == r._useful[t].tolist()
        assert d.base._ctr.tolist() == r.base._ctr.tolist()
    else:
        assert d._ctr.tolist() == r._ctr.tolist()
        assert getattr(d, "_hist", None) == getattr(r, "_hist", None)
