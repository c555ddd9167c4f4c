"""Accelerated execution engine for :class:`~repro.core.inorder.InOrderCore`.

The reference model is exact but pays Python/numpy overhead on every
micro-op: numpy scalar unboxing on each trace column read, ``np.nonzero``
tag probes per cache access, attribute chases through the hierarchy, and
per-branch predictor table indexing.  This engine removes that overhead
while producing **bit-identical results** by construction: every timing
decision is a line-for-line transliteration of the reference code paths,
executed over plain-Python mirrors of the component state.

How it stays exact
------------------

* **Mirrors, not models.**  At ``run()`` entry the engine copies each hot
  component's array state into plain lists (cache tags/dirty/LRU/PLRU,
  BTB, direction-predictor counters) and writes everything back when the
  run ends — including on exceptions — so the reference objects always
  hold the authoritative state between runs.  Structures that are cheap
  to use directly (MSHR dicts, bank timelines, TLB sets, the RAS, the
  store buffer, the register scoreboard, all stats dataclasses) are
  shared in place.  Everything below the L2 (LLC, DRAM, bus, coherence
  directory) is reached through the ordinary reference ``access`` calls,
  in exactly the order the reference would make them.

* **Scalar fast loop.**  Micro-ops execute through a transliteration of
  ``InOrderCore.run`` over pre-decoded Python-list trace columns with
  closure-bound memory/branch operations — the same arithmetic on the
  same values, minus the interpreter overhead.

The two modes therefore agree value-for-value on cycles, stall
attribution, and every stats counter; ``tests/accel/test_bitident.py``
and the ``accel`` tier of ``repro check`` hold them to it.
"""

from __future__ import annotations

from repro.core.base import CoreResult
from repro.core.branch import TAGE, BTB, BimodalBHT, BranchUnit, GShare
from repro.mem.dram import DRAM
from repro.mem.tlb import TLB, TwoLevelTLB

from . import memo

__all__ = ["AccelEngine"]


# -- component mirrors --------------------------------------------------------

def _mirror_cache(cache, next_access):
    """Closure-compiled twin of ``Cache.access`` over list mirrors.

    Tag/dirty/LRU/PLRU state and the use counter/rng live in locals for
    the duration of a run; MSHRs, bank timelines, and stats are the
    shared reference objects.  Returns ``(access, contains, detach)``.
    """
    cfg = cache.cfg
    st = cache.stats
    line_shift = cache._line_shift
    set_mask = cache._set_mask
    hit_lat = cfg.hit_latency
    banks = cfg.banks
    ways = cfg.ways
    n_mshrs = cfg.mshrs
    write_back = cfg.write_back
    cyc = cfg.cycle_time
    is_plru = cfg.replacement == "plru"
    is_lru = cfg.replacement == "lru"
    tags = cache._tags.tolist()
    dirty = cache._dirty.tolist()
    lru = cache._lru.tolist()
    plru = cache._plru.tolist()
    use_counter = cache._use_counter
    rng = cache._rng_state
    mshr = cache._mshr
    bank_tl = cache._bank_free
    # stats accumulate in locals and flush at detach (same totals, fewer
    # attribute round-trips on the hottest call in the simulator)
    n_access = n_hits = n_misses = n_wb = n_merges = 0
    n_conflict = 0
    n_mshr_stall = 0

    def touch(set_idx, way):
        nonlocal use_counter
        use_counter += 1
        lru[set_idx][way] = use_counter
        if is_plru:
            bits = plru[set_idx]
            node = 0
            span = ways
            lo = 0
            while span > 1:
                half = span // 2
                if way < lo + half:
                    bits |= 1 << node
                    node = 2 * node + 1
                    span = half
                else:
                    bits &= ~(1 << node)
                    node = 2 * node + 2
                    lo += half
                    span = half
            plru[set_idx] = bits

    def victim(set_idx):
        nonlocal rng
        row = tags[set_idx]
        if -1 in row:
            return row.index(-1)
        if is_lru:
            lr = lru[set_idx]
            return lr.index(min(lr))
        if is_plru:
            bits = plru[set_idx]
            node = 0
            span = ways
            lo = 0
            while span > 1:
                half = span // 2
                if bits & (1 << node):
                    node = 2 * node + 2
                    lo += half
                else:
                    node = 2 * node + 1
                span = half
            return lo
        x = rng
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        rng = x
        return x % ways

    def access(addr, time, is_store):
        nonlocal n_access, n_hits, n_misses, n_wb, n_merges, n_conflict, \
            n_mshr_stall
        n_access += 1
        line = addr >> line_shift
        set_idx = line & set_mask

        tl = bank_tl[line % banks]
        if cyc <= 0:
            start = float(time)
        else:
            ends = tl._ends
            t = float(time)
            if not ends or t >= ends[-1]:
                tl._starts.append(t)
                ends.append(t + cyc)
                if len(ends) > tl.max_intervals:
                    drop = len(ends) - tl.max_intervals
                    del tl._starts[:drop]
                    del ends[:drop]
                start = t
            else:
                start = tl.reserve(time, cyc)
        if start > time:
            n_conflict += int(start - time)

        row = tags[set_idx]
        if line in row:
            way = row.index(line)
            touch(set_idx, way)
            if is_store:
                if write_back:
                    dirty[set_idx][way] = True
                else:
                    next_access(addr, start + hit_lat, True)
            n_hits += 1
            done = start + hit_lat
            pending = mshr.get(line << line_shift)
            if pending is not None and pending > done:
                return pending
            return done

        n_misses += 1
        tag_time = start + hit_lat
        line_base = line << line_shift
        pending = mshr.get(line_base, 0)
        if pending > tag_time:
            n_merges += 1
            fill_time = pending
        else:
            if len(mshr) >= n_mshrs:
                in_flight = [ft for ft in mshr.values() if ft > tag_time]
                if len(in_flight) >= n_mshrs:
                    wait_until = min(in_flight)
                    n_mshr_stall += wait_until - tag_time
                    tag_time = wait_until
            fill_time = next_access(line_base, tag_time, False)
            mshr[line_base] = fill_time
            if len(mshr) > 2 * n_mshrs:
                for a in [a for a, ft in mshr.items() if ft <= tag_time]:
                    del mshr[a]

        way = victim(set_idx)
        vtag = row[way]
        if write_back and dirty[set_idx][way] and vtag != -1:
            n_wb += 1
            next_access(vtag << line_shift, fill_time, True)
        row[way] = line
        dirty[set_idx][way] = bool(is_store and write_back)
        touch(set_idx, way)
        if is_store and not write_back:
            next_access(addr, fill_time, True)
        return fill_time

    def contains(addr):
        line = addr >> line_shift
        return line in tags[line & set_mask]

    def detach():
        cache._tags[:] = tags
        cache._dirty[:] = dirty
        cache._lru[:] = lru
        if is_plru:
            cache._plru[:] = plru
        cache._use_counter = use_counter
        cache._rng_state = rng
        st.accesses += n_access
        st.hits += n_hits
        st.misses += n_misses
        st.writebacks += n_wb
        st.mshr_merges += n_merges
        st.bank_conflict_cycles += n_conflict
        if n_mshr_stall:
            st.mshr_stall_cycles += n_mshr_stall

    return access, contains, detach


def _mirror_dram(dram):
    """Closure twin of ``DRAM.access`` (all state shared in place).

    Nothing is mirrored — bank state lists, channel timelines, in-flight
    queues, and stats are the reference objects — but the per-request
    attribute chases, the ``map_address`` call, and the common-case
    channel-bus reservation (monotone arrivals append at the tail) are
    flattened into one closure.
    """
    cfg = dram.cfg
    st = dram.stats
    line_bytes = dram.line_bytes
    channels = cfg.channels
    row_div = cfg.row_bytes * channels
    banks_per_chan = dram._banks_per_chan
    open_row = dram._open_row
    bank_ready = dram._bank_ready
    chan_bus = dram._chan_bus
    inflight = dram._inflight
    cCAS = dram._cCAS
    cRCD = dram._cRCD
    cRP = dram._cRP
    cRAS = dram._cRAS
    cCTRL = dram._cCTRL
    cREFI = dram._cREFI
    cRFC = dram._cRFC
    cXFER = dram._cXFER
    queue_depth = cfg.queue_depth
    open_page = cfg.open_page
    qmax = 4 * queue_depth

    def access(addr, time, is_store):
        if is_store:
            st.writes += 1
        else:
            st.reads += 1
        line = addr // line_bytes
        chan = line % channels
        row_global = addr // row_div
        bank = chan * banks_per_chan + row_global % banks_per_chan
        row = row_global // banks_per_chan

        start = time + cCTRL
        q = inflight[chan]
        if q:
            live = [t for t in q if t > start]
            if len(live) >= queue_depth:
                live.sort()
                wait_until = live[-queue_depth]
                st.queue_wait_cycles += int(wait_until - start)
                start = wait_until
            inflight[chan] = live

        if cREFI > 0 and start >= cREFI:
            since = start % cREFI
            if since < cRFC:
                st.refresh_stall_cycles += int(cRFC - since)
                start += cRFC - since
                open_row[bank] = -1
        if open_page and open_row[bank] == row:
            st.row_hits += 1
            ready = bank_ready[bank] - cRAS
            if start > ready:
                ready = start
            access_done = ready + cCAS
        else:
            st.row_misses += 1
            ready = bank_ready[bank]
            if start > ready:
                ready = start
            pre = cRP if open_row[bank] != -1 else 0.0
            access_done = ready + pre + cRCD + cCAS
            open_row[bank] = row if open_page else -1
            bank_ready[bank] = access_done + (0.0 if open_page else cRP)
        if access_done > bank_ready[bank]:
            bank_ready[bank] = access_done

        tl = chan_bus[chan]
        if cXFER <= 0:
            xfer_start = float(access_done)
        else:
            ends = tl._ends
            t = float(access_done)
            if not ends or t >= ends[-1]:
                tl._starts.append(t)
                ends.append(t + cXFER)
                if len(ends) > tl.max_intervals:
                    drop = len(ends) - tl.max_intervals
                    del tl._starts[:drop]
                    del ends[:drop]
                xfer_start = t
            else:
                xfer_start = tl.reserve(access_done, cXFER)
        finish = xfer_start + cXFER
        q = inflight[chan]
        q.append(finish)
        if len(q) > qmax:
            inflight[chan] = [ft for ft in q if ft > finish - 1]
        if is_store:
            return int(start + cCTRL)
        return int(finish)

    return access


def _fast_tlb(tlb, walker):
    """Closure twin of ``translate`` for TLB / TwoLevelTLB.

    Set dicts and stats are shared in place; the per-level ``lookup``
    bodies are inlined into ``translate`` so a hit costs one call.
    """
    if type(tlb) is TwoLevelTLB:
        l1cfg = tlb.l1.cfg
        l1st = tlb.l1.stats
        l1_shift = tlb.l1._page_shift
        l1_nsets = tlb.l1._num_sets
        l1_assoc = tlb.l1._assoc
        l1_sets = tlb.l1._sets
        l2st = tlb.l2.stats
        l2_shift = tlb.l2._page_shift
        l2_nsets = tlb.l2._num_sets
        l2_assoc = tlb.l2._assoc
        l2_sets = tlb.l2._sets
        l1_hit = l1cfg.hit_latency
        l2_hit = tlb.l2_hit_latency
        walk_lat = l1cfg.walk_latency
        walk_n = l1cfg.walk_accesses
        shift = tlb.l1._page_shift

        def translate(addr, time):
            l1st.accesses += 1
            vpn = addr >> l1_shift
            s = l1_sets[vpn % l1_nsets]
            if vpn in s:
                s.move_to_end(vpn)
                return time + l1_hit
            l1st.misses += 1
            if len(s) >= l1_assoc:
                s.popitem(last=False)
            s[vpn] = True
            l2st.accesses += 1
            vpn = addr >> l2_shift
            s = l2_sets[vpn % l2_nsets]
            if vpn in s:
                s.move_to_end(vpn)
                return time + l2_hit
            l2st.misses += 1
            if len(s) >= l2_assoc:
                s.popitem(last=False)
            s[vpn] = True
            t = time + walk_lat
            base = 0x8000_0000 + ((addr >> shift) % 4096) * 8
            for level in range(walk_n):
                t = walker(base + level * 4096, t)
            return t

        return translate
    if type(tlb) is TLB:
        cfg = tlb.cfg
        st = tlb.stats
        shift = tlb._page_shift
        nsets = tlb._num_sets
        assoc = tlb._assoc
        sets = tlb._sets
        hit_lat = cfg.hit_latency
        walk_lat = cfg.walk_latency
        walk_n = cfg.walk_accesses

        def translate(addr, time):
            st.accesses += 1
            vpn = addr >> shift
            s = sets[vpn % nsets]
            if vpn in s:
                s.move_to_end(vpn)
                return time + hit_lat
            st.misses += 1
            if len(s) >= assoc:
                s.popitem(last=False)
            s[vpn] = True
            t = time + walk_lat
            base = 0x8000_0000 + ((addr >> shift) % 4096) * 8
            for level in range(walk_n):
                t = walker(base + level * 4096, t)
            return t

        return translate
    # unknown TLB subclass: use its own translate over the fast walker
    return lambda addr, time: tlb.translate(addr, time, walker)


def _mirror_direction(d):
    """Mirror of a direction predictor; returns (step, detach).

    ``step(pc, taken)`` returns the prediction the reference ``predict``
    would make and then applies the reference ``update`` — one call per
    conditional branch.
    """
    if type(d) is BimodalBHT:
        ctr = d._ctr.tolist()
        mask = d.entries - 1

        def step(pc, taken):
            i = (pc >> 2) & mask
            c = ctr[i]
            if taken:
                if c < 3:
                    ctr[i] = c + 1
            elif c > 0:
                ctr[i] = c - 1
            return c >= 2

        def detach():
            d._ctr[:] = ctr

        return step, detach

    if type(d) is GShare:
        ctr = d._ctr.tolist()
        mask = d.entries - 1
        hmask = (1 << d.hist_bits) - 1
        hist = d._hist

        def step(pc, taken):
            nonlocal hist
            i = ((pc >> 2) ^ hist) & mask
            c = ctr[i]
            if taken:
                if c < 3:
                    ctr[i] = c + 1
            elif c > 0:
                ctr[i] = c - 1
            hist = ((hist << 1) | (1 if taken else 0)) & hmask
            return c >= 2

        def detach():
            d._ctr[:] = ctr
            d._hist = hist

        return step, detach

    if type(d) is TAGE and min(d.hist_len) > 0:  # a 0-length table has no CSR
        return _mirror_tage(d)

    def step(pc, taken):
        pred = d.predict(pc)
        d.update(pc, taken)
        return pred

    return step, None


def _mirror_tage(d):
    """TAGE mirror over circular-shift-register folded histories.

    ``TAGE._fold`` XOR-folds the last ``hist_len[t]`` outcomes into a
    ``width``-bit value on every lookup.  Here each table keeps its three
    folds (index at ``nbits``, tag at ``tag_bits``, tag-1 at
    ``tag_bits - 1``) as registers seeded from ``d._hist`` at attach and
    updated in O(1) per history shift (Seznec & Michaud, JILP 2006): rotate
    in the new outcome, XOR out the one leaving the window.  ``_hist`` is a
    64-bit register, so the window is ``min(hist_len[t], 64)``.

    ``step`` makes one provider lookup per branch: it predicts from the
    provider and updates it in place, and allocation and usefulness decay
    index with the same registers.
    """
    nt = d.num_tables
    imask = d.size - 1
    nbits = imask.bit_length()
    tag_bits = d.tag_bits
    tmask = (1 << tag_bits) - 1
    t1bits = tag_bits - 1
    t1mask = tmask >> 1
    ctrs = [a.tolist() for a in d._ctr]
    tags = [a.tolist() for a in d._tag]
    useful = [a.tolist() for a in d._useful]
    base_ctr = d.base._ctr.tolist()
    base_mask = d.base.entries - 1
    hist = d._hist
    win = [min(h, 64) for h in d.hist_len]
    fidx = [d._fold(L, nbits) for L in win]
    ftag = [d._fold(L, tag_bits) for L in win]
    ftag1 = [d._fold(L, t1bits) for L in win]
    # per table: (t, history bit leaving the window, where it sits in each fold)
    shifts = [(t, L - 1, 1 << (L % nbits), 1 << (L % tag_bits),
               1 << (L % t1bits)) for t, L in enumerate(win)]
    scan = range(nt - 1, -1, -1)

    def step(pc, taken):
        nonlocal hist
        p = pc >> 2
        for t in scan:
            i = (p ^ fidx[t]) & imask
            if tags[t][i] == (p ^ ftag[t] ^ (ftag1[t] << 1)) & tmask:
                prov = t
                ct = ctrs[t]
                c = ct[i]
                pred = c >= 0
                if taken:
                    if c < 3:
                        ct[i] = c + 1
                elif c > -4:
                    ct[i] = c - 1
                ut = useful[t]
                u = ut[i]
                if pred == taken:
                    if u < 3:
                        ut[i] = u + 1
                elif u > 0:
                    ut[i] = u - 1
                break
        else:
            prov = -1
            i = p & base_mask
            c = base_ctr[i]
            pred = c >= 2
            if taken:
                if c < 3:
                    base_ctr[i] = c + 1
            elif c > 0:
                base_ctr[i] = c - 1
        if pred != taken and prov < nt - 1:
            for t in range(prov + 1, nt):
                i = (p ^ fidx[t]) & imask
                if useful[t][i] == 0:
                    tags[t][i] = (p ^ ftag[t] ^ (ftag1[t] << 1)) & tmask
                    ctrs[t][i] = 0 if taken else -1
                    break
            else:
                for t in range(prov + 1, nt):
                    ut = useful[t]
                    i = (p ^ fidx[t]) & imask
                    if ut[i] > 0:
                        ut[i] -= 1
        b = 1 if taken else 0
        for t, hb, oi, ot, ot1 in shifts:
            fi = (fidx[t] << 1) | b
            ft = (ftag[t] << 1) | b
            ft1 = (ftag1[t] << 1) | b
            if (hist >> hb) & 1:
                fi ^= oi
                ft ^= ot
                ft1 ^= ot1
            fidx[t] = (fi ^ (fi >> nbits)) & imask
            ftag[t] = (ft ^ (ft >> tag_bits)) & tmask
            ftag1[t] = (ft1 ^ (ft1 >> t1bits)) & t1mask
        hist = ((hist << 1) | b) & 0xFFFF_FFFF_FFFF_FFFF
        return pred

    def detach():
        for t in range(nt):
            d._ctr[t][:] = ctrs[t]
            d._tag[t][:] = tags[t]
            d._useful[t][:] = useful[t]
        d._hist = hist
        d.base._ctr[:] = base_ctr

    # the live registers, per table, for checking them against TAGE._fold
    step.folds = (fidx, ftag, ftag1)
    return step, detach


def _mirror_branch_unit(bru):
    """Closure twin of ``BranchUnit.resolve``; returns (resolve, detach)."""
    if type(bru) is not BranchUnit or type(bru.btb) is not BTB:
        return bru.resolve, None
    bst = bru.stats
    step, dir_detach = _mirror_direction(bru.direction)
    btb = bru.btb
    nsets = btb.sets
    tag_m = btb._tag.tolist()
    tgt_m = btb._target.tolist()
    lru_m = btb._lru.tolist()
    stamp = btb._stamp
    ras = bru.ras._stack
    ras_depth = bru.ras.depth

    def lookup(pc):
        nonlocal stamp
        s = (pc >> 2) % nsets
        tag = pc >> 2
        row = tag_m[s]
        if tag not in row:
            return None
        w = row.index(tag)
        stamp += 1
        lru_m[s][w] = stamp
        return tgt_m[s][w]

    def insert(pc, target):
        nonlocal stamp
        s = (pc >> 2) % nsets
        tag = pc >> 2
        row = tag_m[s]
        if tag in row:
            w = row.index(tag)
        else:
            lr = lru_m[s]
            w = lr.index(min(lr))
        row[w] = tag
        tgt_m[s][w] = target
        stamp += 1
        lru_m[s][w] = stamp

    def resolve(op, pc, taken, target):
        bst.branches += 1
        if op == 6:  # BRANCH
            if step(pc, taken) != taken:
                bst.mispredicts += 1
                if taken:
                    insert(pc, target)
                return 2
            if taken and lookup(pc) != target:
                insert(pc, target)
                bst.btb_misses += 1
                return 1
            return 0
        if op == 7 or op == 8:  # JUMP / CALL
            if op == 8:
                ras.append(pc + 4)
                if len(ras) > ras_depth:
                    del ras[0]
            pred = lookup(pc)
            if pred == target:
                return 0
            insert(pc, target)
            if pred is None:
                bst.btb_misses += 1
                return 1
            bst.mispredicts += 1
            return 2
        if op == 9:  # RET
            pred_target = ras.pop() if ras else None
            if pred_target != target:
                bst.mispredicts += 1
                bst.ras_mispredicts += 1
                return 2
            return 0
        return 0

    def detach():
        btb._tag[:] = tag_m
        btb._target[:] = tgt_m
        btb._lru[:] = lru_m
        btb._stamp = stamp
        if dir_detach is not None:
            dir_detach()

    return resolve, detach


def _inline_prefetcher(pf, contains_f, access_f):
    """Closure twin of ``StridePrefetcher.observe`` over a mirrored cache.

    The reference ``observe`` would probe/fill the numpy tag arrays the
    mirror has superseded mid-run, so prefetch traffic must flow through
    the same fast closures as demand traffic.
    """
    cfg = pf.cfg
    st = pf.stats
    table = pf._table
    line_b = pf._line
    degree = cfg.degree
    min_conf = cfg.min_confidence
    max_entries = cfg.table_entries

    def observe(addr, time):
        line = addr // line_b
        region = addr >> 12
        entry = table.pop(region, None)
        if entry is None:
            table[region] = (line, 0, 0)
        else:
            last, stride, conf = entry
            new_stride = line - last
            if new_stride == 0:
                table[region] = (line, stride, conf)
            elif new_stride == stride:
                conf = conf + 1 if conf < 4 else 4
                table[region] = (line, stride, conf)
                if conf >= min_conf:
                    st.triggers += 1
                    for k in range(1, degree + 1):
                        target = (line + stride * k) * line_b
                        if not contains_f(target):
                            st.issued += 1
                            access_f(target, time, False)
            else:
                table[region] = (line, new_stride, 1)
        if len(table) > max_entries:
            table.pop(next(iter(table)))

    return observe


# -- port attachment ----------------------------------------------------------

def attach_port(port):
    """Build the fast memory call graph over one TilePort's mirrored state.

    Returns ``(dload, dstore, ifetch, detach)`` — closure twins of the
    TilePort entry points (TLB translate, L1 access, prefetcher observe,
    uncore bus/directory/L2 traversal, all over list mirrors).  Shared by
    the in-order and out-of-order engines; ``detach`` flushes every mirror back and must run exactly
    once, even when the simulated trace raises.
    """
    uncore = port.uncore
    l2 = uncore.l2
    below_l2 = l2.next_level
    l2_access, l2_contains, l2_detach = _mirror_cache(
        l2, _mirror_dram(below_l2) if type(below_l2) is DRAM
        else below_l2.access)
    bus = uncore.bus
    bus_st = bus.stats
    bus_tl = bus._timeline
    bus_starts = bus_tl._starts
    bus_ends = bus_tl._ends
    bus_max = bus_tl.max_intervals
    bus_reserve = bus_tl.reserve
    line_bytes = uncore._line
    bus_occ = bus.cfg.beats(line_bytes) / bus.cfg.clock_ratio
    bus_arb = bus.cfg.arbitration_latency
    directory = uncore.directory
    tile_id = port.tile_id
    if directory is not None:
        # bus.transfer + SnoopDirectory.observe + L2, fused; the bus
        # timeline fast-appends monotone arrivals like the bank
        # timelines in _mirror_cache, falling back to reserve()
        dst = directory.stats
        shr = directory._sharers
        own = directory._owner
        inv_lat = directory.invalidate_latency
        max_lines = directory.max_lines
        dir_prune = directory._prune
        bit = 1 << tile_id

        def uncore_access(addr, time, is_store):
            bus_st.transfers += 1
            t = float(time)
            if not bus_ends or t >= bus_ends[-1]:
                bus_starts.append(t)
                bus_ends.append(t + bus_occ)
                if len(bus_ends) > bus_max:
                    drop = len(bus_ends) - bus_max
                    del bus_starts[:drop]
                    del bus_ends[:drop]
                start = t
            else:
                start = bus_reserve(t, bus_occ)
            if start > time:
                bus_st.contention_cycles += int(start - time)
            t = int(start + bus_arb + bus_occ)
            dline = addr // line_bytes
            extra = 0
            sharers = shr.get(dline, 0)
            if is_store:
                others = sharers & ~bit
                if others:
                    dst.invalidations += bin(others).count("1")
                    extra = inv_lat
                prev_owner = own.get(dline)
                if prev_owner is not None and prev_owner != tile_id:
                    dst.ownership_changes += 1
                    if inv_lat > extra:
                        extra = inv_lat
                shr[dline] = bit
                own[dline] = tile_id
            else:
                if dline in own and own[dline] != tile_id:
                    dst.ownership_changes += 1
                    del own[dline]
                    extra = inv_lat
                shr[dline] = sharers | bit
            if len(shr) > max_lines:
                dir_prune()
            return l2_access(addr, t + extra, is_store)
    else:
        def uncore_access(addr, time, is_store):
            bus_st.transfers += 1
            t = float(time)
            if not bus_ends or t >= bus_ends[-1]:
                bus_starts.append(t)
                bus_ends.append(t + bus_occ)
                if len(bus_ends) > bus_max:
                    drop = len(bus_ends) - bus_max
                    del bus_starts[:drop]
                    del bus_ends[:drop]
                start = t
            else:
                start = bus_reserve(t, bus_occ)
            if start > time:
                bus_st.contention_cycles += int(start - time)
            return l2_access(addr, int(start + bus_arb + bus_occ),
                             is_store)

    l1d_access, l1d_contains, l1d_detach = _mirror_cache(
        port.l1d, uncore_access)
    l1i_access, _, l1i_detach = _mirror_cache(port.l1i, uncore_access)

    def walker(addr, time):
        # page-table walks go straight to L2, as TilePort._walker does
        return l2_access(addr, time, False)

    itlb_translate = _fast_tlb(port.itlb, walker)
    dtlb_translate = _fast_tlb(port.dtlb, walker)

    pf = port.prefetcher
    observe = None
    if pf is not None:
        if pf.cache is port.l1d:
            observe = _inline_prefetcher(pf, l1d_contains, l1d_access)
        elif pf.cache is uncore.l2:
            observe = _inline_prefetcher(pf, l2_contains, l2_access)
        else:
            observe = pf.observe  # foreign cache: no mirror to corrupt

    if observe is None:
        def dload(addr, time):
            return l1d_access(addr, dtlb_translate(addr, time), False)

        def dstore(addr, time):
            return l1d_access(addr, dtlb_translate(addr, time), True)
    else:
        def dload(addr, time):
            t = dtlb_translate(addr, time)
            done = l1d_access(addr, t, False)
            observe(addr, t)
            return done

        def dstore(addr, time):
            t = dtlb_translate(addr, time)
            done = l1d_access(addr, t, True)
            observe(addr, t)
            return done

    def ifetch(addr, time):
        return l1i_access(addr, itlb_translate(addr, time), False)

    def detach():
        l1i_detach()
        l1d_detach()
        l2_detach()

    return dload, dstore, ifetch, detach


# -- the engine ---------------------------------------------------------------

class AccelEngine:
    """Drives one :class:`InOrderCore` through the accelerated path."""

    def __init__(self, core) -> None:
        self.core = core

    def run(self, trace, start_time: int = 0) -> CoreResult:
        core = self.core
        cfg = core.cfg
        port = core.port
        bru = core.bru
        astats = core.accel_stats

        view = memo.trace_arrays(trace)
        op_l = view["op"]
        dst_l = view["dst"]
        s1_l = view["src1"]
        s2_l = view["src2"]
        addr_l = view["addr"]
        size_l = view["size"]
        taken_l = view["taken"]
        pc_l = view["pc"]
        tgt_l = view["target"]
        n = len(op_l)
        lat_list = memo.latency_lut(cfg.latencies)

        # ---- attach: build the fast call graph over mirrored state ----
        dload, dstore, ifetch, mem_detach = attach_port(port)
        resolve, bru_detach = _mirror_branch_unit(bru)

        # ---- loop state (identical to the reference prologue) ----
        reg_ready = core._reg_ready
        sb = core._sb
        vcfg = cfg.vector
        vu_free = core._vu_free
        cycle = max(start_time, core._time)
        t0 = cycle
        slots = 0
        mem_used = 0
        ctrl_used = 0
        fe_ready = max(core._fe_ready, cycle)
        cur_line = core._cur_fetch_line
        line_entry = cycle
        div_free = core._div_free
        stall_fe = stall_dep = 0
        stall_mem = stall_struct = 0
        l1d_st = port.l1d.stats
        l1i_st = port.l1i.stats
        bst = bru.stats
        l1d_miss0 = l1d_st.misses
        l1i_miss0 = l1i_st.misses
        br0, mp0 = bst.branches, bst.mispredicts
        sb_depth = cfg.store_buffer
        flush_pen = cfg.flush_penalty
        bubble_pen = cfg.bubble_penalty
        icache_hit = core._icache_hit
        W = cfg.issue_width
        mem_ports = cfg.mem_ports
        pipelined_div = cfg.pipelined_div
        load_to_use = cfg.load_to_use
        amo_extra = cfg.latencies.amo_extra
        try:
            for i in range(n):
                op = op_l[i]
                pc = pc_l[i]

                line = pc >> 6
                if line != cur_line:
                    need_at = cycle if cycle > fe_ready else fe_ready
                    issue_at = (line_entry if line == cur_line + 1
                                else need_at)
                    cur_line = line
                    done = ifetch(pc, issue_at)
                    extra = done - need_at - icache_hit
                    if extra > 0:
                        fe_ready = need_at + extra
                        stall_fe += extra
                    line_entry = fe_ready if fe_ready > cycle else cycle

                t = cycle
                if fe_ready > t:
                    t = fe_ready
                s1 = s1_l[i]
                if s1 > 0:
                    r = reg_ready[s1]
                    if r > t:
                        stall_dep += r - t
                        t = r
                s2 = s2_l[i]
                if s2 > 0:
                    r = reg_ready[s2]
                    if r > t:
                        stall_dep += r - t
                        t = r

                if op == 3 and not pipelined_div and div_free > t:
                    stall_struct += div_free - t
                    t = div_free
                if 20 <= op <= 23:
                    if vcfg is None:
                        raise ValueError(
                            "trace contains RVV vector ops but this "
                            "core has no vector unit "
                            "(InOrderConfig.vector is None)"
                        )
                    if vu_free > t:
                        stall_struct += vu_free - t
                        t = vu_free

                if t > cycle:
                    cycle = t
                    slots = 0
                    mem_used = 0
                    ctrl_used = 0
                is_mem = (op == 4 or op == 5 or op == 19
                          or op == 20 or op == 21)
                is_ctrl = 6 <= op <= 9
                while (slots >= W
                       or (is_mem and mem_used >= mem_ports)
                       or (is_ctrl and ctrl_used >= 1)):
                    cycle += 1
                    slots = 0
                    mem_used = 0
                    ctrl_used = 0
                t = cycle
                slots += 1
                if is_mem:
                    mem_used += 1
                if is_ctrl:
                    ctrl_used += 1

                dst = dst_l[i]
                if op == 4:  # LOAD
                    done = dload(addr_l[i], t + 1)
                    if dst > 0:
                        reg_ready[dst] = done + load_to_use
                elif op == 5:  # STORE
                    while sb and sb[0] <= t:
                        sb.popleft()
                    if len(sb) >= sb_depth:
                        wait = sb.popleft()
                        if wait > t:
                            stall_mem += wait - t
                            cycle = wait
                            slots = 1
                            mem_used = 1
                            ctrl_used = 0
                            t = wait
                    done = dstore(addr_l[i], t + 1)
                    sb.append(done)
                elif op == 19:  # AMO
                    done = dstore(addr_l[i], t + 1) + amo_extra
                    if dst > 0:
                        reg_ready[dst] = done
                elif op == 20 or op == 21:  # VLOAD / VSTORE
                    nbytes = size_l[i]
                    base_addr = addr_l[i]
                    is_st = op == 21
                    done = t + 1
                    macc = dstore if is_st else dload
                    for off in range(0, nbytes, 64):
                        acc = macc(base_addr + off, t + 1)
                        if acc > done:
                            done = acc
                    occ = vcfg.startup + vcfg.mem_beats(nbytes)
                    vu_free = t + occ
                    if dst > 0 and not is_st:
                        reg_ready[dst] = max(done, t + occ)
                elif op == 22 or op == 23:  # VALU / VFMA
                    occ = vcfg.startup + vcfg.exec_beats(size_l[i] * 8)
                    vu_free = t + occ
                    if dst > 0:
                        reg_ready[dst] = t + occ + lat_list[op] - 1
                elif is_ctrl:
                    kind = resolve(op, pc, taken_l[i], tgt_l[i])
                    if kind == 2:
                        fe_ready = t + 1 + flush_pen
                    elif kind == 1:
                        fe_ready = t + 1 + bubble_pen
                    if dst > 0:
                        reg_ready[dst] = t + 1
                else:
                    l = lat_list[op]
                    if dst > 0:
                        reg_ready[dst] = t + l
                    if op == 3 and not pipelined_div:
                        div_free = t + l
        finally:
            mem_detach()
            if bru_detach is not None:
                bru_detach()
            astats.fallback_uops += n
            memo.global_stats().fallback_uops += n

        end = cycle + cfg.pipeline_depth - 1
        core._time = cycle + 1
        core._fe_ready = fe_ready
        core._cur_fetch_line = cur_line
        core._div_free = div_free
        core._vu_free = vu_free
        return CoreResult(
            cycles=end - t0,
            instructions=n,
            stalls={
                "frontend": stall_fe,
                "dep": stall_dep,
                "mem": stall_mem,
                "structural": stall_struct,
            },
            branches=bst.branches - br0,
            mispredicts=bst.mispredicts - mp0,
            l1d_misses=l1d_st.misses - l1d_miss0,
            l1i_misses=l1i_st.misses - l1i_miss0,
        )
