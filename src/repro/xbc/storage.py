"""The XBC data/tag array (§3.2, §3.4, §3.10).

Geometry: ``num_sets`` sets × ``banks`` banks × ``ways_per_bank`` ways,
each way holding one ``line_uops``-uop line.  A stored XB occupies one
line in each of 1..banks *distinct* banks of a single set; the line
holding the XB's end is *order* 0, the preceding line order 1, etc.
(the paper's number field).

Uops are stored in **reverse order** (§3.4): the line at order ``k``
holds the uops at distances ``[k*line_uops, k*line_uops + line_uops)``
counted backward from the XB's ending instruction, so extending an XB
at its head never moves existing uops — the reverse-order trick that
motivates end-IP indexing.

Complex XBs (§3.3) are *variants*: multiple prefixes sharing the same
tag and the same full suffix lines.  A variant is denoted by a bank
mask.  Divergence from the paper: the paper suggests placing sibling
prefixes in different ways of the *same* bank; we place them in
*different* banks because a (tag, order) match in one bank cannot
otherwise be attributed to the right prefix.  The capacity effect is
identical; only the conflict pattern differs marginally.

Replacement is per-line LRU with the paper's head-line rule
approximated structurally: evicting a line of order *k* garbage-
collects all same-tag lines of order > *k* in the set (they hold
earlier uops that are unreachable without the evicted line), so
lower-order (end-side) lines — which serve mid-XB entries — are never
orphaned by the eviction of an upstream line.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.bitutils import log2_exact
from repro.common.errors import SimulationError
from repro.xbc.config import XbcConfig

#: (bank, way) location of one line inside a set.
Slot = Tuple[int, int]


class XbcLine:
    """One data-array line: a tag, an order, and reversed uop slots.

    Lines carry their own (bank, way) coordinates plus a residency
    flag, maintained by the storage on every placement, move and
    eviction.  Identity-based lookups (variant line references) become
    O(1) attribute reads instead of set scans.
    """

    __slots__ = ("tag", "order", "uops", "tup", "stamp", "bank", "way",
                 "resident")

    def __init__(self, tag: int, order: int, uops: List[int], stamp: int) -> None:
        self.tag = tag
        self.order = order
        self.uops = uops  # uops[j] = uid at distance order*line_uops + j
        self.tup = tuple(uops)  # immutable mirror for fast content compares
        self.stamp = stamp
        self.bank = -1
        self.way = -1
        self.resident = False


class XbcStorage:
    """Banked, set-associative storage for extended blocks."""

    def __init__(self, config: XbcConfig) -> None:
        config.validate()
        self.config = config
        self.num_sets = config.num_sets
        log2_exact(self.num_sets)
        self._set_mask = self.num_sets - 1
        self.banks = config.banks
        self.ways = config.ways_per_bank
        self.line_uops = config.line_uops
        self._sets: List[List[List[Optional[XbcLine]]]] = [
            [[None] * self.ways for _ in range(self.banks)]
            for _ in range(self.num_sets)
        ]
        #: per-set directory: tag -> resident lines of that tag.  This
        #: is the moral equivalent of a real tag array — lookups touch
        #: only the (few) lines of the probed tag instead of scanning
        #: every bank and way of the set.
        self._tags: List[Dict[int, List[XbcLine]]] = [
            {} for _ in range(self.num_sets)
        ]
        self._clock = 0
        #: bumped on every content/placement mutation (place, remove,
        #: in-place extension, relocation).  Probe results are pure
        #: functions of (version, arguments); callers may cache them
        #: across cycles while the version is unchanged.
        self.version = 0
        #: per-set mutation counters.  An XB's lines all live in the set
        #: named by its end-IP, so a probe/variant-validity memo keyed
        #: by the *set* version survives mutations in other sets — which
        #: is most of them (build interludes touch a handful of sets).
        self.set_versions: List[int] = [0] * self.num_sets
        self._deferrals: Dict[Tuple[int, int], int] = {}
        #: exact ``{order: (bank, way)}`` placement of the last
        #: successful insert/extend/add_variant — the fill unit records
        #: it into the variant (the "way select" the paper's same-bank
        #: prefix sharing implies).
        self.last_placement: Dict[int, Slot] = {}
        #: the line objects of the last placement, order-indexed.  A
        #: variant holds these references: dynamic placement may move a
        #: line between banks, but identity survives — only eviction
        #: (the line leaving the set) invalidates the variant.
        self.last_lines: List[XbcLine] = []

        # counters
        self.inserts = 0
        self.extensions = 0
        self.variants_added = 0
        self.evictions = 0
        self.gc_evictions = 0
        self.relocations = 0
        self.placement_failures = 0

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------

    def index_of(self, xb_ip: int) -> int:
        """Set index of the XB ending at *xb_ip*."""
        return (xb_ip >> 1) & self._set_mask

    def orders_for(self, offset: int) -> int:
        """Number of lines (orders 0..n-1) an *offset*-uop entry needs."""
        return (offset + self.line_uops - 1) // self.line_uops

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    # ------------------------------------------------------------------
    # lookup paths
    # ------------------------------------------------------------------

    def probe(
        self,
        xb_ip: int,
        mask: int,
        offset: int,
        expected_rev: Optional[Sequence[int]] = None,
    ) -> Optional[Dict[int, Slot]]:
        """Directory lookup via a pointer's bank mask.

        Returns ``{order: (bank, way)}`` covering orders
        ``0..orders_for(offset)-1`` on a hit, else ``None``.  When
        *expected_rev* (uops in reverse order) is given, line contents
        are verified against it — a mismatch is a miss, which sends the
        frontend down the set-search path.
        """
        if expected_rev is not None and type(expected_rev) is not tuple:
            expected_rev = tuple(expected_rev)
        if mask >> self.banks:
            return None  # corrupt/stale mask
        line_uops = self.line_uops
        needed = (offset + line_uops - 1) // line_uops
        bucket = self._tags[(xb_ip >> 1) & self._set_mask].get(xb_ip)
        if bucket is None:
            return None
        found: Dict[int, Slot] = {}
        for line in bucket:
            order = line.order
            if order >= needed:
                continue
            bank = line.bank
            if not (mask >> bank) & 1:
                continue
            if expected_rev is not None:
                # content check, inlined from _content_ok
                base = order * line_uops
                tup = line.tup
                avail = len(expected_rev) - base
                if avail <= 0:
                    continue
                if avail >= len(tup):
                    if expected_rev[base : base + len(tup)] != tup:
                        continue
                elif tup[:avail] != expected_rev[base : base + avail]:
                    continue
            slot = (bank, line.way)
            cur = found.get(order)
            # Duplicate orders (sibling variants sharing a bank) resolve
            # to the lowest (bank, way), matching the bank/way scan order.
            if cur is None or slot < cur:
                found[order] = slot
        if len(found) < needed:
            return None
        return found

    def _content_ok(self, line: XbcLine, expected_rev: Tuple[int, ...]) -> bool:
        base = line.order * self.line_uops
        tup = line.tup
        avail = len(expected_rev) - base
        if avail <= 0:
            return False
        if avail >= len(tup):
            return expected_rev[base : base + len(tup)] == tup
        return tup[:avail] == expected_rev[base : base + avail]

    def set_search(
        self,
        xb_ip: int,
        offset: int,
        expected_rev: Optional[Sequence[int]] = None,
    ) -> Optional[Tuple[int, Dict[int, Slot]]]:
        """§3.9: search the whole set for a relocated XB.

        Returns ``(repaired_mask, mapping)`` on success.  The repaired
        mask covers exactly the orders the entry needs.
        """
        if expected_rev is not None and type(expected_rev) is not tuple:
            expected_rev = tuple(expected_rev)
        needed = self.orders_for(offset)
        bucket = self._tags[self.index_of(xb_ip)].get(xb_ip)
        if bucket is None:
            return None
        found: Dict[int, Slot] = {}
        for line in bucket:
            order = line.order
            if order >= needed:
                continue
            if expected_rev is not None and not self._content_ok(
                line, expected_rev
            ):
                continue
            slot = (line.bank, line.way)
            cur = found.get(order)
            if cur is None or slot < cur:
                found[order] = slot
        if len(found) < needed:
            return None
        mask = 0
        for bank, _way in found.values():
            mask |= 1 << bank
        return mask, found

    def touch(self, set_idx: int, mapping: Dict[int, Slot]) -> None:
        """LRU-refresh the accessed lines."""
        self._clock += 1
        stamp = self._clock
        set_lines = self._sets[set_idx]
        for bank, way in mapping.values():
            line = set_lines[bank][way]
            if line is not None:
                line.stamp = stamp

    def read_variant(self, xb_ip: int, mask: int) -> Optional[List[int]]:
        """Reconstruct a stored variant's full uops in program order.

        ``None`` when any line of the variant has been evicted (the
        caller drops the stale variant record).
        """
        if mask >> self.banks:
            return None
        by_order: Dict[int, XbcLine] = {}
        for line in self._tags[self.index_of(xb_ip)].get(xb_ip, ()):
            if (mask >> line.bank) & 1:
                if line.order in by_order:
                    return None  # ambiguous mask: treat as stale
                by_order[line.order] = line
        if not by_order or sorted(by_order) != list(range(len(by_order))):
            return None
        reversed_uops: List[int] = []
        for order in range(len(by_order)):
            reversed_uops.extend(by_order[order].uops)
        return reversed_uops[::-1]

    def variant_length(self, xb_ip: int, mask: int) -> Optional[int]:
        """Stored length of a variant, with :meth:`read_variant`'s
        acceptance rules, without materialising the uops."""
        if mask >> self.banks:
            return None
        by_order: Dict[int, int] = {}
        for line in self._tags[self.index_of(xb_ip)].get(xb_ip, ()):
            if (mask >> line.bank) & 1:
                if line.order in by_order:
                    return None  # ambiguous mask: treat as stale
                by_order[line.order] = len(line.uops)
        if not by_order or sorted(by_order) != list(range(len(by_order))):
            return None
        return sum(by_order.values())

    def read_slots(
        self, xb_ip: int, slots: Dict[int, Slot]
    ) -> Optional[List[int]]:
        """Reconstruct a variant from its recorded slots, program order.

        The slot map is the way-select information that makes same-bank
        sibling prefixes unambiguous.  ``None`` when any slot no longer
        holds the expected (tag, order) line.
        """
        if not slots or sorted(slots) != list(range(len(slots))):
            return None
        set_lines = self._sets[self.index_of(xb_ip)]
        reversed_uops: List[int] = []
        for order in range(len(slots)):
            bank, way = slots[order]
            if bank >= self.banks or way >= self.ways:
                return None
            line = set_lines[bank][way]
            if line is None or line.tag != xb_ip or line.order != order:
                return None
            reversed_uops.extend(line.uops)
        return reversed_uops[::-1]

    def locate_lines(
        self, xb_ip: int, lines: List[XbcLine]
    ) -> Optional[Dict[int, Slot]]:
        """Current (bank, way) of each referenced line, by identity.

        Dynamic placement may move lines between banks; identity search
        keeps variant records valid across moves.  ``None`` when any
        referenced line has been evicted from the set.
        """
        found: Dict[int, Slot] = {}
        for line in lines:
            if not line.resident:
                return None
            found[line.order] = (line.bank, line.way)
        if len(found) != len(lines):
            return None
        return found

    def read_lines(self, xb_ip: int, lines: List[XbcLine]) -> Optional[List[int]]:
        """Reconstruct a variant from its line references, program order."""
        if self.locate_lines(xb_ip, lines) is None:
            return None
        reversed_uops: List[int] = []
        for order, line in enumerate(lines):
            if line.tag != xb_ip or line.order != order:
                return None
            reversed_uops.extend(line.uops)
        return reversed_uops[::-1]

    # ------------------------------------------------------------------
    # build paths
    # ------------------------------------------------------------------

    def insert_xb(self, xb_ip: int, uops: Sequence[int], avoid_mask: int = 0) -> Optional[int]:
        """Store a fresh XB; returns its bank mask, or None if unplaceable.

        Smart build placement (§3.10): banks not in *avoid_mask* (the
        previous XB's banks) are preferred so consecutive XBs can be
        fetched in one cycle.
        """
        if not uops:
            raise SimulationError("cannot store an empty XB")
        if len(uops) > self.config.max_xb_uops:
            raise SimulationError(
                f"XB of {len(uops)} uops exceeds {self.config.max_xb_uops}"
            )
        set_idx = self.index_of(xb_ip)
        count = self.orders_for(len(uops))
        # A fresh insert means no live variant references this tag, so any
        # same-tag lines are dead (their XBTB entry or variant records are
        # gone).  Purge them first: they would otherwise make (tag, order)
        # lookups ambiguous within a bank.
        self._purge_tag(set_idx, xb_ip)
        banks = self._choose_banks(set_idx, count, avoid_mask, xb_ip)
        if banks is None:
            self.placement_failures += 1
            return None
        rev = list(uops)[::-1]
        stamp = self._tick()
        mask = 0
        placement: Dict[int, Slot] = {}
        lines: List[XbcLine] = []
        for order, bank in enumerate(banks):
            way = self._make_room(set_idx, bank, xb_ip)
            chunk = rev[order * self.line_uops : (order + 1) * self.line_uops]
            line = XbcLine(xb_ip, order, chunk, stamp)
            self._place(set_idx, bank, way, line)
            mask |= 1 << bank
            placement[order] = (bank, way)
            lines.append(line)
        self.inserts += 1
        self.last_placement = placement
        self.last_lines = lines
        return mask

    def extend_xb(
        self,
        xb_ip: int,
        mask: int,
        old_len: int,
        added: Sequence[int],
        mapping: Optional[Dict[int, Slot]] = None,
    ) -> Optional[int]:
        """§3.3 case 2: extend a stored XB at its head, in place.

        *added* is the new prefix in program order.  Thanks to
        reverse-order storage the existing uops stay put: the partial
        top line is filled and further lines are allocated in banks not
        already used by the XB.  Returns the new mask or ``None`` when
        no distinct bank could be allocated.

        Callers holding the variant's own line mapping MUST pass it:
        a bare mask probe cannot distinguish sibling variants sharing
        banks, and extending the wrong sibling corrupts it.
        """
        new_len = old_len + len(added)
        if new_len > self.config.max_xb_uops:
            raise SimulationError(
                f"extension to {new_len} uops exceeds {self.config.max_xb_uops}"
            )
        set_idx = self.index_of(xb_ip)
        if mapping is None:
            mapping = self.probe(xb_ip, mask, old_len)
        if mapping is None:
            return None
        rev_added = list(added)[::-1]  # distances old_len .. new_len-1
        stamp = self._tick()

        top_order = (old_len - 1) // self.line_uops
        top_bank, top_way = mapping[top_order]
        top_line = self._sets[set_idx][top_bank][top_way]
        free = self.line_uops - len(top_line.uops)
        take = min(free, len(rev_added))
        top_line.uops.extend(rev_added[:take])
        top_line.tup = tuple(top_line.uops)
        top_line.stamp = stamp
        self.version += 1
        self.set_versions[set_idx] += 1
        rest = rev_added[take:]

        placement = dict(mapping)
        lines: List[XbcLine] = [
            self._sets[set_idx][mapping[o][0]][mapping[o][1]]
            for o in range(top_order + 1)
        ]
        new_mask = mask
        order = top_order + 1
        while rest:
            bank = self._choose_banks(set_idx, 1, avoid_mask=new_mask, tag=xb_ip,
                                      hard_exclude=new_mask)
            if bank is None:
                # Roll back is not needed: the filled slots are a valid
                # (shorter) extension; report the achieved length via mask.
                self.placement_failures += 1
                return None
            way = self._make_room(set_idx, bank[0], xb_ip)
            chunk = rest[: self.line_uops]
            rest = rest[self.line_uops :]
            line = XbcLine(xb_ip, order, chunk, stamp)
            self._place(set_idx, bank[0], way, line)
            new_mask |= 1 << bank[0]
            placement[order] = (bank[0], way)
            lines.append(line)
            order += 1
        self.extensions += 1
        self.last_placement = placement
        self.last_lines = lines
        return new_mask

    def add_variant(
        self,
        xb_ip: int,
        full_uops: Sequence[int],
        reuse_mapping: Dict[int, Slot],
        reuse_len: int,
        reuse_mask: int,
    ) -> Optional[int]:
        """§3.3 case 3: store a new prefix sharing full suffix lines.

        *reuse_len* is the shared-suffix length in uops; only its whole
        lines (``reuse_len // line_uops``) are shared — the boundary
        partial, if any, is re-stored inside the new variant's own lines
        (a few uops of controlled redundancy, unavoidable at line
        granularity).  Returns the new variant's mask.
        """
        if len(full_uops) > self.config.max_xb_uops:
            raise SimulationError(
                f"variant of {len(full_uops)} uops exceeds "
                f"{self.config.max_xb_uops}"
            )
        set_idx = self.index_of(xb_ip)
        shared_lines = reuse_len // self.line_uops
        shared_mask = 0
        for order in range(shared_lines):
            if order not in reuse_mapping:
                return None
            bank, _way = reuse_mapping[order]
            shared_mask |= 1 << bank
        rev = list(full_uops)[::-1]
        own_rev = rev[shared_lines * self.line_uops :]
        own_orders = self.orders_for(len(rev)) - shared_lines
        placement = {
            order: reuse_mapping[order] for order in range(shared_lines)
        }
        lines: List[XbcLine] = [
            self._sets[set_idx][reuse_mapping[o][0]][reuse_mapping[o][1]]
            for o in range(shared_lines)
        ]
        if own_orders == 0:
            self.last_placement = placement
            self.last_lines = lines
            return shared_mask

        # Own lines must avoid the shared banks (one line per bank per
        # access) but MAY share a bank with a sibling prefix in the
        # other way — the paper's §3.3 placement hint; the variant's
        # recorded slots disambiguate the ways.
        banks = self._choose_banks(
            set_idx, own_orders, avoid_mask=shared_mask, tag=xb_ip,
            hard_exclude=shared_mask,
        )
        if banks is None:
            self.placement_failures += 1
            return None
        stamp = self._tick()
        mask = shared_mask
        for i, bank in enumerate(banks):
            order = shared_lines + i
            way = self._make_room(set_idx, bank, xb_ip)
            chunk = own_rev[i * self.line_uops : (i + 1) * self.line_uops]
            line = XbcLine(xb_ip, order, chunk, stamp)
            self._place(set_idx, bank, way, line)
            mask |= 1 << bank
            placement[order] = (bank, way)
            lines.append(line)
        self.variants_added += 1
        self.last_placement = placement
        self.last_lines = lines
        return mask

    # ------------------------------------------------------------------
    # placement internals
    # ------------------------------------------------------------------

    def _place(self, set_idx: int, bank: int, way: int, line: XbcLine) -> None:
        """Install *line* at (bank, way) and index it under its tag."""
        self.version += 1
        self.set_versions[set_idx] += 1
        self._sets[set_idx][bank][way] = line
        line.bank = bank
        line.way = way
        line.resident = True
        tags = self._tags[set_idx]
        bucket = tags.get(line.tag)
        if bucket is None:
            tags[line.tag] = [line]
        else:
            bucket.append(line)

    def _remove(self, set_idx: int, line: XbcLine) -> None:
        """Clear *line*'s slot and drop it from the tag directory."""
        self.version += 1
        self.set_versions[set_idx] += 1
        self._sets[set_idx][line.bank][line.way] = None
        line.resident = False
        tags = self._tags[set_idx]
        bucket = tags[line.tag]
        bucket.remove(line)
        if not bucket:
            del tags[line.tag]

    def _purge_tag(self, set_idx: int, tag: int) -> None:
        """Drop every line of *tag* in the set (dead-variant cleanup)."""
        bucket = self._tags[set_idx].get(tag)
        if not bucket:
            return
        for line in list(bucket):
            self._remove(set_idx, line)
            self.evictions += 1

    def _choose_banks(
        self,
        set_idx: int,
        count: int,
        avoid_mask: int,
        tag: int,
        hard_exclude: int = 0,
    ) -> Optional[List[int]]:
        """Pick *count* distinct banks for new lines of *tag*.

        Soft preference against *avoid_mask* (bank-conflict avoidance);
        banks in *hard_exclude* (already used by the same XB/variant)
        are never chosen.  Within a bank the eventual victim way must
        not hold a same-tag line, or eviction GC would eat the very XB
        being written.
        """
        candidates: List[Tuple[Tuple[int, int], int]] = []
        set_lines = self._sets[set_idx]
        for bank in range(self.banks):
            if (hard_exclude >> bank) & 1:
                continue
            victim_way = self._victim_way(set_idx, bank, tag)
            if victim_way is None:
                continue
            line = set_lines[bank][victim_way]
            age = -1 if line is None else line.stamp
            penalty = 1 if (avoid_mask >> bank) & 1 else 0
            candidates.append(((penalty, age), bank))
        if len(candidates) < count:
            return None
        candidates.sort()
        return [bank for _score, bank in candidates[:count]]

    def _victim_way(self, set_idx: int, bank: int, tag: int) -> Optional[int]:
        """Way to (re)use in *bank*: an empty way, else the LRU way not
        holding a same-tag line."""
        set_lines = self._sets[set_idx]
        best: Optional[int] = None
        best_stamp = None
        for way in range(self.ways):
            line = set_lines[bank][way]
            if line is None:
                return way
            if line.tag == tag:
                continue
            if best is None or line.stamp < best_stamp:
                best = way
                best_stamp = line.stamp
        return best

    def _make_room(self, set_idx: int, bank: int, tag: int) -> int:
        """Clear (evicting if needed) and return a way in *bank*."""
        way = self._victim_way(set_idx, bank, tag)
        if way is None:
            raise SimulationError(
                f"no victim way in set {set_idx} bank {bank} for tag {tag:#x}"
            )
        line = self._sets[set_idx][bank][way]
        if line is not None:
            self._evict(set_idx, bank, way)
        return way

    def _evict(self, set_idx: int, bank: int, way: int) -> None:
        """Evict a line plus the same-tag higher-order lines it strands."""
        line = self._sets[set_idx][bank][way]
        self._remove(set_idx, line)
        self.evictions += 1
        bucket = self._tags[set_idx].get(line.tag)
        if bucket:
            for other in [o for o in bucket if o.order > line.order]:
                self._remove(set_idx, other)
                self.gc_evictions += 1

    def truncate_tag(self, xb_ip: int, keep_mask: int) -> int:
        """Drop every line of *xb_ip* outside the banks in *keep_mask*.

        Used when a set has no room for a new prefix variant (§3.3
        case 3 under pressure): the shared suffix lines in *keep_mask*
        survive — they serve every variant — while deeper prefix lines
        (of this and sibling variants) are freed so the new prefix can
        be placed.  Returns lines removed.
        """
        set_idx = self.index_of(xb_ip)
        removed = 0
        bucket = self._tags[set_idx].get(xb_ip)
        if bucket:
            for line in list(bucket):
                if (keep_mask >> line.bank) & 1:
                    continue
                self._remove(set_idx, line)
                self.evictions += 1
                removed += 1
        return removed

    def age_variant(self, xb_ip: int, mask: int) -> None:
        """Drop a variant's lines to the bottom of the LRU order.

        Used when promotion copies an XB into a combined XB (§3.8): the
        original location becomes the least valuable copy.
        """
        for line in self._tags[self.index_of(xb_ip)].get(xb_ip, ()):
            if (mask >> line.bank) & 1:
                line.stamp = 0

    # ------------------------------------------------------------------
    # dynamic placement (§3.10)
    # ------------------------------------------------------------------

    def note_deferral(self, xb_ip: int) -> bool:
        """Record one bank-conflict deferral for an XB.

        Returns True when the configured threshold is crossed (the
        counter resets), signalling the frontend to relocate.
        """
        key = (self.index_of(xb_ip), xb_ip)
        count = self._deferrals.get(key, 0) + 1
        if count >= self.config.conflict_move_threshold:
            self._deferrals[key] = 0
            return True
        self._deferrals[key] = count
        return False

    def relocate_line(
        self,
        set_idx: int,
        bank: int,
        way: int,
        forbidden_mask: int,
    ) -> Optional[int]:
        """Move a line to a less-contended bank (swap or move-to-empty).

        The target bank must not be in *forbidden_mask* and its victim
        way must be older than the moving line (the paper's "only if
        its LRU is higher" rule).  Pointer masks referencing the old
        location heal through set search.  Returns the new bank.
        """
        set_lines = self._sets[set_idx]
        line = set_lines[bank][way]
        if line is None:
            return None
        for target_bank in range(self.banks):
            if target_bank == bank or (forbidden_mask >> target_bank) & 1:
                continue
            for target_way in range(self.ways):
                other = set_lines[target_bank][target_way]
                if other is not None and other.tag == line.tag:
                    break  # would create same-tag ambiguity in that bank
                if other is None or other.stamp < line.stamp:
                    self.version += 1
                    self.set_versions[set_idx] += 1
                    set_lines[target_bank][target_way] = line
                    set_lines[bank][way] = other
                    line.bank, line.way = target_bank, target_way
                    if other is not None:
                        other.bank, other.way = bank, way
                    self.relocations += 1
                    return target_bank
        return None

    # ------------------------------------------------------------------
    # audits
    # ------------------------------------------------------------------

    def resident_lines(self) -> List[XbcLine]:
        """Every valid line (tests and audits)."""
        out = []
        for set_lines in self._sets:
            for bank in set_lines:
                for line in bank:
                    if line is not None:
                        out.append(line)
        return out

    def resident_uops(self) -> int:
        """Total uops stored right now."""
        return sum(len(line.uops) for line in self.resident_lines())

    def redundancy(self) -> float:
        """Average copies per distinct resident uop.

        The XBC's design target is 1.0; the only excess comes from
        line-boundary duplicates of complex variants.
        """
        copies: Dict[int, int] = {}
        for line in self.resident_lines():
            for uid in line.uops:
                copies[uid] = copies.get(uid, 0) + 1
        if not copies:
            return 1.0
        return sum(copies.values()) / len(copies)
