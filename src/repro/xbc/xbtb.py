"""The XBTB: the XBC's tightly-coupled next-XB predictor (§3.5).

The XBC can only be reached *through* the XBTB: every entry describes
one XB (keyed by its end-IP) and carries the pointers to its possible
successors — the taken-path XB and the fall-through XB for conditional
enders, the callee/return pair for calls, nothing for indirect enders
(the XiBTB predicts those) — plus the 7-bit promotion bias counter of
§3.8 and the record of where the XB's stored copies (variants) live.

The XBP (gshare), XiBTB (indirect-target predictor) and XRSB (return
stack) of Figure 4 are instantiated by the frontend from the generic
predictors in :mod:`repro.branch`; this module provides the table and
entry structures they select pointers from.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.branch.bias import BiasCounter
from repro.common.bitutils import log2_exact
from repro.isa.instruction import InstrKind
from repro.xbc.config import XbcConfig
from repro.xbc.pointer import XbPointer
from repro.xbc.storage import XbcStorage


class XbVariant:
    """One stored copy of an XB: bank mask, length, and exact slots.

    ``lines`` holds references to the variant's physical lines, in
    order — the way-select record that lets sibling prefixes share a
    bank in different ways (§3.3's placement hint) without ambiguity,
    and that survives dynamic-placement moves.  Variant records are
    *hints*: storage eviction invalidates them silently, and the fill
    unit re-validates (dropping stale records) before trusting one.
    """

    __slots__ = ("mask", "length", "lines")

    def __init__(self, mask: int, length: int, lines=None) -> None:
        self.mask = mask
        self.length = length
        self.lines = list(lines) if lines else None

    def read(self, storage: XbcStorage, xb_ip: int):
        """The variant's uops in program order, or None when stale."""
        if self.lines is not None:
            return storage.read_lines(xb_ip, self.lines)
        return storage.read_variant(xb_ip, self.mask)

    def locate(self, storage: XbcStorage, xb_ip: int):
        """Current {order: (bank, way)} mapping, or None when stale."""
        if self.lines is not None:
            return storage.locate_lines(xb_ip, self.lines)
        return storage.probe(xb_ip, self.mask, self.length)

    def alive_length(self, storage: XbcStorage, xb_ip: int) -> Optional[int]:
        """Stored length, with :meth:`read`'s staleness rules, without
        materialising the uops."""
        lines = self.lines
        if lines is not None:
            total = 0
            order = 0
            for line in lines:
                if not line.resident or line.tag != xb_ip or line.order != order:
                    return None
                total += len(line.uops)
                order += 1
            return total
        return storage.variant_length(xb_ip, self.mask)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"XbVariant(mask={self.mask:#06b}, length={self.length})"


class XbtbEntry:
    """Per-XB prediction state."""

    __slots__ = (
        "xb_ip",
        "end_kind",
        "taken_ptr",
        "nt_ptr",
        "bias",
        "promoted",
        "forward_xb_ip",
        "forward_len1",
        "variants",
        "stamp",
        "_vv_version",
        "_vv_len",
        "promo_fail",
    )

    def __init__(self, xb_ip: int, end_kind: Optional[InstrKind]) -> None:
        self.xb_ip = xb_ip
        self.end_kind = end_kind
        #: successor on the taken path (callee XB for calls).
        self.taken_ptr: Optional[XbPointer] = None
        #: fall-through successor (return-successor XB for calls).
        self.nt_ptr: Optional[XbPointer] = None
        self.bias = BiasCounter()
        #: promoted direction (§3.8), or None when not promoted.
        self.promoted: Optional[bool] = None
        #: end-IP of the combined XB this promoted XB was folded into.
        self.forward_xb_ip: Optional[int] = None
        #: uops of the following XB inside the combined XB.
        self.forward_len1: int = 0
        #: stored copies of this XB.
        self.variants: List[XbVariant] = []
        #: LRU stamp (maintained by the owning table).
        self.stamp = 0
        #: memo of the last :meth:`valid_variants` pass — valid while
        #: the storage version and the variant count are unchanged.
        self._vv_version = -1
        self._vv_len = -1
        #: memo of the last failed promotion attempt: ``(key, code)``
        #: where *key* captures every input the attempt read (see
        #: :meth:`repro.xbc.promotion.Promoter._try_promote`).
        self.promo_fail = None

    # ------------------------------------------------------------------

    def pointer_for(self, taken: bool) -> Optional[XbPointer]:
        """Successor pointer for a resolved direction."""
        return self.taken_ptr if taken else self.nt_ptr

    def set_pointer(self, taken: bool, pointer: XbPointer) -> None:
        """Install/overwrite the successor pointer for a direction."""
        if taken:
            self.taken_ptr = pointer
        else:
            self.nt_ptr = pointer

    def demote(self) -> None:
        """§3.8: de-promote a misbehaving promoted branch."""
        self.promoted = None
        self.forward_xb_ip = None
        self.forward_len1 = 0

    def valid_variants(self, storage: XbcStorage) -> List[XbVariant]:
        """Variants still fully resident, dropping stale records.

        Memoized on the storage version: variants can only go stale
        through a storage mutation (which bumps the version), and any
        variant-list mutation changes the list length, so an unchanged
        (version, count) pair means the last validation still holds.
        """
        variants = self.variants
        version = storage.set_versions[
            (self.xb_ip >> 1) & storage._set_mask
        ]
        if version == self._vv_version and len(variants) == self._vv_len:
            return variants
        alive: List[XbVariant] = []
        for variant in self.variants:
            length = variant.alive_length(storage, self.xb_ip)
            if length is not None and length >= variant.length:
                alive.append(variant)
        self.variants = alive
        self._vv_version = version
        self._vv_len = len(alive)
        return alive

    def variant_covering(
        self, storage: XbcStorage, offset: int
    ) -> Optional[XbVariant]:
        """A live variant able to serve an *offset*-uop entry."""
        best: Optional[XbVariant] = None
        for variant in self.valid_variants(storage):
            if variant.length >= offset:
                if best is None or variant.length < best.length:
                    best = variant  # smallest sufficient variant
        return best


class Xbtb:
    """Set-associative table of :class:`XbtbEntry` (8K entries in §4)."""

    def __init__(self, config: XbcConfig) -> None:
        config.validate()
        self.config = config
        self.num_sets = config.xbtb_entries // config.xbtb_assoc
        log2_exact(self.num_sets)
        self.assoc = config.xbtb_assoc
        self._set_mask = self.num_sets - 1
        self._sets: List[Dict[int, XbtbEntry]] = [
            {} for _ in range(self.num_sets)
        ]
        self._clock = 0
        self.lookups = 0
        self.hits = 0
        self.allocations = 0
        self.evictions = 0

    def _set_for(self, xb_ip: int) -> int:
        return (xb_ip >> 1) & self._set_mask

    def lookup(self, xb_ip: int) -> Optional[XbtbEntry]:
        """Entry for the XB ending at *xb_ip*; refreshes LRU on hit."""
        self.lookups += 1
        entry = self._sets[(xb_ip >> 1) & self._set_mask].get(xb_ip)
        if entry is not None:
            self.hits += 1
            self._clock += 1
            entry.stamp = self._clock
        return entry

    def peek(self, xb_ip: int) -> Optional[XbtbEntry]:
        """Lookup without statistics or LRU side effects."""
        return self._sets[self._set_for(xb_ip)].get(xb_ip)

    def get_or_create(
        self, xb_ip: int, end_kind: Optional[InstrKind]
    ) -> XbtbEntry:
        """Entry for *xb_ip*, allocating (with LRU eviction) if needed."""
        index = self._set_for(xb_ip)
        entries = self._sets[index]
        self._clock += 1
        entry = entries.get(xb_ip)
        if entry is not None:
            entry.stamp = self._clock
            if entry.end_kind is None and end_kind is not None:
                entry.end_kind = end_kind
            return entry
        if len(entries) >= self.assoc:
            victim = min(entries, key=lambda ip: entries[ip].stamp)
            del entries[victim]
            self.evictions += 1
        entry = XbtbEntry(xb_ip, end_kind)
        entry.stamp = self._clock
        entries[xb_ip] = entry
        self.allocations += 1
        return entry

    @property
    def hit_rate(self) -> float:
        """Lookup hit fraction (1.0 before any lookup)."""
        if self.lookups == 0:
            return 1.0
        return self.hits / self.lookups

    def resident_entries(self) -> int:
        """Number of live entries (capacity audit)."""
        return sum(len(entries) for entries in self._sets)
