"""Control-flow-graph data model.

A synthetic program is generated in two stages:

1. *Specification*: functions made of :class:`BasicBlockSpec` records —
   block sizes, terminator kinds and successor block ids, no addresses.
2. *Layout*: the specs are placed into a linear address space, producing
   concrete :class:`~repro.isa.instruction.Instruction` objects, a
   :class:`~repro.isa.image.ProgramImage`, and :class:`LayoutBlock`
   records the trace executor walks.  Addresses are fixed for every
   block up front; the instructions, layout records and behaviours of a
   block are built the first time something asks for them
   (:class:`LazyMapping`), because a bounded trace executes only a
   small fraction of a large program.

Keeping the two stages separate makes the generator testable (structure
invariants can be checked before any addresses exist) and keeps layout
policy — instruction sizes, function placement — in one place.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional, TypeVar,
)

from repro.isa.image import ProgramImage
from repro.isa.instruction import Instruction, InstrKind
from repro.program.behavior import BranchBehavior, IndirectBehavior


class TerminatorKind(enum.Enum):
    """How a generated basic block ends."""

    COND = "cond"          # conditional branch: taken target + fallthrough
    JUMP = "jump"          # unconditional direct jump
    CALL = "call"          # direct call; execution resumes at fallthrough
    INDIRECT_CALL = "indirect_call"
    INDIRECT = "indirect"  # indirect jump (switch-like)
    RET = "ret"            # function return

    @property
    def instr_kind(self) -> InstrKind:
        """The instruction kind this terminator lowers to."""
        return _TERM_INSTR_KIND[self]


#: Lowering table for :attr:`TerminatorKind.instr_kind` (built once; the
#: generator consults it per terminator).
_TERM_INSTR_KIND: Dict[TerminatorKind, InstrKind] = {
    TerminatorKind.COND: InstrKind.COND_BRANCH,
    TerminatorKind.JUMP: InstrKind.JUMP,
    TerminatorKind.CALL: InstrKind.CALL,
    TerminatorKind.INDIRECT_CALL: InstrKind.INDIRECT_CALL,
    TerminatorKind.INDIRECT: InstrKind.INDIRECT_JUMP,
    TerminatorKind.RET: InstrKind.RETURN,
}


@dataclass
class BasicBlockSpec:
    """A basic block before layout.

    Successor fields hold *global block ids*; which ones are meaningful
    depends on :attr:`terminator`:

    - ``COND``: :attr:`taken_bid` and :attr:`fall_bid`
    - ``JUMP``: :attr:`taken_bid`
    - ``CALL``/``INDIRECT_CALL``: callee entry via :attr:`taken_bid`
      (direct) or :attr:`indirect_bids` (indirect), return continues at
      :attr:`fall_bid`
    - ``INDIRECT``: :attr:`indirect_bids`
    - ``RET``: none (the executor's call stack supplies the successor)
    """

    bid: int
    fid: int
    body_uop_counts: List[int]  # uops of each non-branch body instruction
    terminator: TerminatorKind
    taken_bid: Optional[int] = None
    fall_bid: Optional[int] = None
    indirect_bids: List[int] = field(default_factory=list)
    #: for COND terminators: "backedge" (planned loop), "escape" (rare
    #: loop break, monotonic not-taken) or "plain" (behaviour mixture)
    cond_class: str = "plain"

    @property
    def num_body_instrs(self) -> int:
        """Non-branch instructions in the block."""
        return len(self.body_uop_counts)

    def validate(self) -> None:
        """Check terminator/successor consistency; raises ``ValueError``."""
        t = self.terminator
        if t is TerminatorKind.COND:
            if self.taken_bid is None or self.fall_bid is None:
                raise ValueError(f"block {self.bid}: COND needs taken and fall")
        elif t is TerminatorKind.JUMP:
            if self.taken_bid is None:
                raise ValueError(f"block {self.bid}: JUMP needs a target")
        elif t is TerminatorKind.CALL:
            if self.taken_bid is None or self.fall_bid is None:
                raise ValueError(f"block {self.bid}: CALL needs callee and fall")
        elif t is TerminatorKind.INDIRECT_CALL:
            if not self.indirect_bids or self.fall_bid is None:
                raise ValueError(
                    f"block {self.bid}: INDIRECT_CALL needs targets and fall"
                )
        elif t is TerminatorKind.INDIRECT:
            if not self.indirect_bids:
                raise ValueError(f"block {self.bid}: INDIRECT needs targets")


@dataclass
class FunctionSpec:
    """A generated function: a list of block ids in spine order."""

    fid: int
    level: int  # call-graph depth; level-L functions call level>L only
    block_bids: List[int]

    @property
    def entry_bid(self) -> int:
        """Global id of the function's entry block."""
        return self.block_bids[0]


@dataclass
class LayoutBlock:
    """A basic block after layout: concrete instructions + successors."""

    bid: int
    fid: int
    entry_ip: int
    body: List[Instruction]
    terminator: Instruction
    taken_bid: Optional[int]
    fall_bid: Optional[int]
    indirect_bids: List[int]
    terminator_kind: TerminatorKind

    @property
    def instructions(self) -> List[Instruction]:
        """Body plus terminator, in program order."""
        return self.body + [self.terminator]

    @property
    def num_uops(self) -> int:
        """Total uops of the block (the Figure-1 length unit)."""
        return sum(i.num_uops for i in self.instructions)


K = TypeVar("K")
V = TypeVar("V")


class LazyMapping(Mapping[K, V]):
    """Read-only mapping whose keys are fixed and values built on demand.

    ``owners`` maps every key to the id of the block whose lowering
    creates its value; ``lower(bid)`` must store that value under the
    key in :attr:`built`.  Membership, length and iterating keys never
    lower anything; a lookup lowers the key's block (once), and
    iterating values or items lowers every block.
    """

    def __init__(
        self,
        owners: Dict[K, int],
        built: Dict[K, V],
        lower: Callable[[int], None],
    ) -> None:
        self._owners = owners
        #: the values created so far
        self.built = built
        self._lower = lower

    def __getitem__(self, key: K) -> V:
        try:
            return self.built[key]
        except KeyError:
            self._lower(self._owners[key])
            return self.built[key]

    def __contains__(self, key: object) -> bool:
        return key in self._owners

    def __iter__(self) -> Iterator[K]:
        return iter(self._owners)

    def __len__(self) -> int:
        return len(self._owners)


def _created(values: Mapping) -> Iterable:
    """Values that exist already: only the built ones of a lazy mapping."""
    if isinstance(values, LazyMapping):
        return values.built.values()
    return values.values()


class Program:
    """A laid-out synthetic program.

    Holds the static image, per-block layout records, and the behaviour
    objects for every conditional/indirect terminator.  The executor in
    :mod:`repro.trace.executor` is a walk over this structure.

    *blocks* and the behaviour maps may be lazy (:class:`LazyMapping`).  The
    generator then passes ``image=None`` together with what layout fixed
    before lowering — every block's entry address, the static uop count
    and the code size — so that :attr:`static_uops`, :meth:`describe`
    and :meth:`block_at_ip` build nothing; :attr:`image` is assembled
    from the blocks on first access.  Hand-built programs pass plain
    dicts and an image and leave those three to be derived.
    """

    def __init__(
        self,
        image: Optional[ProgramImage],
        blocks: Mapping[int, LayoutBlock],
        functions: List[FunctionSpec],
        entry_bid: int,
        cond_behaviors: Mapping[int, BranchBehavior],
        indirect_behaviors: Mapping[int, IndirectBehavior],
        suite: str = "",
        name: str = "",
        seed: int = 0,
        entry_ips: Optional[Mapping[int, int]] = None,
        static_uops: Optional[int] = None,
        total_bytes: Optional[int] = None,
    ) -> None:
        self._image = image
        self.blocks = blocks
        self.functions = functions
        self.entry_bid = entry_bid
        self.cond_behaviors = cond_behaviors        # key: terminator IP
        self.indirect_behaviors = indirect_behaviors  # key: terminator IP
        self.suite = suite
        self.name = name
        self.seed = seed
        #: static footprint in uops
        self.static_uops = (
            static_uops if static_uops is not None else self.image.total_uops
        )
        #: static code footprint in bytes
        self.total_bytes = (
            total_bytes if total_bytes is not None else self.image.total_bytes
        )
        if entry_ips is None:
            entry_ips = {b.bid: b.entry_ip for b in blocks.values()}
        self._block_by_entry_ip = {ip: bid for bid, ip in entry_ips.items()}
        #: True once any execution has advanced behaviour state; lets
        #: the executor skip the (reseed-everything) reset on a program
        #: that has never run.
        self.behaviors_dirty = False

    @property
    def image(self) -> ProgramImage:
        """The static image; lowers every block on first access."""
        if self._image is None:
            image = ProgramImage()
            for block in self.blocks.values():
                for instr in block.body:
                    image.add(instr)
                image.add(block.terminator)
            self._image = image.freeze()
        return self._image

    @property
    def entry_block(self) -> LayoutBlock:
        """The block execution starts at."""
        return self.blocks[self.entry_bid]

    def block_at_ip(self, ip: int) -> Optional[LayoutBlock]:
        """The block whose entry is exactly *ip*, if any."""
        bid = self._block_by_entry_ip.get(ip)
        return self.blocks[bid] if bid is not None else None

    @property
    def num_blocks(self) -> int:
        """Number of basic blocks."""
        return len(self.blocks)

    def reset_behaviors(self) -> None:
        """Reset all behaviour state so a fresh execution is identical.

        Behaviours not created yet start in their initial state anyway.
        """
        for behavior in _created(self.cond_behaviors):
            behavior.reset()
        for behavior in _created(self.indirect_behaviors):
            behavior.reset()
        self.behaviors_dirty = False

    def describe(self) -> str:
        """One-line summary used by the CLI and examples."""
        return (
            f"program {self.name or '?'} (suite={self.suite or '?'}, "
            f"seed={self.seed}): {len(self.functions)} functions, "
            f"{self.num_blocks} blocks, {self.static_uops} static uops, "
            f"{self.total_bytes} bytes"
        )
