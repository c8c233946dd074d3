"""Branch behaviour models.

A static branch in a real program is not a coin flip: most are heavily
biased, loop backedges run a trip count then exit, some follow short
repeating patterns a history-based predictor can learn, and indirect
branches choose among a popularity-skewed target set.  Each static
branch in a synthetic program owns one behaviour object; the trace
executor consults it for every dynamic execution.

Behaviours are stateful (loop counters, pattern cursors) and carry their
own forked RNG, so regenerating the same program with the same seed
yields an identical dynamic trace.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.common.rng import DeterministicRng


class BranchBehavior:
    """Base class for conditional-branch direction behaviours."""

    def next_taken(self) -> bool:
        """Direction of the next dynamic execution of this branch."""
        raise NotImplementedError

    def reset(self) -> None:
        """Restore initial state (used when replaying a trace)."""

    @property
    def static_bias(self) -> float:
        """Long-run taken probability, used for calibration reporting."""
        raise NotImplementedError


class BiasedBehavior(BranchBehavior):
    """Independent Bernoulli draws with a fixed taken probability.

    With ``p_taken`` near 0 or 1 this models the *monotonic* branches
    that the XBC's promotion machinery (§3.8) targets: a 7-bit counter
    reaching saturation implies ≥99.2% bias.
    """

    def __init__(self, p_taken: float, rng: DeterministicRng) -> None:
        if not 0.0 <= p_taken <= 1.0:
            raise ValueError(f"p_taken out of range: {p_taken}")
        self.p_taken = p_taken
        self._rng = rng

    def next_taken(self) -> bool:
        return self._rng.random() < self.p_taken

    def reset(self) -> None:
        self._rng.reset()

    @property
    def static_bias(self) -> float:
        return self.p_taken


class LoopBehavior(BranchBehavior):
    """A loop backedge: taken until the trip count expires, then exits.

    Real loop trip counts are mostly constant per static loop (array
    bounds, fixed tile sizes) with occasional data-dependent deviation.
    We model that directly: each entry runs the loop's base trip count,
    except a *jitter_p* fraction of entries which redraw geometrically.
    The constant majority is what lets a long-history predictor learn
    short-loop exits, keeping overall accuracy in the realistic band.
    """

    def __init__(
        self,
        mean_trip: float,
        rng: DeterministicRng,
        max_trip: int = 4096,
        jitter_p: float = 0.2,
    ) -> None:
        if mean_trip < 1:
            raise ValueError(f"mean trip count must be >= 1, got {mean_trip}")
        self.mean_trip = mean_trip
        self.max_trip = max_trip
        self.jitter_p = jitter_p
        self.base_trip = max(1, round(mean_trip))
        self._rng = rng
        self._remaining: Optional[int] = None

    def _draw_trip(self) -> int:
        if self._rng.random() < self.jitter_p:
            return self._rng.geometric(self.mean_trip, lo=1, hi=self.max_trip)
        return self.base_trip

    def next_taken(self) -> bool:
        if self._remaining is None:
            self._remaining = self._draw_trip()
        if self._remaining > 1:
            self._remaining -= 1
            return True
        # Final iteration: fall out of the loop and re-arm for next entry.
        self._remaining = None
        return False

    def reset(self) -> None:
        self._remaining = None
        self._rng.reset()

    @property
    def static_bias(self) -> float:
        # A loop with mean trip N is taken (N-1)/N of the time.
        return max(0.0, (self.mean_trip - 1.0) / self.mean_trip)


class PatternBehavior(BranchBehavior):
    """A deterministic repeating direction pattern.

    Short patterns (e.g. TTNT) are exactly what a gshare predictor's
    global history captures; including them keeps predictor accuracy in
    the realistic 90–96% band instead of being purely bias-driven.
    """

    def __init__(self, pattern: Sequence[bool]) -> None:
        if not pattern:
            raise ValueError("pattern must be non-empty")
        self.pattern: List[bool] = list(pattern)
        self._cursor = 0

    def next_taken(self) -> bool:
        taken = self.pattern[self._cursor]
        self._cursor = (self._cursor + 1) % len(self.pattern)
        return taken

    def reset(self) -> None:
        self._cursor = 0

    @property
    def static_bias(self) -> float:
        return sum(self.pattern) / len(self.pattern)


class IndirectBehavior:
    """Target selection for indirect jumps and indirect calls.

    Targets are drawn i.i.d. from a Zipf-skewed popularity distribution
    over the branch's static target set — one or two dominant targets
    plus a tail, which is the regime where an indirect predictor is
    useful but imperfect.
    """

    def __init__(
        self,
        targets: Sequence[int],
        rng: DeterministicRng,
        skew: float = 1.2,
    ) -> None:
        if not targets:
            raise ValueError("indirect branch needs at least one target")
        self.targets: List[int] = list(targets)
        self._rng = rng
        self._weights = rng.zipf_weights(len(self.targets), skew)
        self._pairs = list(zip(self.targets, self._weights))

    def next_target(self) -> int:
        """Target address of the next dynamic execution."""
        if len(self.targets) == 1:
            return self.targets[0]
        return self._rng.weighted_choice(self._pairs)

    def reset(self) -> None:
        """Rewind the target-selection stream."""
        self._rng.reset()

    @property
    def dominant_fraction(self) -> float:
        """Popularity of the most likely target."""
        return max(self._weights)
