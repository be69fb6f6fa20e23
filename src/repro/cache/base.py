"""Set-associative tag store at line granularity with true-LRU replacement.

Each set is a dict from line address to one packed int per resident line::

    packed = lru_stamp << LRU_SHIFT | dirty << 8 | ord(state_letter)

The state is one ASCII letter (``"S"``, ``"M"``, ``"E"``, ...), read back
with :func:`line_state`; :func:`line_dirty` reads the dirty bit.  A set's
dict order is its LRU order: every touch deletes and re-inserts the key,
so the least recently used line is always the set's first key and
eviction needs no scan.
"""

from __future__ import annotations

from repro.config import CacheConfig

#: Low byte of a packed line: the code of its coherence-state letter.
STATE_MASK = 0xFF
#: The dirty bit of a packed line.
DIRTY = 0x100
#: The LRU stamp sits above the state code and the dirty bit.
LRU_SHIFT = 9


def line_state(packed: int) -> str:
    """Coherence-state letter of a packed line."""
    return chr(packed & STATE_MASK)


def line_dirty(packed: int) -> bool:
    """Dirty bit of a packed line."""
    return bool(packed & DIRTY)


class SetAssociativeCache:
    """Tag array + LRU state.  Addresses are byte addresses; the cache
    computes its own line/set decomposition from its configuration.

    Lookups return the packed line (see the module docstring), or None on
    a miss.  Lines are mutated only through this class's methods, which
    keep the determinism-chain words (resident count, dirty count,
    per-line checksum) current on every mutation instead of recomputing
    them by walking every set at each chain sample.  The full walk
    survives as :meth:`det_state_scan` and is asserted equal to the
    incremental words in the test suite.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.line_bytes = config.line_bytes
        self.ways = config.ways
        self.num_sets = config.sets
        if self.num_sets <= 0:
            raise ValueError(f"degenerate cache geometry: {config}")
        self._sets: list[dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._clock = 0
        self.hits = 0
        self.misses = 0
        # Incremental det-state words (see det_state).
        self._resident = 0
        self._dirty = 0
        self._checksum = 0

    def line_addr(self, address: int) -> int:
        return address - address % self.line_bytes

    # -- operations ------------------------------------------------------------

    def lookup(self, address: int, touch: bool = True) -> int | None:
        """Return the packed line covering ``address``, if resident."""
        block = address // self.line_bytes
        line_addr = block * self.line_bytes
        cache_set = self._sets[block % self.num_sets]
        packed = cache_set.get(line_addr)
        if packed is None:
            self.misses += 1
            return None
        if touch:
            self._clock = clock = self._clock + 1
            self._checksum += 131 * (clock - (packed >> LRU_SHIFT))
            del cache_set[line_addr]
            cache_set[line_addr] = packed = (
                clock << LRU_SHIFT | packed & (DIRTY | STATE_MASK)
            )
        self.hits += 1
        return packed

    def peek(self, address: int) -> int | None:
        """Lookup without touching LRU or hit/miss counters."""
        block = address // self.line_bytes
        return self._sets[block % self.num_sets].get(block * self.line_bytes)

    def insert(
        self, address: int, state: str = "S", dirty: bool = False
    ) -> tuple[int, int] | None:
        """Install the line covering ``address``.

        Returns the evicted ``(line_addr, packed)`` pair if a victim had
        to make room, else None.  Inserting an already-resident line just
        refreshes it (a clean insert never clears the dirty bit).
        """
        block = address // self.line_bytes
        line_addr = block * self.line_bytes
        cache_set = self._sets[block % self.num_sets]
        self._clock = clock = self._clock + 1
        code = ord(state[0])
        existing = cache_set.pop(line_addr, None)
        if existing is not None:
            self._checksum += 7 * (code - (existing & STATE_MASK))
            flags = existing & DIRTY
            if dirty and not flags:
                self._dirty += 1
                flags = DIRTY
            self._checksum += 131 * (clock - (existing >> LRU_SHIFT))
            cache_set[line_addr] = clock << LRU_SHIFT | flags | code
            return None
        victim = None
        if len(cache_set) >= self.ways:
            victim_addr = next(iter(cache_set))
            victim_line = cache_set.pop(victim_addr)
            self._drop_words(victim_addr, victim_line)
            victim = (victim_addr, victim_line)
        cache_set[line_addr] = clock << LRU_SHIFT | (DIRTY if dirty else 0) | code
        self._resident += 1
        if dirty:
            self._dirty += 1
        self._checksum += line_addr + 131 * clock + 7 * code
        return victim

    def fill(self, start: int, stop: int) -> int:
        """Install clean Shared lines ``range(start, stop, line_bytes)`` in
        order.

        ``start`` must be line-aligned.  The result is that of one
        ``insert(line)`` per line, but lines are written straight
        into their sets.  The fill stops at the first line that is not
        resident and whose set is full, and returns its address (``stop``
        or beyond when every line went in): the caller installs that line
        through :meth:`insert`, which owns the victim path, and resumes.
        """
        line_bytes = self.line_bytes
        num_sets = self.num_sets
        ways = self.ways
        sets = self._sets
        code = ord("S")
        clock = self._clock
        resident = self._resident
        checksum = self._checksum
        index = (start // line_bytes) % num_sets
        line_addr = start
        while line_addr < stop:
            cache_set = sets[index]
            if line_addr in cache_set:
                existing = cache_set[line_addr]
                del cache_set[line_addr]
                clock += 1
                checksum += 7 * (code - (existing & STATE_MASK)) + 131 * (
                    clock - (existing >> LRU_SHIFT)
                )
                cache_set[line_addr] = clock << LRU_SHIFT | existing & DIRTY | code
            elif len(cache_set) < ways:
                clock += 1
                cache_set[line_addr] = clock << LRU_SHIFT | code
                resident += 1
                checksum += line_addr + 131 * clock + 7 * code
            else:
                break
            line_addr += line_bytes
            index += 1
            if index == num_sets:
                index = 0
        self._clock = clock
        self._resident = resident
        self._checksum = checksum
        return line_addr

    def invalidate(self, address: int) -> int | None:
        """Remove the line covering ``address``; returns it if present."""
        block = address // self.line_bytes
        line_addr = block * self.line_bytes
        packed = self._sets[block % self.num_sets].pop(line_addr, None)
        if packed is not None:
            self._drop_words(line_addr, packed)
        return packed

    def _drop_words(self, line_addr: int, packed: int) -> None:
        """Remove a departing line's contribution to the det-state words."""
        self._resident -= 1
        if packed & DIRTY:
            self._dirty -= 1
        self._checksum -= (
            line_addr + 131 * (packed >> LRU_SHIFT) + 7 * (packed & STATE_MASK)
        )

    # -- mediated line mutation ----------------------------------------------

    def set_line_state(self, address: int, state: str) -> None:
        """Change the coherence state of the line covering ``address``
        (no-op when it is not resident).  Recency is unchanged."""
        block = address // self.line_bytes
        line_addr = block * self.line_bytes
        cache_set = self._sets[block % self.num_sets]
        packed = cache_set.get(line_addr)
        if packed is not None:
            code = ord(state[0])
            self._checksum += 7 * (code - (packed & STATE_MASK))
            cache_set[line_addr] = packed & ~STATE_MASK | code

    def set_line_dirty(self, address: int, dirty: bool = True) -> None:
        """Set or clear the dirty bit of the line covering ``address``
        (no-op when it is not resident).  Recency is unchanged."""
        block = address // self.line_bytes
        line_addr = block * self.line_bytes
        cache_set = self._sets[block % self.num_sets]
        packed = cache_set.get(line_addr)
        if packed is not None and bool(packed & DIRTY) != dirty:
            self._dirty += 1 if dirty else -1
            cache_set[line_addr] = packed ^ DIRTY

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    def det_state(self) -> list[int]:
        """Architectural state words for the determinism hash-chain.

        Tag-array contents and LRU clocks only move inside lookup/insert/
        fill/invalidate (and the mediated line mutators) — all driven from
        stepped cycles or System construction — so these words are
        constant across quiescent fast-forward windows.  The per-line
        checksum is a sum, making it independent of set/dict iteration
        order.  Hit/miss counters are statistics and stay excluded.
        """
        return [self._clock, self._resident, self._dirty, self._checksum]

    def det_state_scan(self) -> list[int]:
        """The same four words recomputed by a full tag-array walk.

        Reference implementation for the incremental bookkeeping; the
        equivalence test drives a workload and asserts
        ``det_state() == det_state_scan()`` for every cache.
        """
        resident = 0
        dirty = 0
        checksum = 0
        for cache_set in self._sets:
            resident += len(cache_set)
            for line_addr, packed in cache_set.items():
                if packed & DIRTY:
                    dirty += 1
                checksum += (
                    line_addr + 131 * (packed >> LRU_SHIFT) + 7 * (packed & STATE_MASK)
                )
        return [self._clock, resident, dirty, checksum]
