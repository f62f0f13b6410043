"""The GPU cache hierarchy as a whole-stream filter.

The hierarchy filters a raw (SM-issued) line-address stream down to the
DRAM-level stream the placement study operates on: Figure 6's CDFs count
accesses to each 4 kB page "after being filtered by on-chip caches".

The model follows Table 1: a 16 kB L1 per SM (accesses striped across
SMs round-robin, as warps are) and a memory-side 128 kB L2 slice per
DRAM channel, indexed by line address.  Replacement is LRU.

Each ``filter_stream_indices`` call replays one stream through cold
caches with the vectorized LRU kernel (:mod:`repro.gpu.lru`).  The
miss-index stream is bit-identical to a sequential per-access replay;
that replay survives as
:class:`repro.gpu._reference.ReferenceCacheHierarchy`, pinned by the
golden and property tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import ConfigError, SimulationError
from repro.gpu.config import GpuConfig
from repro.gpu.lru import lru_filter
from repro.obs import trace as obs_trace

#: memoized round-robin SM id pattern, keyed by (n_sms, length).
_SM_PATTERNS: dict[tuple[int, int], np.ndarray] = {}


def _sm_pattern(n_sms: int, n: int) -> np.ndarray:
    """``position % n_sms`` for the whole stream, cached per shape."""
    key = (n_sms, n)
    pattern = _SM_PATTERNS.get(key)
    if pattern is None:
        if len(_SM_PATTERNS) > 8:
            _SM_PATTERNS.clear()
        pattern = np.resize(np.arange(n_sms, dtype=np.int32), n)
        pattern.flags.writeable = False
        _SM_PATTERNS[key] = pattern
    return pattern


#: memoized byte-wide L1 set-id base (sm * sets_per_sm), per shape.
_SM_SCALED: dict[tuple[int, int, int], np.ndarray] = {}

#: memoized line -> L2 (slice, set) key tables, keyed by
#: (line_top, n_channels, n_sets).
_L2_KEY_TABLES: dict[tuple[int, int, int], np.ndarray] = {}


def _sm_scaled(n_sms: int, n_sets: int, n: int) -> np.ndarray:
    """``(position % n_sms) * n_sets`` as a byte pattern, cached."""
    key = (n_sms, n_sets, n)
    pattern = _SM_SCALED.get(key)
    if pattern is None:
        if len(_SM_SCALED) > 8:
            _SM_SCALED.clear()
        pattern = np.resize(
            np.arange(n_sms, dtype=np.int8) * np.int8(n_sets), n)
        pattern.flags.writeable = False
        _SM_SCALED[key] = pattern
    return pattern


def _l2_key_table(line_top: int, n_channels: int,
                  n_sets: int) -> np.ndarray:
    """Line -> packed (slice, set) id, one byte-wide gather per stream.

    Precomputing the modulo pair over the line universe turns the
    per-call ``% channels`` / ``% sets`` arithmetic (three stream-wide
    integer ops, one a true division) into a single table gather.
    """
    key = (line_top, n_channels, n_sets)
    table = _L2_KEY_TABLES.get(key)
    if table is None:
        if len(_L2_KEY_TABLES) > 4:
            _L2_KEY_TABLES.clear()
        span = np.arange(line_top + 1, dtype=np.int32)
        table = ((span % n_channels) * n_sets
                 + (span % n_sets)).astype(np.uint8)
        table.flags.writeable = False
        _L2_KEY_TABLES[key] = table
    return table


def _set_index(lines: np.ndarray, n_sets: int) -> np.ndarray:
    """``line % n_sets`` with a bit-mask fast path for power-of-two."""
    if n_sets & (n_sets - 1) == 0:
        return lines & lines.dtype.type(n_sets - 1)
    return lines % lines.dtype.type(n_sets)


def cache_sets(size_bytes: int, line_size: int, assoc: int) -> int:
    """Set count of an ``assoc``-way cache; ``ConfigError`` if none fits."""
    if size_bytes <= 0 or line_size <= 0 or assoc <= 0:
        raise ConfigError("cache geometry must be positive")
    n_lines = size_bytes // line_size
    if n_lines == 0 or n_lines % assoc:
        raise ConfigError(
            f"cache of {size_bytes}B / {line_size}B lines cannot be "
            f"{assoc}-way"
        )
    return n_lines // assoc


@dataclass
class CacheStats:
    """Hit/miss counters for one cache (or one group of slices)."""

    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(self.accesses + other.accesses,
                          self.hits + other.hits)


class CacheHierarchy:
    """L1-per-SM + memory-side L2, as in Table 1.

    ``filter_stream`` pushes a raw line-address stream through cold
    caches and returns the DRAM-level miss stream.  SM affinity for
    L1s is modeled by striping consecutive accesses across SMs, the
    steady-state behaviour of a round-robin warp scheduler.
    ``l1_stats``/``l2_stats`` total every stream filtered so far.
    """

    def __init__(self, config: GpuConfig, n_channels: int) -> None:
        if n_channels <= 0:
            raise ConfigError("n_channels must be positive")
        self.config = config
        self.n_channels = n_channels
        self.l1_sets = cache_sets(config.l1_bytes_per_sm,
                                  config.line_size, config.l1_assoc)
        self.l2_sets = cache_sets(config.l2_bytes_per_channel,
                                  config.line_size, config.l2_assoc)
        self._l1 = CacheStats()
        self._l2 = CacheStats()

    def filter_stream_indices(self, line_addrs: np.ndarray) -> np.ndarray:
        """Positions (into the raw stream) of accesses that miss on chip.

        Returning indices rather than addresses lets callers carry any
        per-access metadata (write flags, thread ids) through the
        filter.  A negative line address raises ``SimulationError``.
        """
        line_addrs = np.asarray(line_addrs)
        with obs_trace.span("cache.filter", cat="gpu",
                            accesses=int(line_addrs.size)) as span:
            misses = self._miss_positions(line_addrs)
            span.annotate(misses=int(misses.size))
        return misses

    def _miss_positions(self, line_addrs: np.ndarray) -> np.ndarray:
        n = int(line_addrs.size)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if int(line_addrs.min()) < 0:
            raise SimulationError("line addresses must be non-negative")
        n_sms = self.config.n_sms
        l1_sets = self.l1_sets
        l2_sets = self.l2_sets

        line_top = int(line_addrs.max())
        dtype = np.int32 if line_top < 2 ** 31 else np.int64
        lines = line_addrs.astype(dtype, copy=False)

        # L1: one LRU set per (SM, set index); SM striping follows the
        # round-robin warp scheduler.
        if n_sms * l1_sets <= 127:
            # Byte-wide ids keep the grouping sort on the radix path
            # with no widening casts downstream.
            g1 = _set_index(lines, l1_sets).astype(np.int8)
            g1 += _sm_scaled(n_sms, l1_sets, n)
        else:
            g1 = (_sm_pattern(n_sms, n) * np.int32(l1_sets)
                  + _set_index(lines, l1_sets))
        l1_hits = lru_filter(g1, lines, self.config.l1_assoc,
                             n_groups=n_sms * l1_sets,
                             line_top=line_top)

        # L2: memory-side slices selected by line address, so the set
        # id is a pure function of the line (``line_keyed``).
        l1_miss_positions = np.nonzero(~l1_hits)[0]
        l2_lines = lines[l1_miss_positions]
        if line_top < 1 << 16 and self.n_channels * l2_sets < 1 << 8:
            g2 = _l2_key_table(line_top, self.n_channels,
                               l2_sets)[l2_lines]
        else:
            g2 = (_set_index(l2_lines, self.n_channels)
                  * np.int32(l2_sets) + _set_index(l2_lines, l2_sets))
        l2_hits = lru_filter(g2, l2_lines, self.config.l2_assoc,
                             line_keyed=True,
                             n_groups=self.n_channels * l2_sets,
                             line_top=line_top)

        n_l1_misses = int(l1_miss_positions.size)
        self._l1 = self._l1.merge(CacheStats(n, n - n_l1_misses))
        self._l2 = self._l2.merge(
            CacheStats(n_l1_misses, int(np.count_nonzero(l2_hits))))
        return l1_miss_positions[~l2_hits]

    def filter_stream(self, line_addrs: np.ndarray) -> np.ndarray:
        """DRAM-level miss stream for a raw access stream (in order)."""
        return np.asarray(line_addrs, dtype=np.int64)[
            self.filter_stream_indices(line_addrs)
        ]

    def l1_stats(self) -> CacheStats:
        return self._l1

    def l2_stats(self) -> CacheStats:
        return self._l2
