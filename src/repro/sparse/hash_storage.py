"""Hash-table block storage with a spill buffer (paper Sec. 7).

"Flare stores the data and the indexes in a hash table.  To avoid
expensive collision resolution, when there is a collision, the colliding
element is put in a spill buffer.  When the spill buffer is full, the
spilled data is immediately sent to the next switch (or to the hosts)."

The behavioral model is a single-probe open table: an element hashes to
exactly one slot.  If the slot is empty it claims it; if the slot holds
the *same* index the values aggregate; if it holds a different index the
element spills.  Spilled elements are unaggregated extra traffic — the
quantity Fig. 14's right panel reports.

Memory per block is constant in the data density (table slots x 8 B +
spill buffer), which is the hash backend's selling point at high
sparsity; the cost is the spill traffic as the aggregated block's
distinct-index count approaches the table size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Wire bytes per (index, value) element (int32 index + 4-byte value).
ELEMENT_BYTES = 8


def _slot_of(indices: np.ndarray, n_slots: int) -> np.ndarray:
    """Deterministic multiplicative hash (Knuth) into table slots."""
    return ((indices.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(n_slots)).astype(
        np.int64
    )


def _all_unique(idx: np.ndarray) -> bool:
    """True iff ``idx`` has no repeated value.  Flare packets carry
    sorted positions, so a strictly-increasing check settles nearly
    every packet without the cost of ``np.unique``."""
    if len(idx) < 2 or bool((idx[1:] > idx[:-1]).all()):
        return True
    return len(np.unique(idx)) == len(idx)


def _run_starts(ranked: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in a
    sorted array."""
    first = np.empty(len(ranked), dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    return first


@dataclass
class SpillEvent:
    """One spill-buffer flush: elements forwarded unaggregated.

    Carries the actual (indices, values) so downstream consumers (the
    parent switch, or the verifying test) can still fold them in — the
    data is extra *traffic*, never lost information.
    """

    indices: np.ndarray
    values: np.ndarray

    @property
    def n_elements(self) -> int:
        return int(len(self.indices))

    @property
    def bytes(self) -> int:
        return self.n_elements * ELEMENT_BYTES


class HashStorage:
    """Per-block aggregation state backed by a single-probe hash table."""

    kind = "hash"

    def __init__(
        self,
        n_slots: int,
        dtype: str = "float32",
        spill_capacity: int = 128,
        op=None,
    ) -> None:
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if spill_capacity < 1:
            raise ValueError("spill_capacity must be >= 1")
        self.n_slots = n_slots
        self.spill_capacity = spill_capacity
        self._keys = np.full(n_slots, -1, dtype=np.int64)
        self._values = np.zeros(n_slots, dtype=dtype)
        self._op = op
        # Spill buffer, in spill order (arrays are never mutated in
        # place, so flushed events may keep views of them).
        self._spill_indices = np.empty(0, dtype=np.int64)
        self._spill_values = np.empty(0, dtype=dtype)
        self.spill_events: list[SpillEvent] = []
        self.spilled_elements = 0
        self.inserted_elements = 0

    # ------------------------------------------------------------------
    def insert(self, indices: np.ndarray, values: np.ndarray) -> list[SpillEvent]:
        """Insert one packet's elements; returns any spill flushes.

        Elements are processed in packet order (the handler holds the
        block's critical section, so inserts are serialized).  When the
        packet's indices are unique — always true for Flare packets,
        since a host's block contribution has unique positions — the
        batch is resolved vectorized; duplicate indices or a custom
        operator fall back to the exact sequential path.
        """
        idx = np.asarray(indices, dtype=np.int64)
        vals = np.asarray(values)
        if self._op is not None or not _all_unique(idx):
            return self._insert_sequential(idx, vals)
        self.inserted_elements += len(idx)
        slots = _slot_of(idx, self.n_slots)
        keys_at = self._keys[slots]
        empty = keys_at == -1
        same = keys_at == idx
        # Same-key aggregation: each matching slot appears once (table
        # keys are unique and the packet's indices are unique).
        self._values[slots[same]] += vals[same]
        spill_mask = ~(empty | same)
        cand = np.flatnonzero(empty)
        if len(cand):
            # Empty slots: the first packet element targeting a slot
            # claims it; later ones (intra-packet slot collisions) spill.
            order = np.argsort(slots[cand], kind="stable")
            first = _run_starts(slots[cand[order]])
            winners = cand[order[first]]
            self._keys[slots[winners]] = idx[winners]
            self._values[slots[winners]] = vals[winners]
            spill_mask[cand[order[~first]]] = True
        if not spill_mask.any():
            return []
        return self._spill(idx[spill_mask], vals[spill_mask])

    def _insert_sequential(self, idx: np.ndarray, vals: np.ndarray) -> list[SpillEvent]:
        slots = _slot_of(idx, self.n_slots)
        spilled: list[int] = []
        for pos, (i, slot, val) in enumerate(zip(idx, slots, vals)):
            self.inserted_elements += 1
            key = self._keys[slot]
            if key == -1:
                self._keys[slot] = i
                self._values[slot] = val
            elif key == i:
                if self._op is None:
                    self._values[slot] += val
                else:
                    acc = self._values[slot : slot + 1]
                    self._op.combine_into(acc, np.asarray([val]))
            else:
                spilled.append(pos)
        if not spilled:
            return []
        # Spills never touch the table, so buffering them after the
        # loop flushes exactly the chunks an element-wise buffer would.
        return self._spill(idx[spilled], vals[spilled])

    def _spill(self, idx: np.ndarray, vals: np.ndarray) -> list[SpillEvent]:
        """Append elements (packet order) to the spill buffer; every
        time it fills, a full buffer leaves as one flush."""
        self.spilled_elements += len(idx)
        buf_i = np.concatenate([self._spill_indices, idx])
        buf_v = np.concatenate(
            [self._spill_values, vals.astype(self._values.dtype, copy=False)]
        )
        cap = self.spill_capacity
        n_full = len(buf_i) // cap
        flushed = [
            SpillEvent(
                indices=buf_i[k * cap : (k + 1) * cap].astype(np.int32),
                values=buf_v[k * cap : (k + 1) * cap],
            )
            for k in range(n_full)
        ]
        self._spill_indices = buf_i[n_full * cap :]
        self._spill_values = buf_v[n_full * cap :]
        self.spill_events.extend(flushed)
        return flushed

    # ------------------------------------------------------------------
    def finalize(self) -> tuple[np.ndarray, np.ndarray, SpillEvent | None]:
        """Drain the table (+ any residual spill) at block completion.

        Returns ``(indices, values, residual_spill)`` where the residual
        spill covers elements still in the buffer (they ride along with
        the final result packet rather than a dedicated flush).
        """
        mask = self._keys != -1
        indices = self._keys[mask].astype(np.int32)
        values = self._values[mask].copy()
        order = np.argsort(indices, kind="stable")
        indices, values = indices[order], values[order]
        residual: SpillEvent | None = None
        if len(self._spill_indices):
            residual = SpillEvent(
                indices=self._spill_indices.astype(np.int32),
                values=self._spill_values,
            )
            # Residual spilled elements merge into the output where the
            # index already exists, otherwise append (the *next* switch
            # would aggregate them; merging here models the final-hop
            # host doing it, keeping numerics exact).  Each index folds
            # its table value first, then its spills in buffer order,
            # with the storage's operator.
            all_i = np.concatenate([indices, residual.indices])
            all_v = np.concatenate([values, residual.values])
            order = np.argsort(all_i, kind="stable")
            all_i, all_v = all_i[order], all_v[order]
            first = _run_starts(all_i)
            group = np.cumsum(first) - 1
            indices = all_i[first]
            values = all_v[first]
            rest = ~first
            if self._op is None:
                np.add.at(values, group[rest], all_v[rest])
            else:
                for g, val in zip(group[rest].tolist(), all_v[rest]):
                    self._op.combine_into(values[g : g + 1], np.asarray([val]))
            self._spill_indices = self._spill_indices[:0]
            self._spill_values = self._spill_values[:0]
        return indices, values, residual

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """Resident bytes: keys + values + spill buffer budget."""
        return int(
            self._keys.nbytes
            + self._values.nbytes
            + self.spill_capacity * ELEMENT_BYTES
        )

    @property
    def occupied_slots(self) -> int:
        return int((self._keys != -1).sum())

    @property
    def spilled_bytes(self) -> int:
        return self.spilled_elements * ELEMENT_BYTES
