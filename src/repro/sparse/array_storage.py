"""Dense-span array block storage (paper Sec. 7).

"For denser data, Flare uses a contiguous memory buffer of the size of
the block.  From a computational perspective, this is the design with
the lowest latency, because the handler simply needs to store the
element in a specific position.  However, when the reduction is
completed, the buffer needs to be entirely scanned and only the non-zero
elements inserted in the packet.  Moreover, the memory consumption will
be equal to that of the dense case."

No spilling, no extra traffic — but memory ∝ block span (1/density),
which is why Fig. 14 has no array bars at 1% density: the 600 KiB-per-
block arrays of all concurrently processed blocks do not fit in Flare's
working memory (we reproduce that as an explicit capacity failure).
"""

from __future__ import annotations

import numpy as np


class ArrayStorage:
    """Per-block aggregation state backed by a span-sized dense array."""

    kind = "array"

    def __init__(self, span: int, dtype: str = "float32", op=None) -> None:
        if span < 1:
            raise ValueError("span must be >= 1")
        self.span = span
        self._values = np.zeros(span, dtype=dtype)
        self._touched = np.zeros(span, dtype=bool)
        self._op = op
        self.inserted_elements = 0

    def insert(self, indices: np.ndarray, values: np.ndarray) -> list:
        """Indexed accumulate; O(1) per element, never spills."""
        idx = np.asarray(indices)
        self.inserted_elements += len(idx)
        if self._op is None:
            # Duplicate indices within one packet are legal for sum.
            np.add.at(self._values, idx, values)
        else:
            # Mark as we go: a repeated index within one packet
            # combines with its earlier occurrence.
            for i, v in zip(idx, values):
                if self._touched[i]:
                    acc = self._values[i : i + 1]
                    self._op.combine_into(acc, np.asarray([v]))
                else:
                    self._values[i] = v
                    self._touched[i] = True
        self._touched[idx] = True
        return []

    def finalize(self) -> tuple[np.ndarray, np.ndarray, None]:
        """Scan the span, extract non-zeros (the flush cost the cost
        model charges per span element)."""
        mask = self._touched & (self._values != 0)
        indices = np.flatnonzero(mask).astype(np.int32)
        return indices, self._values[indices].copy(), None

    @property
    def memory_bytes(self) -> int:
        """Resident bytes: the dense value array (+1 bit/elem touched
        map, counted at a byte for model simplicity)."""
        return int(self._values.nbytes + self.span)

    @property
    def spilled_bytes(self) -> int:
        return 0

    @property
    def spilled_elements(self) -> int:
        return 0
