"""Out-of-core row storage: RAM lists that spill to mmap'd segments.

A :class:`RowStore` is an append-only sequence of fixed-width packed
rows (see :mod:`repro.kernel.codec`), addressed by dense integer ids in
append order.  Small stores live entirely in a Python list.  Once the
row count crosses a threshold (``REPRO_KERNEL_SPILL_THRESHOLD``,
default one million rows) the store *spills*: full blocks of rows are
written to checksummed on-disk segments and served back through
``mmap``, so the resident cost of a row drops to its dedup-index entry.
This is the stream-to-backing-store shape of SpiNNFrontEndCommon's
buffer manager: producers keep appending at RAM speed, readers fault
pages in on demand, and the host never holds the whole set.

Two stores per exploration use this: the visited/canonical-row arena
(indexed -- it answers ``find(row)``) and the BFS frontier log (pure
append/get: queue entries, parent pointers and depths packed into one
row each).

Dedup indexing across the spill boundary
----------------------------------------
In RAM mode the index is an exact ``row -> id`` dict; the keys *are*
the rows, so spilling the row bytes would save nothing.  On spill the
index is rebuilt as ``fingerprint -> id`` where the fingerprint is
``hash(row)`` masked to ``REPRO_KERNEL_FP_BITS`` bits (default 61 --
``hash`` of an int is its value mod ``2**61 - 1``, independent of
``PYTHONHASHSEED``).  A probe that hits a fingerprint fetches the
candidate row (RAM tail or mmap) and compares exactly, so collisions
cost a read, never a wrong answer; colliding ids chain in a list.
Setting ``REPRO_KERNEL_FP_BITS`` low (e.g. 8) forces collisions, which
is how the tests exercise the chain path deterministically.

Segment format and crash behaviour
----------------------------------
``magic | width(u32) | count(u32) | checksum(u64) | payload`` where the
checksum is an 8-byte BLAKE2b of the payload.  Segments are written to
a temp name, fsynced, then ``os.replace``d into place (with a directory
fsync), so a SIGKILL at any byte leaves either no segment or a fully
valid one -- the checkpoint-resume machinery re-runs the exploration
and never observes a torn segment.  A segment that fails validation on
first map is renamed ``*.corrupt-N`` (evidence preserved) and
:class:`~repro.errors.KernelSpillError` is raised.
"""

from __future__ import annotations

import mmap
import os
import struct
import tempfile
import weakref
from hashlib import blake2b
from typing import List, Optional

from repro.errors import KernelSpillError
from repro.obs.runtime import get_metrics

#: Rows resident in RAM before the store spills to disk segments.
DEFAULT_SPILL_THRESHOLD = 1_000_000

#: Environment knob overriding the spill threshold (tests force 1).
SPILL_THRESHOLD_ENV = "REPRO_KERNEL_SPILL_THRESHOLD"

#: Environment knob narrowing the dedup fingerprint (tests force
#: collisions with small values); default 61 bits (int hash width).
FP_BITS_ENV = "REPRO_KERNEL_FP_BITS"
DEFAULT_FP_BITS = 61

SEGMENT_MAGIC = b"RKSEG1\x00\x00"
_HEADER = struct.Struct("<8sIIQ")
HEADER_SIZE = _HEADER.size

#: Rows per on-disk segment (capped so tiny test thresholds produce
#: many small segments and huge stores produce ~16 MB files).
MAX_SEGMENT_ROWS = 65_536


def spill_threshold() -> int:
    raw = os.environ.get(SPILL_THRESHOLD_ENV)
    if raw is None:
        return DEFAULT_SPILL_THRESHOLD
    try:
        return max(1, int(raw))
    except ValueError:
        return DEFAULT_SPILL_THRESHOLD


def fingerprint_mask() -> int:
    raw = os.environ.get(FP_BITS_ENV)
    bits = DEFAULT_FP_BITS
    if raw is not None:
        try:
            bits = min(61, max(1, int(raw)))
        except ValueError:
            bits = DEFAULT_FP_BITS
    return (1 << bits) - 1


def _checksum(payload: bytes) -> int:
    return int.from_bytes(blake2b(payload, digest_size=8).digest(), "little")


class _Segment:
    """One immutable on-disk block of rows, mmap'd lazily on first read."""

    __slots__ = ("path", "count", "_mm", "_file")

    def __init__(self, path: str, count: int):
        self.path = path
        self.count = count
        self._mm: Optional[mmap.mmap] = None
        self._file = None

    def ensure(self, width: int) -> mmap.mmap:
        if self._mm is not None:
            return self._mm
        try:
            fh = open(self.path, "rb")
        except OSError as exc:
            raise KernelSpillError(
                f"spill segment vanished: {self.path}: {exc}", path=self.path
            ) from None
        try:
            header = fh.read(HEADER_SIZE)
            ok = len(header) == HEADER_SIZE
            if ok:
                magic, seg_width, seg_count, checksum = _HEADER.unpack(header)
                ok = (
                    magic == SEGMENT_MAGIC
                    and seg_width == width
                    and seg_count == self.count
                )
            if ok:
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                if _checksum(mm[HEADER_SIZE:]) != checksum:
                    mm.close()
                    ok = False
            if not ok:
                fh.close()
                quarantined = self._quarantine()
                raise KernelSpillError(
                    f"spill segment failed validation, quarantined to "
                    f"{quarantined}",
                    path=quarantined,
                )
        except KernelSpillError:
            raise
        except (OSError, ValueError) as exc:
            fh.close()
            quarantined = self._quarantine()
            raise KernelSpillError(
                f"spill segment unreadable ({exc}), quarantined to "
                f"{quarantined}",
                path=quarantined,
            ) from None
        self._file = fh
        self._mm = mm
        return mm

    def _quarantine(self) -> str:
        # Keep the evidence: rename, never delete.
        for k in range(1000):
            target = f"{self.path}.corrupt-{k}"
            if not os.path.exists(target):
                try:
                    os.replace(self.path, target)
                except OSError:
                    pass
                return target
        return self.path

    def close(self) -> None:
        if self._mm is not None:
            self._mm.close()
            self._mm = None
        if self._file is not None:
            self._file.close()
            self._file = None


def _cleanup_dir(path: str) -> None:
    try:
        for name in os.listdir(path):
            try:
                os.unlink(os.path.join(path, name))
            except OSError:
                pass
        os.rmdir(path)
    except OSError:
        pass


class RowStore:
    """Append-only fixed-width row sequence with optional dedup index.

    ``indexed=True`` maintains ``find(row) -> id``; the frontier log
    uses ``indexed=False`` (pure append/get).  ``directory`` roots the
    spill segments; by default a private temp directory is created
    lazily at first spill and removed on :meth:`close` (with a
    ``weakref.finalize`` safety net).
    """

    def __init__(
        self,
        width_bytes: int,
        *,
        indexed: bool = True,
        threshold: Optional[int] = None,
        directory: Optional[str] = None,
        label: str = "rows",
    ):
        self.width = width_bytes
        self.indexed = indexed
        self.threshold = spill_threshold() if threshold is None else max(1, threshold)
        self.block = min(self.threshold, MAX_SEGMENT_ROWS)
        self.label = label
        self._rows: List[int] = []
        self._index: Optional[dict] = {} if indexed else None
        self._count = 0
        # Spill state (inactive until the threshold is crossed).
        self.spilling = False
        self._segments: List[_Segment] = []
        self._tail: List[int] = []
        self._spilled_rows = 0
        self._fpmap: Optional[dict] = None
        self._fp_mask = fingerprint_mask()
        self._dir = directory
        self._owns_dir = False
        self._finalizer = None

    # -- core append/get ----------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def segments(self) -> int:
        return len(self._segments)

    @property
    def spilled_rows(self) -> int:
        return self._spilled_rows

    def segment_paths(self) -> List[str]:
        return [seg.path for seg in self._segments]

    def append(self, row: int) -> int:
        """Append ``row`` (caller guarantees novelty when indexed)."""
        rid = self._count
        self._count = rid + 1
        if not self.spilling:
            self._rows.append(row)
            if self._index is not None:
                self._index[row] = rid
            if self._count > self.threshold:
                self.activate_spill()
            return rid
        self._tail.append(row)
        if self._fpmap is not None:
            self._fp_add(row, rid)
        if len(self._tail) >= self.block:
            self._flush_tail()
        return rid

    def get(self, rid: int) -> int:
        if not self.spilling:
            return self._rows[rid]
        block = rid // self.block
        if block < len(self._segments):
            seg = self._segments[block]
            mm = seg.ensure(self.width)
            off = HEADER_SIZE + (rid - block * self.block) * self.width
            return int.from_bytes(mm[off:off + self.width], "little")
        return self._tail[rid - self._spilled_rows]

    def find(self, row: int) -> Optional[int]:
        """The id of ``row`` if present (indexed stores only)."""
        if not self.spilling:
            return self._index.get(row)
        slot = self._fpmap.get(hash(row) & self._fp_mask)
        if slot is None:
            return None
        if type(slot) is int:
            return slot if self.get(slot) == row else None
        for rid in slot:
            if self.get(rid) == row:
                return rid
        return None

    # -- spill machinery ----------------------------------------------

    def activate_spill(self) -> None:
        """Switch to out-of-core mode: flush full blocks, rebuild index."""
        if self.spilling:
            return
        self.spilling = True
        rows = self._rows
        if self.indexed:
            fpmap: dict = {}
            self._fpmap = fpmap
            mask = self._fp_mask
            for rid, row in enumerate(rows):
                self._fp_add_into(fpmap, mask, row, rid)
            self._index = None
        full = (len(rows) // self.block) * self.block
        for start in range(0, full, self.block):
            self._write_segment(rows[start:start + self.block])
        self._tail = rows[full:]
        self._rows = []

    def _fp_add(self, row: int, rid: int) -> None:
        self._fp_add_into(self._fpmap, self._fp_mask, row, rid)

    @staticmethod
    def _fp_add_into(fpmap: dict, mask: int, row: int, rid: int) -> None:
        fp = hash(row) & mask
        slot = fpmap.get(fp)
        if slot is None:
            fpmap[fp] = rid
        elif type(slot) is int:
            fpmap[fp] = [slot, rid]
        else:
            slot.append(rid)

    def _flush_tail(self) -> None:
        self._write_segment(self._tail)
        self._tail = []

    def _ensure_dir(self) -> str:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(prefix=f"repro-kernel-{self.label}-")
            self._owns_dir = True
            self._finalizer = weakref.finalize(self, _cleanup_dir, self._dir)
        return self._dir

    def _write_segment(self, rows: List[int]) -> None:
        directory = self._ensure_dir()
        width = self.width
        payload = b"".join(row.to_bytes(width, "little") for row in rows)
        header = _HEADER.pack(SEGMENT_MAGIC, width, len(rows), _checksum(payload))
        index = len(self._segments)
        final = os.path.join(directory, f"{self.label}-{index:06d}.seg")
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-seg-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(header)
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, final)
            dir_fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._segments.append(_Segment(final, len(rows)))
        self._spilled_rows += len(rows)
        metrics = get_metrics()
        metrics.counter("kernel.spill.segments").inc()
        metrics.counter("kernel.spill.rows").inc(len(rows))

    def close(self) -> None:
        for seg in self._segments:
            seg.close()
        if self._owns_dir and self._dir is not None:
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            _cleanup_dir(self._dir)
            self._dir = None
            self._owns_dir = False
