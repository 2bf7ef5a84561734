"""Run-stable content fingerprints for protocols and canonical keys.

The on-disk valency cache (:mod:`repro.parallel.cache`) is content
addressed: an entry is valid only for exactly the protocol, tape, value
domain and oracle budgets that produced it.  Python's built-in ``hash``
is randomized per process and ``repr`` of sets depends on that hash, so
neither survives a restart.  ``stable_digest`` instead feeds a canonical
byte encoding of the object into SHA-256: container types are tagged and
length-prefixed, unordered containers are serialized in sorted-digest
order, and anything without a canonical encoding raises
:class:`UnstableKeyError` -- refusing to cache beats caching under an
ambiguous address.

Audit note: unlike everywhere configurations are compared, this digest
is *finer* than ``==`` -- ``True``/``1`` and ``False``/``0`` encode
differently (``T;`` vs ``i1;``) on purpose.  A cache address is only
ever compared against a digest recomputed from the same in-memory
object, so distinguishing types can never split a dedup class; it can
only invalidate a cache entry, which is the safe direction.  The packed
codec (:mod:`repro.kernel.codec`) makes the opposite choice for the
same soundness reason: its rows *are* the dedup classes of the visited
set, so its interner is ``==``-keyed and must collapse exactly what
``Configuration`` equality collapses.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import enum
import hashlib
from typing import Hashable

from repro.errors import ReproError
from repro.model.system import BitTape, System, zero_tape

#: Bump when the digest encoding or cached-entry semantics change; part
#: of every fingerprint, so old cache trees are invalidated wholesale.
#: v2: the oracle fingerprint gained ``solo_probe`` -- v1 entries could
#: be resurrected under oracle settings that would have produced
#: different witnesses or bounded-mode answers.
CACHE_SEMANTICS_VERSION = 2


class UnstableKeyError(ReproError):
    """An object has no canonical byte encoding and cannot be cached."""


def _feed(h, obj) -> None:
    """Feed a tagged canonical encoding of ``obj`` into hash ``h``."""
    if obj is None:
        h.update(b"N;")
    elif obj is True:
        h.update(b"T;")
    elif obj is False:
        h.update(b"F;")
    elif isinstance(obj, int):
        h.update(b"i" + str(obj).encode("ascii") + b";")
    elif isinstance(obj, float):
        h.update(b"f" + repr(obj).encode("ascii") + b";")
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        h.update(b"s" + str(len(data)).encode("ascii") + b":")
        h.update(data)
    elif isinstance(obj, bytes):
        h.update(b"b" + str(len(obj)).encode("ascii") + b":")
        h.update(obj)
    elif isinstance(obj, (tuple, list)):
        h.update(b"(" + str(len(obj)).encode("ascii") + b":")
        for item in obj:
            _feed(h, item)
        h.update(b")")
    elif isinstance(obj, (frozenset, set)):
        # Iteration order is hash-randomized: sort the element digests.
        digests = sorted(stable_digest(item) for item in obj)
        h.update(b"{" + str(len(digests)).encode("ascii") + b":")
        for digest in digests:
            h.update(digest.encode("ascii"))
        h.update(b"}")
    elif isinstance(obj, dict):
        pairs = sorted(
            (stable_digest(key), stable_digest(value))
            for key, value in obj.items()
        )
        h.update(b"d" + str(len(pairs)).encode("ascii") + b":")
        for key_digest, value_digest in pairs:
            h.update(key_digest.encode("ascii"))
            h.update(value_digest.encode("ascii"))
        h.update(b";")
    elif isinstance(obj, enum.Enum):
        h.update(b"E")
        _feed(h, type(obj).__qualname__)
        _feed(h, obj.name)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(b"D")
        _feed(h, f"{type(obj).__module__}.{type(obj).__qualname__}")
        for field in dataclasses.fields(obj):
            _feed(h, field.name)
            _feed(h, getattr(obj, field.name))
        h.update(b";")
    elif isinstance(obj, collections.abc.Mapping):
        # Custom mapping types (e.g. repro.model.env.Env): tag with the
        # class identity so equal items under different types never
        # collide, then encode like a dict.
        h.update(b"M")
        _feed(h, f"{type(obj).__module__}.{type(obj).__qualname__}")
        _feed(h, dict(obj))
    elif isinstance(obj, collections.abc.Set):
        h.update(b"S")
        _feed(h, f"{type(obj).__module__}.{type(obj).__qualname__}")
        _feed(h, frozenset(obj))
    else:
        raise UnstableKeyError(
            f"cannot compute a run-stable fingerprint for "
            f"{type(obj).__module__}.{type(obj).__qualname__} instances"
        )


def stable_digest(obj: Hashable) -> str:
    """SHA-256 hex digest of the canonical encoding of ``obj``.

    Equal values digest equally across processes and interpreter runs
    (independent of ``PYTHONHASHSEED``); unencodable values raise
    :class:`UnstableKeyError`.
    """
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _tape_identity(tape) -> Hashable:
    """A stable description of a coin tape, for the fingerprint."""
    if tape is zero_tape:
        return ("tape", "zero")
    if isinstance(tape, BitTape):
        return ("tape", "bits", tape.bits_per_pid, tape.default)
    module = getattr(tape, "__module__", "")
    qualname = getattr(tape, "__qualname__", "")
    if qualname and "<locals>" not in qualname:
        return ("tape", "named", module, qualname)
    raise UnstableKeyError(
        "the system's coin tape has no stable identity; pass a module-level "
        "function or a BitTape to use the on-disk valency cache"
    )


def protocol_fingerprint(protocol) -> str:
    """Content address of a protocol: its reconstruction recipe.

    Protocols pickle by constructor call (see
    :meth:`repro.model.process.Protocol.__reduce__`); the same recipe --
    class identity plus constructor arguments -- addresses the cache.
    Two runs that build the same protocol therefore share cache entries,
    while any change to the protocol class (renames included) misses.
    """
    args, kwargs = getattr(protocol, "_ctor_args", ((), {}))
    return stable_digest(
        (
            CACHE_SEMANTICS_VERSION,
            f"{type(protocol).__module__}.{type(protocol).__qualname__}",
            protocol.n,
            tuple(args),
            dict(kwargs),
        )
    )


def oracle_fingerprint(
    system: System,
    values,
    strict: bool,
    max_configs: int,
    max_depth,
    solo_probe: bool = True,
) -> str:
    """Content address for one oracle's answers against one system.

    Bounded-mode (non-strict) answers depend on the exploration budgets,
    so those are part of the address: changing ``max_configs`` or
    ``max_depth`` must miss rather than resurrect answers computed under
    different budgets.  ``solo_probe`` is part of the address for the
    same reason: the solo-probe fast path stores solo-run witness
    schedules where the plain BFS stores lexicographically-least
    shortest ones, and sharing entries across a setting that can
    influence what gets persisted would let one configuration's answers
    resurface under another.  (The exploration engine is deliberately
    *not* addressed: the kernel's answers and witnesses are
    bit-identical to the interpreter's.)
    """
    return stable_digest(
        (
            protocol_fingerprint(system.protocol),
            _tape_identity(system.tape),
            tuple(values),
            bool(strict),
            int(max_configs),
            None if max_depth is None else int(max_depth),
            bool(solo_probe),
        )
    )
