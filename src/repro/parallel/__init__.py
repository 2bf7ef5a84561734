"""The persistent valency cache and its run-stable fingerprints.

The valency oracle's reachability queries dominate every lemma driver,
so :class:`ValencyCache` content-addresses exploration results on disk
and repeated ``can_decide`` queries across runs become lookups.  The
cache directory is guarded by an advisory lock, so two CLI processes
may share one.

Wire-up points: ``ValencyOracle(system, cache_dir=...)``,
``space_lower_bound(..., cache_dir=...)``, the ``--cache-dir`` CLI flag,
and ``repro cache stats|clear``.
"""

from repro.parallel.cache import (
    CACHE_FORMAT,
    ValencyCache,
    decode_entry,
    default_cache_dir,
    encode_entry,
)
from repro.parallel.fingerprint import (
    UnstableKeyError,
    oracle_fingerprint,
    protocol_fingerprint,
    stable_digest,
)

__all__ = [
    "CACHE_FORMAT",
    "UnstableKeyError",
    "ValencyCache",
    "decode_entry",
    "default_cache_dir",
    "encode_entry",
    "oracle_fingerprint",
    "protocol_fingerprint",
    "stable_digest",
]
