"""The persistent valency cache is an accelerator, never an authority.

These tests poison the cache on purpose -- truncated files, bit flips,
wrong addresses -- and check that every defect is detected by checksum,
quarantined instead of trusted, and transparently recomputed; plus the
housekeeping contracts: ``clear`` leaves an actually-empty directory,
eviction enforces the size bound in LRU order, and un-encodable values
are skipped rather than mis-filed.
"""

import json

import pytest

from repro.core.valency import ValencyOracle
from repro.model.system import System
from repro.parallel import (
    ValencyCache,
    decode_entry,
    default_cache_dir,
    encode_entry,
    stable_digest,
)
from repro.parallel.fingerprint import UnstableKeyError
from repro.protocols.consensus import CasConsensus


def warm_cache(cache_dir):
    """Run enough oracle queries to populate the cache; return answers."""
    oracle = ValencyOracle(
        System(CasConsensus(3)), cache_dir=cache_dir, max_configs=50_000
    )
    root = oracle.system.initial_configuration([0, 1, 1])
    answers = {
        (pid, value): oracle.can_decide(root, frozenset({pid}), value)
        for pid in range(3)
        for value in (0, 1)
    }
    stats = dict(oracle.stats)
    oracle.close()
    return answers, stats


def cache_files(cache_dir):
    cache = ValencyCache(cache_dir)
    return sorted(cache.root.rglob("*.json"))


class TestColdWarm:
    def test_cold_run_stores_its_explorations(self, tmp_path):
        _, cold_stats = warm_cache(tmp_path / "fresh")
        assert cold_stats["explorations"] > 0
        assert cold_stats["disk_stores"] > 0
        assert cold_stats["disk_hits"] == 0

    def test_warm_rerun_explores_nothing(self, cache_dir):
        # ``cache_dir`` may be pinned across CI passes, so the first run
        # here is allowed to start warm; the second must be fully warm.
        first_answers, _ = warm_cache(cache_dir)
        warm_answers, warm_stats = warm_cache(cache_dir)
        assert warm_answers == first_answers
        assert warm_stats["explorations"] == 0
        assert warm_stats["disk_hits"] > 0


class TestPoisoning:
    def test_truncated_file_is_quarantined_and_recomputed(self, tmp_path):
        cache_dir = tmp_path / "cache"
        answers, _ = warm_cache(cache_dir)
        victim = cache_files(cache_dir)[0]
        victim.write_text(victim.read_text()[: len(victim.read_text()) // 2])
        again, stats = warm_cache(cache_dir)
        assert again == answers
        assert victim.with_suffix(".corrupt").exists()
        # The recompute re-stored a valid entry under the same address.
        assert stats["explorations"] > 0
        _, healed = warm_cache(cache_dir)
        assert healed["explorations"] == 0

    def test_bit_flip_fails_the_checksum(self, tmp_path):
        cache_dir = tmp_path / "cache"
        answers, _ = warm_cache(cache_dir)
        victim = cache_files(cache_dir)[0]
        payload = json.loads(victim.read_text())
        # Flip a witness pid inside the body; the file stays valid JSON
        # with a well-formed shape, so only the checksum can catch it.
        payload["body"]["complete"] = not payload["body"]["complete"]
        victim.write_text(json.dumps(payload))
        cache = ValencyCache(cache_dir)
        fingerprint, key_digest = victim.stem.split("-")
        assert cache.load(fingerprint, key_digest) is None
        assert cache.counters["corrupt"] == 1
        assert victim.with_suffix(".corrupt").exists()
        again, _ = warm_cache(cache_dir)
        assert again == answers

    def test_wrong_address_inside_the_file_is_rejected(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = ValencyCache(cache_dir)
        body = encode_entry({0: (0, 0)}, True, ())
        cache.store("aa" * 32, "bb" * 32, body)
        path = cache._path("aa" * 32, "bb" * 32)
        payload = json.loads(path.read_text())
        target = cache._path("cc" * 32, "bb" * 32)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(payload))
        assert cache.load("cc" * 32, "bb" * 32) is None
        assert cache.counters["corrupt"] == 1

    def test_format_version_mismatch_is_a_miss(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = ValencyCache(cache_dir)
        cache.store("aa" * 32, "bb" * 32, encode_entry({}, True, ()))
        path = cache._path("aa" * 32, "bb" * 32)
        payload = json.loads(path.read_text())
        payload["format"] = 999
        path.write_text(json.dumps(payload))
        assert cache.load("aa" * 32, "bb" * 32) is None


class TestQuarantineRace:
    """S2: racing quarantines must preserve evidence and never crash.

    The move is an ``os.link`` to the first free ``.corrupt``/
    ``.corrupt-N`` name -- link fails rather than overwrites, so two
    processes condemning the same entry cannot clobber each other, and
    a path that vanished mid-race (the other process won) is not an
    error.
    """

    def test_quarantine_of_missing_path_is_quiet(self, tmp_path):
        cache = ValencyCache(tmp_path / "cache")
        cache._quarantine(cache.root / "absent.json")  # no raise

    def test_second_quarantine_of_same_path_is_quiet(self, tmp_path):
        cache = ValencyCache(tmp_path / "cache")
        victim = cache.root / "entry.json"
        victim.parent.mkdir(parents=True)
        victim.write_text("bad")
        cache._quarantine(victim)
        assert victim.with_suffix(".corrupt").exists()
        assert not victim.exists()
        cache._quarantine(victim)  # the other racer already won

    def test_requarantine_keeps_both_pieces_of_evidence(self, tmp_path):
        cache = ValencyCache(tmp_path / "cache")
        victim = cache.root / "entry.json"
        victim.parent.mkdir(parents=True)
        victim.write_text("first defect")
        cache._quarantine(victim)
        victim.write_text("second defect")
        cache._quarantine(victim)
        assert victim.with_suffix(".corrupt").read_text() == "first defect"
        assert (
            victim.with_suffix(".corrupt-1").read_text() == "second defect"
        )
        assert cache.stats()["quarantined"] == 2

    def test_concurrent_quarantines_no_clobber_no_crash(self, tmp_path):
        import threading

        cache = ValencyCache(tmp_path / "cache")
        victim = cache.root / "entry.json"
        victim.parent.mkdir(parents=True)
        victim.write_text("shared defect")
        racers = 8
        barrier = threading.Barrier(racers)
        errors = []

        def race():
            barrier.wait()
            try:
                cache._quarantine(victim)
            except BaseException as exc:  # noqa: BLE001 - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=race) for _ in range(racers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert not victim.exists()
        evidence = sorted(victim.parent.glob("entry.corrupt*"))
        assert len(evidence) >= 1
        assert all(
            path.read_text() == "shared defect" for path in evidence
        )

    def test_concurrent_loads_of_one_corrupt_entry(self, tmp_path):
        # The public path: many threads load the same damaged entry at
        # once; every load reports a miss, the evidence survives, and no
        # thread crashes.
        import threading

        cache_dir = tmp_path / "cache"
        cache = ValencyCache(cache_dir)
        cache.store("aa" * 32, "bb" * 32, encode_entry({0: (0,)}, True, ()))
        victim = cache._path("aa" * 32, "bb" * 32)
        victim.write_text(victim.read_text()[:-5])  # tear the entry
        racers = 6
        barrier = threading.Barrier(racers)
        outcomes, errors = [], []

        def race():
            barrier.wait()
            try:
                outcomes.append(
                    ValencyCache(cache_dir).load("aa" * 32, "bb" * 32)
                )
            except BaseException as exc:  # noqa: BLE001 - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=race) for _ in range(racers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert outcomes == [None] * racers
        assert not victim.exists()
        assert list(victim.parent.glob("*.corrupt*"))


class TestHousekeeping:
    def test_clear_empties_the_directory(self, tmp_path):
        cache_dir = tmp_path / "cache"
        warm_cache(cache_dir)
        cache = ValencyCache(cache_dir)
        # Leave a quarantined file around too; clear must take it along.
        victim = cache_files(cache_dir)[0]
        victim.rename(victim.with_suffix(".corrupt"))
        removed = cache.clear()
        assert removed > 0
        # The advisory .lock marker is what serialized the clear against
        # concurrent writers; everything else must be gone.
        leftovers = [
            p
            for p in cache.base.rglob("*")
            if p.is_file() and p.name != ".lock"
        ]
        assert leftovers == []
        assert cache.stats()["entries"] == 0

    def test_eviction_is_lru_and_respects_the_bound(self, tmp_path):
        cache_dir = tmp_path / "cache"
        import os

        cache = ValencyCache(cache_dir)
        paths = []
        for index in range(4):
            digest = stable_digest(index)
            cache.store("aa" * 32, digest, encode_entry({0: (0,)}, True, ()))
            path = cache._path("aa" * 32, digest)
            # mtime resolution can swallow the ordering on fast writes.
            os.utime(path, (index, index))
            paths.append(path)
        size = paths[0].stat().st_size
        cache.max_bytes = size  # room for exactly one entry
        cache._evict_to_bound()
        assert cache.stats()["entries"] == 1
        assert cache.counters["evicted"] == 3
        # LRU: the newest entry is the one that survives.
        assert paths[3].exists()
        assert not any(path.exists() for path in paths[:3])

    def test_stats_counts_entries_and_bytes(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = ValencyCache(cache_dir)
        stats = cache.stats()
        assert stats["entries"] == 0 and stats["bytes"] == 0
        cache.store("aa" * 32, "bb" * 32, encode_entry({1: (0, 1)}, True, ()))
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["stores"] == 1

    def test_default_dir_honours_the_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pin"))
        assert default_cache_dir() == tmp_path / "pin"

    def test_cli_cache_stats_and_clear(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        from repro.cli import main

        warm_cache(cache_dir)
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "cleared" in capsys.readouterr().out
        files = [
            p
            for p in ValencyCache(cache_dir).base.rglob("*")
            if p.is_file() and p.name != ".lock"
        ]
        assert files == []


class TestEncoding:
    def test_round_trip(self):
        body = encode_entry({0: (0, 1, 2), 1: ()}, False, {1, 0})
        witnesses, complete, negative = decode_entry(body)
        assert witnesses == {0: (0, 1, 2), 1: ()}
        assert complete is False
        assert negative == {0, 1}

    def test_non_json_native_values_are_not_cached(self):
        assert encode_entry({(1, 2): (0,)}, True, ()) is None
        assert encode_entry({0: (0,)}, True, {object()}) is None

    def test_stable_digest_rejects_unencodable_objects(self):
        with pytest.raises(UnstableKeyError):
            stable_digest(object())

    def test_stable_digest_is_order_insensitive_for_sets(self):
        assert stable_digest(frozenset({1, 2, 3})) == stable_digest(
            frozenset({3, 1, 2})
        )
        assert stable_digest({"a": 1, "b": 2}) == stable_digest(
            {"b": 2, "a": 1}
        )

    def test_stable_digest_distinguishes_scalar_types(self):
        cases = [
            None, True, False, 0, 1, 1.5, "1", b"1", (1,), frozenset({1}),
        ]
        digests = [stable_digest(case) for case in cases]
        assert len(set(digests)) == len(digests)
        # ... but equal values digest equally, whatever the container.
        assert stable_digest((1, 2)) == stable_digest([1, 2])


class TestFingerprints:
    def test_protocol_fingerprint_tracks_constructor_args(self):
        from repro.parallel import protocol_fingerprint

        assert protocol_fingerprint(CasConsensus(3)) == protocol_fingerprint(
            CasConsensus(3)
        )
        assert protocol_fingerprint(CasConsensus(3)) != protocol_fingerprint(
            CasConsensus(4)
        )

    def test_oracle_fingerprint_tracks_budgets(self):
        from repro.parallel import oracle_fingerprint

        system = System(CasConsensus(3))
        base = oracle_fingerprint(
            system, (0, 1), strict=True, max_configs=100, max_depth=None
        )
        assert base == oracle_fingerprint(
            system, (0, 1), strict=True, max_configs=100, max_depth=None
        )
        for other in [
            oracle_fingerprint(
                system, (0, 1), strict=False, max_configs=100, max_depth=None
            ),
            oracle_fingerprint(
                system, (0, 1), strict=True, max_configs=200, max_depth=None
            ),
            oracle_fingerprint(
                system, (0, 1), strict=True, max_configs=100, max_depth=7
            ),
            oracle_fingerprint(
                system, (0, 1, 2), strict=True, max_configs=100,
                max_depth=None,
            ),
        ]:
            assert other != base

    def test_oracle_fingerprint_tracks_solo_probe(self):
        # Regression: before CACHE_SEMANTICS_VERSION 2 the address
        # omitted the setting, so a solo_probe=False oracle could
        # resurrect solo-run witnesses a solo_probe=True oracle stored.
        from repro.parallel import oracle_fingerprint

        system = System(CasConsensus(3))
        budgets = dict(strict=True, max_configs=100, max_depth=None)
        base = oracle_fingerprint(system, (0, 1), **budgets)
        assert (
            oracle_fingerprint(system, (0, 1), solo_probe=False, **budgets)
            != base
        )

    def test_oracle_fingerprint_ignores_the_exploration_engine(self):
        # Kernel and interpreter answers are bit-identical, so a
        # System oracle and an InterpretedSystem oracle share entries.
        from repro.model.system import InterpretedSystem
        from repro.parallel import oracle_fingerprint

        budgets = dict(strict=True, max_configs=100, max_depth=None)
        assert oracle_fingerprint(
            System(CasConsensus(3)), (0, 1), **budgets
        ) == oracle_fingerprint(
            InterpretedSystem(CasConsensus(3)), (0, 1), **budgets
        )


class TestAddressIsolation:
    """Oracles with different witness-shaping settings must not share
    disk entries (the v1 -> v2 cache-address regression)."""

    def run_oracle(self, cache_dir, **kwargs):
        oracle = ValencyOracle(
            System(CasConsensus(3)),
            cache_dir=cache_dir,
            max_configs=50_000,
            **kwargs,
        )
        root = oracle.system.initial_configuration([0, 1, 1])
        answers = {
            (pid, value): oracle.can_decide(root, frozenset({pid}), value)
            for pid in range(3)
            for value in (0, 1)
        }
        stats = dict(oracle.stats)
        oracle.close()
        return answers, stats

    def test_solo_probe_setting_does_not_share_entries(self, tmp_path):
        cache_dir = tmp_path / "cache"
        probe_answers, probe_stats = self.run_oracle(
            cache_dir, solo_probe=True
        )
        assert probe_stats["disk_stores"] > 0
        plain_answers, plain_stats = self.run_oracle(
            cache_dir, solo_probe=False
        )
        # Same truths, but computed fresh: the solo-probe entries are
        # invisible under the solo_probe=False address.
        assert plain_answers == probe_answers
        assert plain_stats["disk_hits"] == 0
        assert plain_stats["explorations"] > 0

    def test_certificates_byte_equal_across_engines_sharing_a_cache(
        self, tmp_path
    ):
        # The address ignores the exploration engine, so kernel and
        # interpreter runs read each other's entries: the certificates
        # must stay byte-identical whichever engine stored them.
        from repro.core.serialize import to_json
        from repro.core.theorem import space_lower_bound
        from repro.model.system import InterpretedSystem
        from repro.protocols.consensus import CommitAdoptRounds

        cache_dir = tmp_path / "cache"
        certs = [
            to_json(
                space_lower_bound(
                    system_class(CommitAdoptRounds(3)),
                    strict=False,
                    max_configs=40_000,
                    max_depth=80,
                    cache_dir=cache_dir,
                )
            )
            for system_class in (System, InterpretedSystem, System)
        ]
        assert certs[0] == certs[1] == certs[2]

    def test_tape_identities(self):
        from repro.model.system import tape_from_bits, zero_tape
        from repro.parallel.fingerprint import _tape_identity

        assert _tape_identity(zero_tape) == ("tape", "zero")
        bits = tape_from_bits([(1, 0)], default=1)
        identity = _tape_identity(bits)
        assert identity[:2] == ("tape", "bits")
        assert _tape_identity(stable_digest)[:2] == ("tape", "named")
        with pytest.raises(UnstableKeyError):
            _tape_identity(lambda pid, index: 0)

    def test_custom_set_types_are_tagged_with_their_class(self):
        import collections.abc

        class TinySet(collections.abc.Set):
            def __init__(self, items):
                self._items = frozenset(items)

            def __contains__(self, item):
                return item in self._items

            def __iter__(self):
                return iter(self._items)

            def __len__(self):
                return len(self._items)

        assert stable_digest(TinySet({1, 2})) == stable_digest(TinySet({2, 1}))
        # Same elements under a different type must not collide.
        assert stable_digest(TinySet({1, 2})) != stable_digest(
            frozenset({1, 2})
        )

    def test_enum_and_dataclass_digests(self):
        from repro.model.registers import ObjectKind, register

        assert stable_digest(ObjectKind.REGISTER) != stable_digest(
            ObjectKind.SWAP
        )
        assert stable_digest(register(0, name="r0")) == stable_digest(
            register(0, name="r0")
        )
        assert stable_digest(register(0, name="r0")) != stable_digest(
            register(1, name="r0")
        )
