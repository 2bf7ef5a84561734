"""Packed configuration codec: round trips, hash equality, errors.

The codec's contract is *injectivity up to configuration equality*:
``pack`` maps ``==``-equal configurations to the same row, distinct
configurations to distinct rows, and ``unpack(pack(c)) == c``.  The
visited arena dedups rows directly, so a violation would merge or split
states behind the interpreter's back.
"""

from hypothesis import given
import hypothesis.strategies as st

import pytest

from repro.errors import KernelError
from repro.kernel import PackedCodec
from repro.kernel.codec import FIELD_BITS, FIELD_MASK
from repro.model.configuration import Configuration
from repro.model.system import System

from tests.strategies import table_protocols


def make_codec(n=2, registers=2):
    return PackedCodec(n, registers)


class TestRoundTrip:
    def test_pack_unpack_identity_on_reachable_graph(self):
        """Every configuration the explorer can reach round-trips."""
        from repro.analysis.explorer import Explorer
        from repro.protocols.consensus import CommitAdoptRounds

        system = System(CommitAdoptRounds(2))
        explorer = Explorer(system, max_configs=5_000, strict=False)
        root = system.initial_configuration([0, 1])
        codec = PackedCodec(2, system.protocol.num_objects)
        seen = 0
        for config, _schedule in explorer.iter_reachable(
            root, frozenset({0, 1})
        ):
            row = codec.pack(config)
            again = codec.unpack(row)
            assert again == config
            assert hash(again) == hash(config)
            assert codec.pack(again) == row
            seen += 1
            if seen >= 200:
                break
        assert seen > 0

    @given(protocol=table_protocols(), inputs_seed=st.integers(0, 7))
    def test_pack_unpack_identity_on_generated_protocols(
        self, protocol, inputs_seed
    ):
        system = System(protocol)
        inputs = [(inputs_seed >> pid) & 1 for pid in range(protocol.n)]
        config = system.initial_configuration(inputs)
        codec = PackedCodec(protocol.n, protocol.num_objects)
        row = codec.pack(config)
        assert codec.unpack(row) == config
        # Coin fields sit above the state and register fields: a row
        # that consumed no coins is no longer than one without them.
        assert row.bit_length() <= (
            protocol.n + protocol.num_objects
        ) * FIELD_BITS

    def test_equal_configurations_pack_identically(self):
        """Satellite-6 regression: values equal under ``==`` (True/1,
        0/False) must intern to the same field id, exactly as
        ``Configuration`` equality treats them -- the packed row and the
        object configuration can never disagree about duplicates."""
        codec = make_codec()
        a = Configuration(
            states=(True, 0), memory=(False, 1), coins=(0, 0)
        )
        b = Configuration(states=(1, 0), memory=(0, 1), coins=(0, 0))
        assert a == b
        assert codec.pack(a) == codec.pack(b)
        assert codec.unpack(codec.pack(a)) == b

    def test_distinct_configurations_pack_distinctly(self):
        codec = make_codec()
        rows = set()
        for s0 in (0, 1, 2):
            for m0 in (0, 1):
                rows.add(
                    codec.pack(
                        Configuration(
                            states=(s0, 0), memory=(m0, 0), coins=(0, 0)
                        )
                    )
                )
        assert len(rows) == 6


class TestErrors:
    def test_coin_counter_overflow_raises(self):
        codec = make_codec()
        config = Configuration(
            states=(0, 0), memory=(0, 0), coins=(FIELD_MASK + 1, 0)
        )
        with pytest.raises(KernelError):
            codec.pack(config)

