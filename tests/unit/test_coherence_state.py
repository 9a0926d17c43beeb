"""Unit and property tests for the global MOSI state tracker."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.types import AccessType, MEMORY_NODE
from repro.coherence.state import BlockState, GlobalCoherenceState

from tests.conftest import gets, getx

N = 4


@pytest.fixture
def state():
    return GlobalCoherenceState(N)


class TestBlockState:
    def test_default_owned_by_memory(self):
        block = BlockState()
        assert block.owner == MEMORY_NODE
        assert block.holders() == frozenset()

    def test_holders_include_owner_and_sharers(self):
        block = BlockState(owner=1, sharers=frozenset({2, 3}))
        assert block.holders() == {1, 2, 3}
        assert block.is_cached(1) and block.is_cached(2)
        assert not block.is_cached(0)


class TestGets:
    def test_cold_read_from_memory(self, state):
        outcome = state.apply(gets(0x40, 0))
        assert outcome.responder == MEMORY_NODE
        assert outcome.required.is_empty()
        assert not outcome.directory_indirection
        assert state.lookup(0x40).sharers == {0}
        assert state.lookup(0x40).owner == MEMORY_NODE

    def test_read_after_write_is_cache_to_cache(self, state):
        state.apply(getx(0x40, 1))
        outcome = state.apply(gets(0x40, 0))
        assert outcome.responder == 1
        assert outcome.required.nodes() == (1,)
        assert outcome.directory_indirection
        # MOSI: writer keeps ownership (M -> O); reader becomes sharer.
        assert state.lookup(0x40).owner == 1
        assert state.lookup(0x40).sharers == {0}

    def test_read_by_owner_is_noop(self, state):
        state.apply(getx(0x40, 1))
        outcome = state.apply(gets(0x40, 1))
        assert outcome.responder == MEMORY_NODE
        assert outcome.required.is_empty()
        assert state.lookup(0x40).owner == 1


class TestGetx:
    def test_cold_write(self, state):
        outcome = state.apply(getx(0x40, 2))
        assert outcome.responder == MEMORY_NODE
        assert outcome.required.is_empty()
        assert state.lookup(0x40).owner == 2
        assert state.lookup(0x40).sharers == frozenset()

    def test_write_invalidates_sharers(self, state):
        state.apply(gets(0x40, 0))
        state.apply(gets(0x40, 1))
        outcome = state.apply(getx(0x40, 2))
        assert set(outcome.required) == {0, 1}
        assert outcome.directory_indirection
        assert state.lookup(0x40).owner == 2
        assert state.lookup(0x40).sharers == frozenset()

    def test_write_finds_owner(self, state):
        state.apply(getx(0x40, 1))
        outcome = state.apply(getx(0x40, 3))
        assert outcome.responder == 1
        assert set(outcome.required) == {1}
        assert state.lookup(0x40).owner == 3

    def test_upgrade_by_owner_requires_sharers_only(self, state):
        state.apply(getx(0x40, 1))
        state.apply(gets(0x40, 2))
        outcome = state.apply(getx(0x40, 1))
        assert outcome.responder == MEMORY_NODE  # no data transfer
        assert set(outcome.required) == {2}
        assert outcome.directory_indirection

    def test_is_cache_to_cache(self, state):
        state.apply(getx(0x40, 1))
        assert state.apply(gets(0x40, 0)).is_cache_to_cache
        assert not state.apply(gets(0x80, 0)).is_cache_to_cache


class TestEviction:
    def test_owner_eviction_writes_back(self, state):
        state.apply(getx(0x40, 1))
        state.evict(1, 0x40)
        assert state.lookup(0x40).owner == MEMORY_NODE

    def test_sharer_eviction_drops_silently(self, state):
        state.apply(getx(0x40, 1))
        state.apply(gets(0x40, 2))
        state.evict(2, 0x40)
        assert state.lookup(0x40).owner == 1
        assert state.lookup(0x40).sharers == frozenset()

    def test_eviction_of_untracked_block_is_noop(self, state):
        state.evict(0, 0x9999)
        assert state.n_tracked_blocks() == 0

    def test_eviction_by_nonholder_is_noop(self, state):
        state.apply(getx(0x40, 1))
        state.evict(2, 0x40)
        assert state.lookup(0x40).owner == 1


class TestValidation:
    def test_rejects_out_of_range_requester(self, state):
        with pytest.raises(ValueError):
            state.apply(gets(0x40, N + 1))

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            GlobalCoherenceState(0)
        with pytest.raises(ValueError):
            GlobalCoherenceState(4, block_size=100)

    def test_sub_block_addresses_share_state(self, state):
        state.apply(getx(0x40, 1))
        assert state.lookup(0x7F).owner == 1


class TestInvariants:
    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, N - 1),
                st.integers(0, 7),
                st.booleans(),
            ),
            max_size=150,
        )
    )
    def test_owner_never_in_sharers_and_required_excludes_requester(
        self, operations
    ):
        state = GlobalCoherenceState(N)
        for node, block_id, is_write in operations:
            record = (
                getx(block_id * 64, node)
                if is_write
                else gets(block_id * 64, node)
            )
            outcome = state.apply(record)
            assert node not in outcome.required
            block = state.lookup(block_id * 64)
            if block.owner != MEMORY_NODE:
                assert block.owner not in block.sharers

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(st.integers(0, N - 1), st.integers(0, 3)),
            min_size=1,
            max_size=100,
        )
    )
    def test_writer_gets_exclusive_ownership(self, writes):
        state = GlobalCoherenceState(N)
        for node, block_id in writes:
            state.apply(getx(block_id * 64, node))
            block = state.lookup(block_id * 64)
            assert block.owner == node
            assert block.sharers == frozenset()


class TestCheckInvariants:
    def test_states_reached_by_requests_pass(self, state):
        for record in (
            gets(0x40, 0), gets(0x40, 1), getx(0x80, 2), gets(0x80, 3),
            getx(0x40, 3), gets(0xC0, 1),
        ):
            state.apply(record)
        state.check_invariants()

    @pytest.mark.parametrize(
        "entry, message",
        [
            ((N, 0), "owner 4"),
            ((-2, 0), "owner -2"),
            ((1, 1 << 1), "owner 1 is also a sharer"),
            ((MEMORY_NODE, 1 << N), "exceeds 4 bits"),
            ((0, -1), "exceeds 4 bits"),
            ((0,), "malformed"),
        ],
    )
    def test_violations_name_the_block(self, state, entry, message):
        state.apply(gets(0x40, 0))
        state._blocks[0x1C0] = entry
        with pytest.raises(AssertionError, match=message) as excinfo:
            state.check_invariants()
        assert "0x1c0" in str(excinfo.value)
