"""Property tests for the canonical codec on *randomized* chain states.

``tests/test_store_codec.py`` pins the codec on hand-built values and
one settled HIT chain; these properties push past the hand-built cases:
hypothesis generates arbitrary plain-data values, and whole chain
states — ledgers, registries, contract storage, event logs, clocks —
are grown from a seeded :mod:`repro.crypto.rng` stream.  The invariants
are the two the persistence subsystem stands on:

* ``decode(encode(s)) == s`` — a round trip loses nothing, and
  re-encoding the decoded state reproduces the exact bytes;
* ``state_root`` stability — the root of a restored chain equals the
  root of the original (otherwise snapshots could not be verified).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.chain import Chain
from repro.chain.contract import CallContext, Contract, snapshot_value
from repro.chain.transactions import scoped_tx_nonces
from repro.crypto.curve import G1Point
from repro.crypto.elgamal import keygen
from repro.crypto.rng import deterministic_entropy, entropy
from repro.ledger.accounts import Address
from repro.store import codec
from repro.store.blockstore import same_encoding
from repro.store.codec import decode, encode

# ---------------------------------------------------------------------------
# Value layer: arbitrary plain data round-trips exactly
# ---------------------------------------------------------------------------

_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**140), max_value=2**140)
    | st.floats(allow_nan=False)
    | st.binary(max_size=24)
    | st.text(max_size=24)
)
_keys = (
    st.integers(min_value=-(2**40), max_value=2**40)
    | st.text(max_size=12)
    | st.binary(max_size=12)
)
_plain_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_keys, children, max_size=4),
    max_leaves=24,
)


@given(value=_plain_values)
@settings(max_examples=200, deadline=None)
def test_any_plain_value_round_trips(value):
    blob = encode(value)
    restored = decode(blob)
    assert restored == value
    assert type(restored) is type(value)
    assert encode(restored) == blob  # re-encoding is a fixed point


@given(value=_plain_values)
@settings(max_examples=100, deadline=None)
def test_encoding_is_deterministic_for_any_value(value):
    assert encode(value) == encode(value)


@given(old=_plain_values, new=_plain_values)
@settings(max_examples=200, deadline=None)
def test_the_differ_equality_is_byte_equality(old, new):
    """The state differ treats two values as the same exactly when they
    encode to the same bytes, and a value as the same as its copies."""
    assert same_encoding(old, new) == (encode(old) == encode(new))
    assert same_encoding(old, decode(encode(old)))
    assert same_encoding(old, snapshot_value(old))


@pytest.mark.parametrize(
    "old, new",
    [
        (1, True),
        (0, False),
        (1, 1.0),
        (0.0, -0.0),
        ({"a": 1, "b": 2}, {"b": 2, "a": 1}),
        ([{"a": 1}], [{"a": True}]),
    ],
)
def test_values_that_compare_equal_can_differ(old, new):
    assert old == new
    assert not same_encoding(old, new)


# ---------------------------------------------------------------------------
# Whole-chain layer: randomized states grown from seeded entropy
# ---------------------------------------------------------------------------


class Junkyard(Contract):
    """A contract whose methods write rng-shaped junk into storage."""

    code_size = 64

    def stash(self, ctx: CallContext) -> None:
        key, value = ctx.args
        self._sstore(ctx, key, value)
        self.emit(ctx, "stashed", payload={"key": key, "from": ctx.sender})


def _random_storage_value(depth: int = 0):
    """One storage value drawn from the seeded entropy stream."""
    choices = 8 if depth < 2 else 6
    kind = entropy.randbelow(choices)
    if kind == 0:
        return entropy.randbelow(2**64) - 2**63
    if kind == 1:
        return entropy.token_bytes(entropy.randbelow(24))
    if kind == 2:
        return "s:" + entropy.token_bytes(8).hex()
    if kind == 3:
        return None if entropy.randbelow(2) else bool(entropy.randbelow(2))
    if kind == 4:
        return Address.from_label("acct-%d" % entropy.randbelow(1000))
    if kind == 5:
        return G1Point.generator() * (1 + entropy.randbelow(2**32))
    if kind == 6:
        return [
            _random_storage_value(depth + 1)
            for _ in range(entropy.randbelow(4))
        ]
    return {
        "k%d" % index: _random_storage_value(depth + 1)
        for index in range(entropy.randbelow(4))
    }


def _random_chain() -> Chain:
    """Grow a chain state from the (already seeded) entropy stream."""
    chain = Chain()
    users = [
        chain.register_account(
            "acct-%d" % index, entropy.randbelow(10_000)
        )
        for index in range(1 + entropy.randbelow(5))
    ]
    public_key, _ = keygen()
    contract = Junkyard("junk-%d" % entropy.randbelow(1000))
    chain.deploy(contract, users[0])
    for _ in range(entropy.randbelow(8)):
        sender = users[entropy.randbelow(len(users))]
        key = "slot-%d" % entropy.randbelow(12)
        value = _random_storage_value()
        if entropy.randbelow(4) == 0:
            # Sprinkle in the typed tags transaction args exercise.
            value = (value, public_key.encrypt(entropy.randbelow(8)))
        chain.send(sender, contract.name, "stash", args=(key, value))
        if entropy.randbelow(2):
            chain.mine_block()
    chain.mine_until_idle()
    for _ in range(entropy.randbelow(3)):
        chain.mine_block()  # trailing empty blocks advance the clock
    if entropy.randbelow(2):
        # Exercise the prune-base offset in the encoded event log.
        chain.subscribe(from_start=True).poll()
        chain.event_log.prune(through=entropy.randbelow(len(chain.event_log) + 1))
    return chain


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_randomized_chain_states_round_trip(seed):
    with scoped_tx_nonces(), deterministic_entropy(seed):
        chain = _random_chain()
    # Junkyard is test-local; register it for the decode side.
    codec.CONTRACT_TYPES.setdefault("Junkyard", Junkyard)
    try:
        blob = codec.encode_chain_state(chain)
        restored = codec.decode_chain_state(blob)
        assert codec.encode_chain_state(restored) == blob
        assert codec.state_root(restored) == codec.state_root(chain)
        # Observable state survives, not just bytes.
        assert restored.height == chain.height
        assert restored.clock.period == chain.clock.period
        assert restored.total_gas == chain.total_gas
        assert restored.event_log.pruned == chain.event_log.pruned
        assert len(restored.event_log) == len(chain.event_log)
        assert restored.ledger.total_supply() == chain.ledger.total_supply()
        for name in chain._contracts:
            assert restored.contract(name).storage == chain.contract(name).storage
    finally:
        codec.CONTRACT_TYPES.pop("Junkyard", None)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_state_root_is_stable_across_re_encoding(seed):
    """Two encodings of one state, taken at different times, agree."""
    with scoped_tx_nonces(), deterministic_entropy(seed):
        chain = _random_chain()
    codec.CONTRACT_TYPES.setdefault("Junkyard", Junkyard)
    try:
        first = codec.state_root(chain)
        roundtripped = codec.decode_chain_state(
            codec.encode_chain_state(chain)
        )
        assert codec.state_root(chain) == first
        assert codec.state_root(roundtripped) == first
    finally:
        codec.CONTRACT_TYPES.pop("Junkyard", None)
