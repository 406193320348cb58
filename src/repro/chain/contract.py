"""The smart-contract execution model.

A :class:`Contract` is a stateful program whose public methods are invoked
by transactions.  The model captures what the paper needs from Ethereum:

* transparent state (anyone can read storage; tests do),
* gas-metered execution (methods charge a :class:`~repro.chain.gas.GasMeter`
  through the ``_sstore``/``_sload``/``emit``/precompile helpers),
* revert semantics (raising :class:`~repro.errors.ContractError` rolls
  back storage and ledger effects),
* access to the ledger functionality L for FreezeCoins / PayCoins.

Contract methods take a single :class:`CallContext` argument and are
named after the protocol message they handle (``publish``, ``commit``,
``reveal`` ...), mirroring Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, List, Optional, Tuple

from repro.chain.gas import GasMeter, HIT_CONTRACT_CODE_BYTES
from repro.chain.transactions import Event
from repro.errors import ContractError
from repro.ledger.accounts import Address
from repro.ledger.ledger import Ledger


def snapshot_value(value: Any) -> Any:
    """A revert-safe copy of one storage value.

    Recurses into the mutable containers a handler could mutate in
    place (lists, dicts, sets, bytearrays — and tuples, whose *elements*
    may be mutable); everything else (ints, bytes, strings, frozen
    crypto objects) is shared, so a snapshot costs no more than the
    container skeleton.  A shallow ``dict(storage)`` is not enough:
    ``storage["workers"].append(...)`` followed by a raise would leave
    the append behind after "revert".
    """
    if isinstance(value, list):
        return [snapshot_value(item) for item in value]
    if isinstance(value, dict):
        return {key: snapshot_value(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return tuple(snapshot_value(item) for item in value)
    if isinstance(value, set):
        return {snapshot_value(item) for item in value}
    if isinstance(value, bytearray):
        return bytearray(value)
    return value


def snapshot_storage(storage: Dict[str, Any]) -> Dict[str, Any]:
    """A deep, revert-safe snapshot of a contract's storage dict."""
    return {key: snapshot_value(value) for key, value in storage.items()}


@dataclass
class CallContext:
    """Everything a contract method sees about the current call."""

    sender: Address
    args: Tuple[Any, ...]
    payload: bytes
    value: int
    meter: GasMeter
    period: int
    ledger: Ledger
    events: List[Event] = dataclass_field(default_factory=list)

    def require(self, condition: bool, reason: str) -> None:
        """Revert the call unless ``condition`` holds."""
        if not condition:
            raise ContractError(reason)


class Contract:
    """Base class for simulated contracts.

    Subclasses keep *all* mutable state inside ``self.storage`` (a flat
    dict) so the chain can snapshot and roll back on revert, exactly like
    EVM storage.  ``code_size`` feeds the deployment-gas model.
    """

    code_size: int = HIT_CONTRACT_CODE_BYTES

    def __init__(self, name: str) -> None:
        self.name = name
        self.address = Address.from_label("contract:" + name)
        self.storage: Dict[str, Any] = {}

    # -- lifecycle -----------------------------------------------------------

    def on_deploy(self, ctx: CallContext) -> None:
        """Constructor hook; charged as part of the deployment tx."""

    # -- storage helpers (gas-charged) ----------------------------------------

    def _sstore(self, ctx: CallContext, key: str, value: Any) -> None:
        """Write one storage slot, charging SSTORE_SET or SSTORE_RESET."""
        fresh = key not in self.storage
        ctx.meter.charge_sstore(fresh=fresh)
        self.storage[key] = value

    def _sload(self, ctx: CallContext, key: str, default: Any = None) -> Any:
        """Read one storage slot, charging SLOAD."""
        ctx.meter.charge_sload()
        return self.storage.get(key, default)

    def _memory_read(self, key: str, default: Any = None) -> Any:
        """Gas-free read, for off-chain observers (tests, clients)."""
        return self.storage.get(key, default)

    # -- events -----------------------------------------------------------------

    def emit(
        self,
        ctx: CallContext,
        name: str,
        data: bytes = b"",
        topics: Tuple[bytes, ...] = (),
        payload: Optional[Any] = None,
    ) -> None:
        """Emit an event, charging LOG gas on its topics and data size."""
        ctx.meter.charge_log(len(topics), len(data))
        ctx.events.append(
            Event(self.address, name, tuple(topics), data, payload)
        )

    # -- dispatch ------------------------------------------------------------------

    def dispatch(self, method: str, ctx: CallContext) -> Any:
        """Route a transaction to the handler method named ``method``."""
        if method.startswith("_"):
            raise ContractError("cannot call private method %r" % method)
        handler = getattr(self, method, None)
        if handler is None or not callable(handler):
            raise ContractError(
                "%s has no method %r" % (type(self).__name__, method)
            )
        return handler(ctx)
