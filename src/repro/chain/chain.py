"""The blockchain simulator: blocks, contract execution, gas accounting.

:class:`Chain` ties the substrate together.  One :meth:`mine_block` call
models one clock period of the paper's synchronous network: the mempool
is drained in adversary-chosen order, each transaction executes against
contract storage and the ledger with full gas metering, and failures roll
back cleanly (EVM revert semantics).

Gas is accounted per sender and per receipt but is *not* debited from
ledger coin balances: the paper keeps handling fees (gas, paid in ether)
conceptually separate from task rewards (the frozen budget B), and so do
we — the analysis layer converts gas to USD for Table III.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chain.blocks import Block, GENESIS_HASH
from repro.chain.clock import Clock
from repro.chain.contract import CallContext, Contract, snapshot_storage
from repro.chain.eventlog import EventFilter, EventLog, Subscription
from repro.chain.gas import GasMeter, calldata_cost, TX_BASE
from repro.chain.network import Mempool, Scheduler
from repro.chain.transactions import Event, Receipt, Transaction
from repro.errors import ChainError, ContractError, OutOfGas
from repro.ledger.accounts import Address, Registry
from repro.ledger.ledger import Ledger
from repro.obs import registry as _obs
from repro.obs.tracing import span_clock as _span_clock, trace_span

_BLOCKS_MINED = _obs.REGISTRY.counter(
    "chain_blocks_mined_total", "Blocks sealed by mine_block"
)
_TXS_EXECUTED = _obs.REGISTRY.counter(
    "chain_txs_executed_total", "Transactions executed, by outcome",
    labelnames=("status",),
)
_GAS_USED = _obs.REGISTRY.counter(
    "chain_gas_used_total", "Gas charged across all executed transactions"
)
_EVENTS_EMITTED = _obs.REGISTRY.counter(
    "chain_events_emitted_total", "Events appended to the chain event log"
)
_CHAIN_HEIGHT = _obs.REGISTRY.gauge(
    "chain_height", "Blocks sealed on the most recently mined chain"
)
_MEMPOOL_DEPTH = _obs.REGISTRY.gauge(
    "chain_mempool_depth", "Pending transactions after the last mine"
)
_MINE_SECONDS = _obs.REGISTRY.histogram(
    "chain_mine_block_seconds", "Wall-clock duration of mine_block"
)


class Chain:
    """An in-process blockchain with gas metering and revert semantics."""

    def __init__(
        self,
        ledger: Optional[Ledger] = None,
        scheduler: Optional[Scheduler] = None,
        registry: Optional[Registry] = None,
    ) -> None:
        self.ledger = ledger if ledger is not None else Ledger()
        self.registry = registry if registry is not None else Registry()
        self.clock = Clock()
        self.mempool = Mempool()
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.blocks: List[Block] = []
        self.event_log = EventLog()
        self.gas_by_sender: Dict[Address, int] = {}
        self._contracts: Dict[str, Contract] = {}
        #: Optional persistence sink (see :mod:`repro.store`): when set,
        #: every sealed block is journalled to its write-ahead log.
        self.store = None
        #: Lazily-attached :class:`repro.store.trie.ChainStateTrie`
        #: (created by ``codec.state_root`` / ``chain_state_trie`` on
        #: first use; dropped from pickles and rebuilt on resume).
        self._state_trie = None

    # -- persistence --------------------------------------------------------------

    def attach_store(self, store) -> None:
        """Journal every block this chain seals to ``store``'s WAL.

        The store captures a baseline of the current state immediately,
        then receives one :meth:`~repro.store.nodestore.NodeStore.on_block`
        callback per sealed block (mined *or* deployment) with the chain
        already advanced — which is what lets a crash recover by
        replaying WAL records on top of the last snapshot."""
        self.store = store
        if store is not None:
            store.on_attach(self)

    def _notify_store(self, block: Block) -> None:
        if self.store is not None:
            self.store.on_block(self, block)
        if self._state_trie is not None:
            self._state_trie.on_block(self, block)

    def __getstate__(self) -> dict:
        """Checkpoint pickling carries the chain state, never the store
        (open file handles) or the state-trie tracker (an RLock plus a
        cache that rebuilds byte-identically from state);
        :meth:`attach_store` re-wires the former and the first
        ``state_root`` read rebuilds the latter."""
        state = dict(self.__dict__)
        state["store"] = None
        state["_state_trie"] = None
        return state

    @property
    def events(self) -> List[Event]:
        """Every successfully emitted event, in emission order.

        A read-only view over :attr:`event_log`; cursor-based consumers
        should :meth:`subscribe` instead of rescanning this list.
        """
        return [record.event for record in self.event_log]

    # -- accounts ---------------------------------------------------------------

    def register_account(self, label: str, balance: int = 0) -> Address:
        """Grant an identity with the registry and open its ledger account."""
        address = self.registry.grant(label)
        if not self.ledger.has_account(address):
            self.ledger.open_account(address, balance)
        return address

    # -- contracts ----------------------------------------------------------------

    def _execute_deployment(
        self,
        contract: Contract,
        deployer: Address,
        args: Tuple[Any, ...],
        payload: bytes,
        value: int,
    ) -> Receipt:
        """Run one deployment transaction (constructor + gas), no sealing."""
        if contract.name in self._contracts:
            raise ChainError("contract name already taken: %s" % contract.name)
        self._contracts[contract.name] = contract

        transaction = Transaction(
            sender=deployer,
            contract=contract.name,
            method="__deploy__",
            payload=payload,
            args=args,
            value=value,
        )
        meter = GasMeter(gas_limit=transaction.gas_limit)
        ctx = CallContext(
            sender=deployer,
            args=args,
            payload=payload,
            value=value,
            meter=meter,
            period=self.clock.period,
            ledger=self.ledger,
        )
        ledger_state = self.ledger.snapshot()
        try:
            meter.charge_intrinsic(payload)
            meter.charge_deployment(contract.code_size)
            contract.on_deploy(ctx)
        except (ContractError, OutOfGas) as exc:
            reason = str(exc)
        except Exception as exc:  # EVM semantics: any fault reverts
            reason = "invalid call: %s: %s" % (type(exc).__name__, exc)
        else:
            receipt = Receipt(
                transaction, True, meter.used, dict(meter.breakdown),
                tuple(ctx.events),
            )
            self._record_gas(deployer, meter.used)
            self._log_events(ctx.events)
            return receipt
        self.ledger.restore(ledger_state)
        del self._contracts[contract.name]
        return Receipt(
            transaction, False, meter.used, dict(meter.breakdown), (), reason
        )

    def deploy(
        self,
        contract: Contract,
        deployer: Address,
        args: Tuple[Any, ...] = (),
        payload: bytes = b"",
        value: int = 0,
    ) -> Receipt:
        """Deploy a contract: executes its constructor in its own block.

        Deployment is modelled as an immediate single-transaction block
        (ordering games on a deployment are uninteresting: nothing else
        can reference the contract before it exists).
        """
        receipt = self._execute_deployment(contract, deployer, args, payload, value)
        block = self._seal_block([receipt.transaction], [receipt])
        self._notify_store(block)
        return receipt

    def deploy_many(
        self,
        deployments: Sequence[
            Tuple[Contract, Address, Tuple[Any, ...], bytes]
        ],
    ) -> List[Receipt]:
        """Deploy several contracts in *one* block (batched publication).

        This is the mempool-style counterpart of :meth:`deploy` for
        multi-task throughput: N interleaved tasks publish in a single
        clock period instead of sealing one block each, so the chain
        height grows per *phase*, not per task.  Each deployment still
        executes (and reverts) independently.

        Name collisions are validated up front so the batch is atomic
        with respect to them: a duplicate name raises before *any*
        deployment executes, rather than leaving earlier ones applied
        but never sealed into a block.
        """
        names = [contract.name for contract, _, _, _ in deployments]
        if len(set(names)) != len(names):
            raise ChainError("duplicate contract name within the batch")
        for name in names:
            if name in self._contracts:
                raise ChainError("contract name already taken: %s" % name)
        receipts = [
            self._execute_deployment(contract, deployer, args, payload, 0)
            for contract, deployer, args, payload in deployments
        ]
        block = self._seal_block(
            [receipt.transaction for receipt in receipts], receipts
        )
        self._notify_store(block)
        return receipts

    def contract(self, name: str) -> Contract:
        try:
            return self._contracts[name]
        except KeyError:
            raise ChainError("no contract named %s" % name) from None

    # -- transaction submission -------------------------------------------------------

    def send(
        self,
        sender: Address,
        contract: str,
        method: str,
        args: Tuple[Any, ...] = (),
        payload: bytes = b"",
        value: int = 0,
    ) -> Transaction:
        """Build a transaction and place it in the mempool."""
        if contract not in self._contracts:
            raise ChainError("no contract named %s" % contract)
        transaction = Transaction(
            sender=sender,
            contract=contract,
            method=method,
            payload=payload,
            args=args,
            value=value,
        )
        self.mempool.submit(transaction)
        return transaction

    # -- block production -----------------------------------------------------------

    def mine_block(self) -> Block:
        """Advance one clock period: deliver and execute pending messages.

        An empty mempool still seals an (empty) block and advances the
        clock — time passes without traffic, which is what lets deadline
        logic (reveal windows, timeout refunds) run against a quiet
        chain.
        """
        started = _span_clock()
        with trace_span("chain.mine_block", height=len(self.blocks)) as span:
            ordered = self.mempool.drain(self.scheduler)
            receipts = [self._execute(transaction) for transaction in ordered]
            block = self._seal_block(ordered, receipts)
            self.clock.advance()
            self._notify_store(block)
            span.set(txs=len(ordered))
        _BLOCKS_MINED.inc()
        _CHAIN_HEIGHT.set(len(self.blocks))
        _MEMPOOL_DEPTH.set(len(self.mempool))
        for receipt in receipts:
            _TXS_EXECUTED.inc(status="ok" if receipt.status else "reverted")
            _GAS_USED.inc(receipt.gas_used)
            if receipt.status:
                _EVENTS_EMITTED.inc(len(receipt.events))
        _MINE_SECONDS.observe(_span_clock() - started)
        return block

    def mine_until_idle(self, max_blocks: int = 64) -> List[Block]:
        """Mine blocks until the mempool is empty (bounded)."""
        mined: List[Block] = []
        for _ in range(max_blocks):
            if not len(self.mempool):
                break
            mined.append(self.mine_block())
        return mined

    def _execute(self, transaction: Transaction) -> Receipt:
        contract = self._contracts.get(transaction.contract)
        if contract is None:
            return Receipt(
                transaction, False, TX_BASE, {}, (), "unknown contract"
            )

        meter = GasMeter(gas_limit=transaction.gas_limit)
        ctx = CallContext(
            sender=transaction.sender,
            args=transaction.args,
            payload=transaction.payload,
            value=transaction.value,
            meter=meter,
            period=self.clock.period,
            ledger=self.ledger,
        )

        # A deep snapshot: ``dict(contract.storage)`` shares the nested
        # mutable values, so a handler that appended to a stored list
        # (or wrote into a stored dict) in place and *then* raised
        # would keep the mutation through "revert".
        storage_state = snapshot_storage(contract.storage)
        ledger_state = self.ledger.snapshot()
        try:
            # Inside the ``try``: a payload whose calldata alone exceeds
            # the gas limit gets a failed receipt, not a raise out of
            # ``mine_block`` with the rest of the block lost.
            meter.charge_intrinsic(transaction.payload)
            contract.dispatch(transaction.method, ctx)
            status, reason = True, ""
        except (ContractError, OutOfGas) as exc:
            contract.storage = storage_state
            self.ledger.restore(ledger_state)
            ctx.events = []
            status, reason = False, str(exc)
        except Exception as exc:  # EVM semantics: any fault reverts
            contract.storage = storage_state
            self.ledger.restore(ledger_state)
            ctx.events = []
            status = False
            reason = "invalid call: %s: %s" % (type(exc).__name__, exc)

        receipt = Receipt(
            transaction,
            status,
            meter.used,
            dict(meter.breakdown),
            tuple(ctx.events),
            reason,
            block_number=len(self.blocks),
        )
        self._record_gas(transaction.sender, meter.used)
        if status:
            self._log_events(ctx.events)
        return receipt

    def _seal_block(
        self, transactions: Sequence[Transaction], receipts: Sequence[Receipt]
    ) -> Block:
        parent = self.blocks[-1].block_hash() if self.blocks else GENESIS_HASH
        block = Block(
            number=len(self.blocks),
            parent_hash=parent,
            transactions=tuple(transactions),
            receipts=tuple(receipts),
        )
        self.blocks.append(block)
        return block

    def _record_gas(self, sender: Address, gas: int) -> None:
        self.gas_by_sender[sender] = self.gas_by_sender.get(sender, 0) + gas

    def _log_events(self, events: Sequence[Event]) -> None:
        """Append this call's events to the log, tagged with the block
        currently being built (``len(self.blocks)``: sealing follows)."""
        for event in events:
            self.event_log.append(len(self.blocks), event)

    # -- observation ---------------------------------------------------------------

    def subscribe(
        self, filter: Optional[EventFilter] = None, from_start: bool = False
    ) -> Subscription:
        """Open a cursor-based subscription on the chain's event log.

        Clients *observe* receipts and events through this instead of
        being handed them by a driver; each :meth:`Subscription.poll`
        returns only the not-yet-seen matching events.
        """
        return self.event_log.subscribe(filter, from_start=from_start)

    def events_in_block(self, block_number: int) -> List[Event]:
        """The events emitted while block ``block_number`` was built."""
        return [
            record.event for record in self.event_log.in_block(block_number)
        ]

    def events_named(self, name: str, contract: Optional[str] = None) -> List[Event]:
        """All successfully emitted events with the given name."""
        address = self._contracts[contract].address if contract else None
        return [
            record.event
            for record in self.event_log
            if record.event.name == name
            and (address is None or record.event.contract == address)
        ]

    @property
    def total_gas(self) -> int:
        return sum(self.gas_by_sender.values())

    @property
    def height(self) -> int:
        return len(self.blocks)
