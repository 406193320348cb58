"""A light client: verify chain facts without trusting the node.

The marketplace only serves millions of participants if most of them do
*not* run a full node — and the paper's trust-minimization story
collapses the moment those participants have to believe whatever number
an RPC endpoint returns.  :class:`LightClient` closes that gap using
the two primitives a proof-serving node exposes:

* ``chain_header`` — the node's hash-chained commitment timeline
  (:class:`repro.store.trie.Header`): each link names its parent's
  hash, the latest sealed block, and the Merkle state root it commits
  to.
* ``get_proof`` — a :mod:`repro.store.trie` membership /
  non-membership proof for one state key, anchored to one of those
  headers.

The client's entire trust base is **one 32-byte header hash** — pinned
explicitly (out of band: a friend, a checkpoint file, a block explorer)
or adopted trust-on-first-use from the node's anchor.  From there:

1. :meth:`sync` extends the local verified header chain, recomputing
   every link's hash and refusing any break in the parent chain.
2. :meth:`prove` fetches a proof, requires its anchoring header to be a
   link of the *verified* chain (a bare root the node invented is
   rejected), and folds the proof back to that header's ``state_root``.

Everything else — balances, registration, task phases, settlement
receipts — is sugar over those two steps plus local decoding of the
canonical leaf encodings.  A lying node can refuse to answer; it cannot
make a false answer verify.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.hit_contract import effective_phase
from repro.ledger.accounts import Address
from repro.store import codec
from repro.store.trie import (
    HEADER_GENESIS,
    Header,
    ProofError,
    account_key,
    contract_key,
    entry_key,
    header_from_data,
    meta_key,
    registry_key,
    storage_key,
    verify_proof,
)

_ABSENT = object()


class LightClient:
    """Header-chain tracking + proof verification over one untrusted node.

    ``trust`` pins the expected hash of the node's anchor header
    (header 0).  Without it the client adopts the first anchor it sees
    — trust-on-first-use: a node can lie to a brand-new client, but it
    is committed from then on, and two clients comparing one hash
    detect the lie.
    """

    def __init__(self, chain, trust: Optional[bytes] = None) -> None:
        #: The untrusted node handle (an ``RpcChain`` — only its
        #: ``header``/``get_proof``/``payment_indexes`` methods are used,
        #: and nothing it returns is believed without verification).
        self.node = chain
        self._trust = trust
        #: The locally *verified* header chain (every hash recomputed,
        #: every parent link checked).
        self.headers: List[Header] = []
        self._hashes: List[bytes] = []

    # -- the header chain ---------------------------------------------------

    def _admit(self, header: Header) -> None:
        digest = header.header_hash()
        if not self.headers:
            if header.parent != HEADER_GENESIS:
                raise ProofError(
                    "anchor header's parent is not the genesis marker"
                )
            if self._trust is not None and digest != self._trust:
                raise ProofError(
                    "anchor header %s does not match the pinned trust "
                    "anchor %s" % (digest.hex(), self._trust.hex())
                )
            self._trust = digest  # trust-on-first-use adoption
        elif header.parent != self._hashes[-1]:
            raise ProofError(
                "header %d does not chain from the verified tip"
                % len(self.headers)
            )
        self.headers.append(header)
        self._hashes.append(digest)

    def sync(self) -> Header:
        """Extend the verified header chain to the node's tip.

        Fetches only the links this client has not verified yet; the
        earlier links are immutable (each later hash commits to them),
        so re-fetching would prove nothing new.  Returns the tip.
        """
        count = self.node.header()["count"]
        for index in range(len(self.headers), count):
            fetched = self.node.header(index)
            if fetched["index"] != index:
                raise ProofError(
                    "node returned header %s for index %d"
                    % (fetched["index"], index)
                )
            self._admit(header_from_data(fetched["header"]))
        if not self.headers:
            raise ProofError("node serves no headers")
        return self.headers[-1]

    # -- proofs -------------------------------------------------------------

    def prove(self, key: bytes) -> Tuple[bool, Optional[Any]]:
        """``(present, decoded_value)`` for one state key, verified.

        The node picks which header to anchor the proof to (its
        current tip), but the client only accepts an anchor that is a
        link of its own verified chain — byte-equal at the claimed
        index — so the proof folds to a root the client already
        believes, not one invented for this response.  The client
        syncs only for an anchor past its verified tip: a link it
        already holds is checked as it stands.
        """
        response = self.node.get_proof(key)
        index = response["header_index"]
        if not (isinstance(index, int) and index < len(self.headers)):
            self.sync()
        header = header_from_data(response["header"])
        if not isinstance(index, int) or not 0 <= index < len(self.headers):
            raise ProofError("proof anchors to unknown header %r" % (index,))
        if header != self.headers[index]:
            raise ProofError(
                "proof's header is not link %d of the verified chain" % index
            )
        present, encoded = verify_proof(header.state_root, key, response["proof"])
        if not present:
            return False, None
        return True, codec.decode(encoded)

    def _require(self, key: bytes, what: str) -> Any:
        present, value = self.prove(key)
        if not present:
            raise ProofError("%s is not in the verified state" % what)
        return value

    # -- verified facts -----------------------------------------------------

    def registered(self, address: Address) -> bool:
        """Whether ``address`` holds a registry grant (membership proof
        either way — absence is proven, not assumed)."""
        present, _ = self.prove(registry_key(address))
        return present

    def balance_of(self, address: Address) -> int:
        """``address``'s verified ledger balance."""
        label, balance = self._require(
            account_key(address), "account %s" % address
        )
        del label
        return balance

    def storage(
        self, contract_name: str, slot: str, default: Any = _ABSENT
    ) -> Any:
        """One verified contract-storage slot."""
        present, value = self.prove(storage_key(contract_name, slot))
        if not present:
            if default is _ABSENT:
                raise ProofError(
                    "slot %r of contract %r is not in the verified state"
                    % (slot, contract_name)
                )
            return default
        return value

    def period(self) -> int:
        """The chain clock's verified current period."""
        return self._require(meta_key("period"), "clock period")

    def task_phase(self, contract_name: str) -> int:
        """The verified *effective* protocol phase of one HIT task.

        The contract's own rule,
        :func:`~repro.core.hit_contract.effective_phase`, applied to its
        three inputs — the ``finalized`` flag, the ``reveal_deadline``,
        and the clock — all of which are provable state, so the
        derivation verifies end to end (1 = commit, 2 = reveal,
        3 = evaluate, 4 = done).
        """
        self._require(contract_key(contract_name), "contract %s" % contract_name)
        return effective_phase(
            self.storage(contract_name, "finalized", default=False),
            self.storage(contract_name, "reveal_deadline", default=None),
            self.period(),
        )

    def ledger_entry(self, index: int) -> Dict[str, Any]:
        """One verified journal entry (kind/source/destination/amount/memo)."""
        return self._require(entry_key(index), "ledger entry %d" % index)

    def verify_settlement(
        self, contract_name: str, worker: Address
    ) -> Dict[str, Any]:
        """A settled task's receipt for one worker, fully verified.

        Three independent proofs: the task is ``finalized``, the
        worker's adjudication verdict is recorded in contract storage,
        and a matching ``pay`` entry exists in the ledger journal.  The
        journal *positions* to try come from the node
        (``chain_payments`` index hints) — untrusted, but harmless:
        each candidate entry is individually proven, and the contract's
        paying address is derived locally from its name, so the node
        cannot substitute another task's payment.

        Returns ``{"verdict", "amount", "entry_index"}`` (a verified
        rejection has ``amount`` 0 and no entry — rejected workers are
        not paid, and the *absence* of a verdict is an error, not a
        rejection).
        """
        if not self.storage(contract_name, "finalized", default=False):
            raise ProofError("task %r is not finalized" % contract_name)
        verdict = self.storage(
            contract_name, "adjudicated:" + worker.hex(), default=None
        )
        if verdict is None:
            raise ProofError(
                "task %r has no adjudication for worker %s"
                % (contract_name, worker)
            )
        if verdict.startswith("rejected"):
            return {"verdict": verdict, "amount": 0, "entry_index": None}
        contract_address = Address.from_label("contract:" + contract_name)
        for index in self.node.payment_indexes(worker):
            if not isinstance(index, int) or index < 0:
                continue
            present, entry = self.prove(entry_key(index))
            if not present or not isinstance(entry, dict):
                continue
            if (
                entry.get("kind") == "pay"
                and entry.get("source") == contract_address
                and entry.get("destination") == worker
                and entry.get("memo") == verdict
            ):
                return {
                    "verdict": verdict,
                    "amount": entry["amount"],
                    "entry_index": index,
                }
        raise ProofError(
            "no provable pay entry from %r to %s matches verdict %r"
            % (contract_name, worker, verdict)
        )
