"""The blockchain simulator: transaction pool, block production, finality.

The chain executes transactions against deployed contracts, charging intrinsic
gas (base + calldata) and execution gas through the contract's own metered
operations.  Failed calls revert the target contract's storage, as the EVM
would, but still consume the gas charged up to the failure point.

Timing parameters follow the paper's consistency model (Section 3.4 /
Appendix E): block interval ``B``, propagation delay ``Pt`` and finality depth
``F``.  A transaction submitted at time ``t`` is included in the next produced
block and is *finalized* once ``F`` further blocks exist, i.e. at roughly
``t + Pt + B * F``; the helpers expose these timestamps so the consistency
theorems can be checked in tests.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.chain.block import Block
from repro.chain.contract import Contract
from repro.chain.events import EventLog, LogEvent
from repro.chain.gas import (
    GasLedger,
    GasSchedule,
    LAYER_FEED,
    split_transaction_cost,
)
from repro.chain.transaction import Transaction, TransactionReceipt, next_txid
from repro.chain.vm import ExecutionContext, GasMeter
from repro.common.clock import SimulatedClock
from repro.common.errors import ContractError, OutOfGasError, ReproError
from repro.common.hashing import EMPTY_DIGEST


@dataclass(frozen=True)
class ChainParameters:
    """Timing and capacity parameters of the simulated chain.

    Defaults follow the paper: Ethereum block time 10–19 s (we use 14 s),
    finality after 250 blocks, and a 10M block gas limit.  The propagation
    delay ``Pt`` models how long a submitted transaction takes to reach all
    nodes.
    """

    block_interval: float = 14.0
    propagation_delay: float = 1.0
    finality_depth: int = 250
    block_gas_limit: int = 10_000_000
    default_gas_limit: Optional[int] = None


class _CallFrame:
    """A reusable internal-call envelope: one meter + context per attribution.

    ``execute_internal_call`` used to allocate a fresh :class:`GasMeter` and
    :class:`ExecutionContext` per call — the hottest allocation site of every
    benchmark (one per driven read).  A frame is cached per ``(layer, scope)``
    attribution and reused; ``busy`` guards against reentrant internal calls
    (a callback that issues another internal call under the same attribution
    falls back to a fresh allocation).  Meter ``used`` accumulates across
    reuses, which is harmless: internal calls carry no gas limit and their
    metered total is never read back — only the ledger attribution matters.
    """

    __slots__ = ("meter", "ctx", "busy")

    def __init__(self, meter: "GasMeter", ctx: "ExecutionContext") -> None:
        self.meter = meter
        self.ctx = ctx
        self.busy = False


@dataclass
class ExecutionBuffer:
    """Deferred side effects of internal calls executed in isolation.

    The parallel epoch engine drives independent shards concurrently, but the
    chain's gas ledger and event log are shared, globally ordered structures.
    A worker therefore executes its shard's internal calls inside
    :meth:`Blockchain.isolated_execution`, which routes every gas charge into
    this buffer's private ledger and every emitted event into its private
    list; the scheduler then merges the buffers back serially, in fixed shard
    order, via :meth:`Blockchain.absorb`.  Because gas accumulation is
    commutative and events keep their per-shard order, a run merged this way
    is bit-identical to a serial run of the same shard plan.

    A buffer holds nothing but its ledger and its events, so it crosses a
    process boundary as itself: a lane pickles it into its epoch frame, and
    the main chain absorbs it there like any other buffer.  The events'
    stamps are whatever the lane's chain gave them; :meth:`Blockchain.absorb`
    restamps every event at the absorbing chain's height, so a lane never
    needs to know the main chain's height.
    """

    ledger: GasLedger = field(default_factory=GasLedger)
    events: List[LogEvent] = field(default_factory=list)


class Blockchain:
    """A single logical view of the blockchain shared by all simulated nodes.

    The paper assumes the blockchain itself is trusted (immutable,
    fork-consistent, Sybil-secure); the simulator therefore keeps one
    canonical history rather than modelling adversarial forks, but it does
    model the *latency* of inclusion and finality because the consistency
    guarantees depend on them.
    """

    def __init__(
        self,
        schedule: Optional[GasSchedule] = None,
        parameters: Optional[ChainParameters] = None,
        clock: Optional[SimulatedClock] = None,
    ) -> None:
        self.schedule = schedule or GasSchedule()
        self.parameters = parameters or ChainParameters()
        self.clock = clock or SimulatedClock()
        self.ledger = GasLedger()
        self.event_log = EventLog()
        self.contracts: Dict[str, Contract] = {}
        self.blocks: List[Block] = []
        self.pending: List[Transaction] = []
        self.receipts: Dict[int, TransactionReceipt] = {}
        #: The open :meth:`isolated_execution` buffer, if any.  Plain
        #: attributes: exactly one thread ever drives a chain (the caller's,
        #: a lane worker's main thread, or the front door's scheduler thread).
        self._isolation_buffer: Optional[ExecutionBuffer] = None
        #: Reusable internal-call frames per (layer, scope) attribution; their
        #: meters charge the ledger that was current when they were made, so
        #: each :meth:`isolated_execution` starts a fresh set.
        self._call_frames: Dict[tuple, _CallFrame] = {}
        #: Optional :class:`repro.obs.Observability` hook (set by the hosting
        #: runtime).  Strictly observation-only: mine paths read the wall
        #: clock and bump counters through it, and nothing it records ever
        #: feeds back into execution, gas or state — which is why it is
        #: excluded from every fingerprint.
        self.obs = None
        self._genesis()

    # -- isolated execution (parallel epoch engine) ---------------------------

    @contextmanager
    def isolated_execution(self) -> Iterator[ExecutionBuffer]:
        """Buffer internal-call side effects for a later merge.

        While the context is active, :meth:`execute_internal_call` charges
        gas to the buffer's private ledger and collects emitted events in the
        buffer instead of the global event log.  The chain's
        height, clock and contract storage are untouched by the buffering —
        only the two globally *ordered* structures are deferred — so per-feed
        contract state advances exactly as it would serially.  The caller must
        pass the buffer to :meth:`absorb` (in a deterministic order) before
        anything reads the ledger or polls the event log.
        """
        if self._isolation_buffer is not None:
            raise ReproError("isolated_execution contexts cannot be nested")
        buffer = self._isolation_buffer = ExecutionBuffer()
        outer_frames, self._call_frames = self._call_frames, {}
        try:
            yield buffer
        finally:
            self._isolation_buffer = None
            self._call_frames = outer_frames

    def absorb(self, buffer: ExecutionBuffer) -> None:
        """Merge an isolation buffer's charges and events into the chain,
        every event stamped at the current height.

        Nothing mines while a drive phase runs, so that height is the one the
        buffer's calls executed at; a buffer shipped from a lane gets the
        main chain's height, whatever its own chain stamped.  The buffer
        itself is left as it was (the log takes stamped copies), so a lane
        worker can still ship it after its local merge.
        """
        self.ledger.merge(buffer.ledger)
        height = self.height
        for event in buffer.events:
            self.event_log.append_event(event, height, 0)

    # -- deployment and lookup ----------------------------------------------

    def deploy(self, contract: Contract) -> Contract:
        """Register a contract at its address (idempotent per address)."""
        if contract.address in self.contracts:
            raise ReproError(f"address {contract.address} already in use")
        self.contracts[contract.address] = contract
        contract.on_deploy(self)
        return contract

    def undeploy(self, address: str) -> Contract:
        """Remove a contract from the chain (EVM ``selfdestruct`` analogue).

        History (blocks, receipts, events) is untouched; the address simply
        becomes free again — the gateway uses this when a hosted feed leaves,
        so a later tenant can reuse the feed id.
        """
        contract = self.get_contract(address)
        del self.contracts[address]
        return contract

    def get_contract(self, address: str) -> Contract:
        try:
            return self.contracts[address]
        except KeyError as exc:
            raise ReproError(f"no contract deployed at {address}") from exc

    # -- transaction lifecycle ------------------------------------------------

    def submit(self, transaction: Transaction) -> Transaction:
        """Queue a transaction for inclusion in the next block."""
        transaction.submitted_at = self.clock.now
        self.pending.append(transaction)
        return transaction

    def mine_block(self) -> Block:
        """Produce one block containing every pending transaction.

        The simulator's experiments control batching explicitly (the DO's
        epoch batcher and the SP's deliver batching), so a block simply takes
        the entire pending pool; the block gas limit is checked to surface
        configuration errors rather than to split blocks.
        """
        transactions, self.pending = self.pending, []
        # Lazy: each transaction executes once the block is open, at its
        # number and timestamp.
        return self._produce_block(map(self._execute, transactions))

    def mine_recorded_block(self, receipt: TransactionReceipt) -> Block:
        """Mine one block around a receipt executed on another chain.

        The process execution backend runs each shard's settlement transaction
        on the chain of the lane that owns the shard's contracts and ships the
        lane's own receipt; this chain records it — clock advance, block,
        receipt, event-log stamps, block-gas-limit accounting — through the
        same block production :meth:`mine_block` executes with, so the
        recorded receipt reads like a locally executed one.  Block number,
        index, ``submitted_at``, ``finalized_at`` and event stamps are this
        chain's; ``gas_used``, ``success``, ``error`` and ``return_value`` are
        the lane's.  Gas *charges* are not applied here: the lane ships its
        ledger delta beside the receipt, and the caller merges it.

        The receipt's transaction takes a fresh id from this process: lanes
        are forked copies of the id counter, so two lanes hand out the same
        ids.  Its ``args`` are whatever the lane left on it (the process
        backend empties them — the group payloads, with their multiproofs,
        stay in the lane that executed them).

        The pending pool must be empty: mixing locally queued transactions
        into a recorded block would execute them against state the lane
        already advanced past.
        """
        if self.pending:
            raise ReproError(
                "mine_recorded_block with locally pending transactions; "
                "recorded settlement cannot be mixed with local execution"
            )
        transaction = receipt.transaction
        transaction.submitted_at = self.clock.now
        transaction.txid = next_txid()
        return self._produce_block((receipt,))

    def _produce_block(self, receipts: Iterable[TransactionReceipt]) -> Block:
        """Open the next block, take ``receipts`` into it in order, and seal it.

        ``receipts`` is consumed once the clock has advanced and the block is
        open.  Each receipt is stamped here with its block position and
        finality time, and its events are appended to the log with those
        stamps (the receipt keeps the log's entries).
        """
        obs = self.obs
        started = obs.tracer.clock() if obs is not None else 0.0
        self.clock.advance(self.parameters.block_interval)
        parent_hash = self.blocks[-1].block_hash if self.blocks else EMPTY_DIGEST
        block = Block(
            number=len(self.blocks),
            timestamp=self.clock.now,
            parent_hash=parent_hash,
        )
        finalized_at = block.timestamp + self.finality_delay()
        append_event = self.event_log.append_event
        for index, receipt in enumerate(receipts):
            receipt.block_number = block.number
            receipt.transaction_index = index
            receipt.finalized_at = finalized_at
            receipt.events = [
                append_event(event, block.number, index) for event in receipt.events
            ]
            block.receipts.append(receipt)
            self.receipts[receipt.txid] = receipt
        if block.gas_used > self.parameters.block_gas_limit:
            # Not fatal for experiments, but worth surfacing: the paper notes
            # throughput is bounded by the block gas limit.
            block_overflow = block.gas_used - self.parameters.block_gas_limit
            self.ledger.by_category["block_gas_limit_overflow"] += block_overflow
        self.blocks.append(block)
        if obs is not None:
            obs.counter("chain_blocks_total").inc()
            obs.counter("chain_transactions_total").inc(len(block.receipts))
            obs.histogram("chain_mine_seconds").observe(obs.tracer.clock() - started)
        return block

    def mine_until_finalized(self, block_number: int) -> None:
        """Produce empty blocks until ``block_number`` is final."""
        while self.height < block_number + self.parameters.finality_depth:
            self.mine_block()

    def execute_call(
        self,
        sender: str,
        contract_address: str,
        function: str,
        *,
        layer: str = LAYER_FEED,
        gas_limit: Optional[int] = None,
        **kwargs: Any,
    ) -> Any:
        """Execute a read-only (eth_call style) contract invocation.

        Used by off-chain components to inspect contract state; it charges no
        gas to the global ledger because it runs locally on a full node.
        """
        contract = self.get_contract(contract_address)
        scratch_ledger = GasLedger()
        meter = GasMeter(schedule=self.schedule, ledger=scratch_ledger, limit=gas_limit, layer=layer)
        ctx = ExecutionContext(
            sender=sender,
            meter=meter,
            block_number=self.height,
            timestamp=self.clock.now,
        )
        method = getattr(contract, function)
        return method(ctx, **kwargs)

    def execute_internal_call(
        self,
        sender: str,
        contract_address: str,
        function: str,
        *,
        layer: str = LAYER_FEED,
        scope: Optional[str] = None,
        gas_limit: Optional[int] = None,
        **kwargs: Any,
    ) -> Any:
        """Execute a contract call as part of an already-paid-for transaction.

        This is how the experiment drivers model a DU read: the DU contract is
        being executed anyway inside an application transaction whose base
        cost is not attributable to the data feed, so the feed-layer gas of a
        read is the marginal gas of the ``gGet`` internal call.  The gas is
        charged to the chain's global ledger (billed to ``scope`` when given)
        and any emitted events are appended to the event log immediately (the
        enclosing transaction is committed within the current block).
        """
        contract = self.get_contract(contract_address)
        buffer = self._isolation_buffer
        frame: Optional[_CallFrame] = None
        if gas_limit is None:
            # Hot path: reuse the cached call envelope for this attribution.
            frames = self._call_frames
            frame = frames.get((layer, scope))
            if frame is None:
                meter = GasMeter(
                    schedule=self.schedule,
                    ledger=self.ledger if buffer is None else buffer.ledger,
                    layer=layer,
                    scope=scope,
                )
                ctx = ExecutionContext(sender=sender, meter=meter)
                frame = frames[(layer, scope)] = _CallFrame(meter, ctx)
            elif frame.busy:
                # Reentrant internal call under the same attribution: fall
                # back to a one-shot envelope rather than clobbering the
                # in-flight context.
                frame = None
        if frame is None:
            meter = GasMeter(
                schedule=self.schedule,
                ledger=self.ledger if buffer is None else buffer.ledger,
                limit=gas_limit,
                layer=layer,
                scope=scope,
            )
            ctx = ExecutionContext(
                sender=sender,
                meter=meter,
                block_number=self.height,
                timestamp=self.clock.now,
            )
            method = getattr(contract, function)
            result = method(ctx, **kwargs)
            emitted = ctx.emitted
        else:
            ctx = frame.ctx
            ctx.sender = sender
            ctx.block_number = self.height
            ctx.timestamp = self.clock.now
            frame.busy = True
            try:
                result = getattr(contract, function)(ctx, **kwargs)
            except BaseException:
                # A reverted call's events must never surface (a fresh
                # context used to drop them by going out of scope; the
                # reused frame has to drop them explicitly, or the next
                # call under this attribution would flush phantom events).
                ctx.emitted.clear()
                raise
            finally:
                frame.busy = False
            emitted = ctx.emitted
        if buffer is not None:
            if emitted:
                buffer.events.extend(emitted)
                emitted.clear()
            return result
        if emitted:
            height = self.height
            for event in emitted:
                self.event_log.append_event(event, height, 0)
            emitted.clear()
        return result

    # -- execution ------------------------------------------------------------

    def _execute(self, transaction: Transaction) -> TransactionReceipt:
        """Run ``transaction`` in the block being produced; the receipt's
        block position is stamped by :meth:`_produce_block`."""
        contract = self.get_contract(transaction.contract)
        meter = GasMeter(
            schedule=self.schedule,
            ledger=self.ledger,
            limit=transaction.gas_limit or self.parameters.default_gas_limit,
            layer=transaction.layer,
            scope=transaction.scope,
        )
        ctx = ExecutionContext(
            sender=transaction.sender,
            meter=meter,
            block_number=self.height,
            timestamp=self.clock.now,
            value=transaction.value,
        )
        # Journal writes on every deployed contract, not just the target: the
        # target may fan out internal calls (callbacks, the gateway router's
        # batched groups), and a revert must undo those writes too, as the
        # EVM would.  Journalling is O(writes) per transaction; contracts the
        # transaction never touches only pay an empty begin/commit.
        for deployed in self.contracts.values():
            deployed.storage.begin_tx()
        error: Optional[str] = None
        return_value: Any = None
        success = True
        try:
            if transaction.scopes:
                # A batched gateway transaction: bill each served tenant its
                # calldata words plus an even share of the transaction base.
                shares = split_transaction_cost(self.schedule, transaction.scopes)
                for scope_name in sorted(shares):
                    meter.charge(shares[scope_name], "transaction", scope=scope_name)
            else:
                meter.charge(
                    self.schedule.transaction_cost(transaction.calldata_words),
                    "transaction",
                )
            method = getattr(contract, transaction.function, None)
            if method is None:
                raise ContractError(
                    f"{transaction.contract} has no function {transaction.function!r}"
                )
            return_value = method(ctx, **transaction.args)
        except (ContractError, OutOfGasError) as exc:
            success = False
            error = str(exc)
            for deployed in self.contracts.values():
                deployed.storage.rollback_tx()
            ctx.emitted.clear()
        finally:
            for deployed in self.contracts.values():
                deployed.storage.commit_tx()
        return TransactionReceipt(
            transaction=transaction,
            success=success,
            gas_used=meter.used,
            block_number=self.height,
            transaction_index=-1,
            return_value=return_value,
            error=error,
            events=ctx.emitted,
        )

    # -- chain state -----------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.blocks)

    def is_finalized(self, block_number: int) -> bool:
        """True once ``finality_depth`` blocks exist above ``block_number``."""
        return self.height - 1 - block_number >= self.parameters.finality_depth

    def finality_delay(self) -> float:
        """Worst-case delay from submission to finality: ``Pt + B * F``."""
        return (
            self.parameters.propagation_delay
            + self.parameters.block_interval * self.parameters.finality_depth
        )

    def receipt_for(self, txid: int) -> Optional[TransactionReceipt]:
        return self.receipts.get(txid)

    def _genesis(self) -> None:
        genesis = Block(number=0, timestamp=self.clock.now, parent_hash=EMPTY_DIGEST)
        self.blocks.append(genesis)
