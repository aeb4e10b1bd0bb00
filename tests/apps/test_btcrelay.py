"""Tests for the Bitcoin simulator, BtcRelay feed and the pegged-token case study."""

from __future__ import annotations

import pytest

from repro.apps.btc.bitcoin import BitcoinBlock, BitcoinSimulator, SATOSHI_PER_BTC
from repro.apps.btc.btcrelay import block_key
from repro.apps.btc.pegged_token import build_pegged_token_deployment
from repro.common.errors import ReproError
from repro.core.config import GrubConfig
from repro.core.grub import GrubSystem


@pytest.fixture
def bitcoin():
    return BitcoinSimulator(block_interval_seconds=600)


class TestBitcoinSimulator:
    def test_genesis_exists(self, bitcoin):
        assert bitcoin.tip.height == 0

    def test_mining_links_headers(self, bitcoin):
        bitcoin.mine_block()
        bitcoin.mine_block()
        assert bitcoin.verify_header_chain()
        assert bitcoin.tip.height == 2

    def test_deposit_transaction_included_and_confirmed(self, bitcoin):
        tx = bitcoin.deposit(amount_btc=0.5, ethereum_recipient="alice")
        block = bitcoin.mine_block()
        assert tx in block.transactions
        assert bitcoin.confirmation_depth(tx.txid) == 0
        bitcoin.mine_block()
        assert bitcoin.confirmation_depth(tx.txid) == 1

    def test_spv_proof_verifies_against_header_merkle_root(self, bitcoin):
        tx = bitcoin.deposit(amount_btc=1.0, ethereum_recipient="alice")
        bitcoin.deposit(amount_btc=2.0, ethereum_recipient="bob")
        block = bitcoin.mine_block()
        proof = bitcoin.spv_proof(tx.txid)
        assert proof.verify(block.merkle_root)
        assert not proof.verify(b"\x00" * 32)

    def test_spv_proof_for_unconfirmed_transaction_rejected(self, bitcoin):
        tx = bitcoin.deposit(amount_btc=1.0, ethereum_recipient="alice")
        with pytest.raises(ReproError):
            bitcoin.spv_proof(tx.txid)

    def test_header_bytes_round_trip(self, bitcoin):
        bitcoin.mine_block()
        block = bitcoin.tip
        header = block.header_bytes()
        assert len(header) == 80
        parsed = BitcoinBlock.parse_header(header)
        assert parsed["height"] == block.height

    def test_block_at_out_of_range(self, bitcoin):
        with pytest.raises(ReproError):
            bitcoin.block_at(99)

    def test_amounts_in_satoshi(self, bitcoin):
        tx = bitcoin.deposit(amount_btc=0.25, ethereum_recipient="alice")
        assert tx.amount_satoshi == SATOSHI_PER_BTC // 4


@pytest.fixture
def pegged():
    config = GrubConfig(epoch_size=4, algorithm="memoryless", k=1)
    system = GrubSystem(config)
    deployment = build_pegged_token_deployment(system, confirmations=3)
    return deployment


def relay_and_flush(deployment):
    """Relay all new Bitcoin blocks into the feed and land the epoch update."""
    deployment.relay.relay_new_blocks()
    deployment.system.data_owner.end_epoch()
    deployment.system.chain.mine_block()


def settle_feed(deployment):
    deployment.system.service_provider.service_epoch()
    deployment.system.chain.mine_block()


class TestBtcRelayFeed:
    def test_relay_publishes_headers_into_store(self, pegged):
        for _ in range(3):
            pegged.bitcoin.mine_block()
        relay_and_flush(pegged)
        record = pegged.system.sp_store.get_record(block_key(2))
        assert record is not None
        assert record.value == pegged.bitcoin.block_at(2).header_bytes()
        assert pegged.relay.latest_relayed_height() == 3

    def test_relay_is_incremental(self, pegged):
        pegged.bitcoin.mine_block()
        assert pegged.relay.relay_new_blocks() == 1
        assert pegged.relay.relay_new_blocks() == 0
        pegged.bitcoin.mine_block()
        assert pegged.relay.relay_new_blocks() == 1


class TestPeggedToken:
    def _confirmed_deposit(self, pegged, amount=1.0, other_deposits=0):
        tx = pegged.bitcoin.deposit(amount_btc=amount, ethereum_recipient="alice")
        for other in range(other_deposits):
            pegged.bitcoin.deposit(amount_btc=1.0 + other, ethereum_recipient=f"other-{other}")
        deposit_block = pegged.bitcoin.mine_block()
        # Mine enough confirmations for the verification window.
        for _ in range(pegged.pegged.confirmations):
            pegged.bitcoin.mine_block()
        relay_and_flush(pegged)
        return tx, deposit_block

    def test_mint_after_verified_deposit(self, pegged):
        tx, deposit_block = self._confirmed_deposit(pegged, amount=0.5)
        proof = pegged.bitcoin.spv_proof(tx.txid)
        pegged.system.chain.execute_internal_call(
            "alice",
            "pegged-btc-gateway",
            "request_mint",
            recipient="alice",
            amount_satoshi=tx.amount_satoshi,
            proof=proof,
            block_height=deposit_block.height,
            layer="application",
        )
        settle_feed(pegged)
        assert pegged.pegged.mints == 1
        assert pegged.token.peek_balance("alice") == tx.amount_satoshi

    def test_mint_verification_gas_is_pinned(self, pegged):
        # The SPV walk is metered as one amount (3 pair hashes here) where it
        # used to be charged hash by hash; the figures are the earlier ones.
        tx, deposit_block = self._confirmed_deposit(pegged, amount=0.5, other_deposits=4)
        proof = pegged.bitcoin.spv_proof(tx.txid)
        assert proof.proof.num_nodes == 3
        chain = pegged.system.chain
        chain.execute_internal_call(
            "alice", "pegged-btc-gateway", "request_mint", recipient="alice",
            amount_satoshi=tx.amount_satoshi, proof=proof, block_height=deposit_block.height,
            layer="application",
        )
        hash_before = chain.ledger.by_category["hash"]
        pegged.system.service_provider.service_epoch()
        (receipt,) = chain.mine_block().receipts
        assert receipt.success and pegged.pegged.mints == 1
        # Three delivered headers (a leaf hash of 60 each, and the 3 pair hashes
        # of their one multiproof over a 4-leaf tree, where three paths took 6)
        # + the SPV walk, which is a single path and did not move.
        assert chain.ledger.by_category["hash"] - hash_before == 432 == 3 * 60 + 3 * 42 + 3 * 42
        # 85 369 with a path per header: 126 less hashing, 5 fewer calldata words.
        assert receipt.gas_used == 74_363 == 85_369 - 126 - 5 * 2_176

    def test_mint_with_forged_proof_rejected(self, pegged):
        tx, deposit_block = self._confirmed_deposit(pegged)
        other = pegged.bitcoin.deposit(amount_btc=9.0, ethereum_recipient="mallory")
        pegged.bitcoin.mine_block()
        for _ in range(pegged.pegged.confirmations):
            pegged.bitcoin.mine_block()
        relay_and_flush(pegged)
        forged_proof = pegged.bitcoin.spv_proof(other.txid)
        pegged.system.chain.execute_internal_call(
            "mallory",
            "pegged-btc-gateway",
            "request_mint",
            recipient="mallory",
            amount_satoshi=other.amount_satoshi,
            proof=forged_proof,
            block_height=deposit_block.height,  # wrong block for this proof
            layer="application",
        )
        settle_feed(pegged)
        assert pegged.pegged.mints == 0
        assert pegged.pegged.rejected == 1
        assert pegged.token.peek_balance("mallory") == 0

    def test_burn_after_verified_redeem(self, pegged):
        tx, deposit_block = self._confirmed_deposit(pegged, amount=1.0)
        proof = pegged.bitcoin.spv_proof(tx.txid)
        pegged.system.chain.execute_internal_call(
            "alice", "pegged-btc-gateway", "request_mint", recipient="alice",
            amount_satoshi=tx.amount_satoshi, proof=proof, block_height=deposit_block.height,
            layer="application",
        )
        settle_feed(pegged)
        redeem = pegged.bitcoin.redeem(amount_btc=1.0, bitcoin_recipient="alice-btc")
        redeem_block = pegged.bitcoin.mine_block()
        for _ in range(pegged.pegged.confirmations):
            pegged.bitcoin.mine_block()
        relay_and_flush(pegged)
        pegged.system.chain.execute_internal_call(
            "alice", "pegged-btc-gateway", "request_burn", holder="alice",
            amount_satoshi=redeem.amount_satoshi, proof=pegged.bitcoin.spv_proof(redeem.txid),
            block_height=redeem_block.height, layer="application",
        )
        settle_feed(pegged)
        assert pegged.pegged.burns == 1
        assert pegged.token.peek_balance("alice") == 0

    def test_verification_reads_feed_headers(self, pegged):
        tx, deposit_block = self._confirmed_deposit(pegged)
        calls_before = len(pegged.system.storage_manager.call_history)
        pegged.system.chain.execute_internal_call(
            "alice", "pegged-btc-gateway", "request_mint", recipient="alice",
            amount_satoshi=tx.amount_satoshi, proof=pegged.bitcoin.spv_proof(tx.txid),
            block_height=deposit_block.height, layer="application",
        )
        calls_after = len(pegged.system.storage_manager.call_history)
        assert calls_after - calls_before == pegged.pegged.confirmations
