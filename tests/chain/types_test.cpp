#include "chain/types.hpp"

#include <gtest/gtest.h>

namespace hammer::chain {
namespace {

Transaction make_tx(const std::string& sender = "alice") {
  Transaction tx;
  tx.contract = "smallbank";
  tx.op = "deposit_checking";
  tx.args = json::object({{"customer", sender}, {"amount", 10}});
  tx.sender = sender;
  tx.client_id = "c0";
  tx.server_id = "s0";
  tx.nonce = 7;
  tx.sign_with(crypto::derive_keypair(sender));
  return tx;
}

TEST(TransactionTest, IdIsDeterministic) {
  EXPECT_EQ(make_tx().compute_id(), make_tx().compute_id());
  EXPECT_EQ(make_tx().compute_id().size(), 64u);
}

TEST(TransactionTest, IdChangesWithContent) {
  Transaction a = make_tx();
  Transaction b = make_tx();
  b.nonce = 8;
  EXPECT_NE(a.compute_id(), b.compute_id());
}

TEST(TransactionTest, SignWithReturnsTheComputedId) {
  Transaction tx = make_tx();
  const std::string id = tx.sign_with(crypto::derive_keypair("alice"));
  EXPECT_EQ(id, tx.compute_id());
  EXPECT_EQ(id, Transaction::payload_id(tx.signing_payload()));
  EXPECT_TRUE(tx.verify_signature());
}

TEST(TransactionTest, SignatureVerifies) {
  Transaction tx = make_tx();
  EXPECT_TRUE(tx.verify_signature());
  tx.nonce = 99;  // payload changed after signing
  EXPECT_FALSE(tx.verify_signature());
}

TEST(TransactionTest, JsonRoundTripPreservesIdentityAndSignature) {
  Transaction tx = make_tx();
  Transaction back = Transaction::from_json(tx.to_json());
  EXPECT_EQ(back.compute_id(), tx.compute_id());
  EXPECT_TRUE(back.verify_signature());
  EXPECT_EQ(back.client_id, "c0");
  EXPECT_EQ(back.args.at("amount").as_int(), 10);
}

TEST(ReceiptTest, JsonRoundTrip) {
  TxReceipt r{"abc", TxStatus::kConflict, "MVCC on sb:c:x"};
  TxReceipt back = TxReceipt::from_json(r.to_json());
  EXPECT_EQ(back.tx_id, "abc");
  EXPECT_EQ(back.status, TxStatus::kConflict);
  EXPECT_EQ(back.detail, "MVCC on sb:c:x");
}

TEST(ReceiptTest, StatusNames) {
  EXPECT_STREQ(tx_status_name(TxStatus::kCommitted), "committed");
  EXPECT_STREQ(tx_status_name(TxStatus::kConflict), "conflict");
  EXPECT_STREQ(tx_status_name(TxStatus::kInvalid), "invalid");
}

TEST(BlockTest, MerkleRootTracksReceiptSet) {
  std::vector<TxReceipt> a = {{"t1", TxStatus::kCommitted, ""}, {"t2", TxStatus::kCommitted, ""}};
  std::vector<TxReceipt> b = {{"t1", TxStatus::kCommitted, ""}, {"t3", TxStatus::kCommitted, ""}};
  EXPECT_NE(Block::compute_merkle_root(a), Block::compute_merkle_root(b));
  EXPECT_EQ(Block::compute_merkle_root(a), Block::compute_merkle_root(a));
}

TEST(BlockTest, HeaderHashCoversNonce) {
  BlockHeader h;
  h.height = 1;
  h.merkle_root = "aa";
  std::string hash1 = h.hash();
  h.nonce = 1;
  EXPECT_NE(h.hash(), hash1);
}

TEST(BlockTest, JsonRoundTrip) {
  Block b;
  b.header.height = 5;
  b.header.shard = 1;
  b.header.parent_hash = "p";
  b.header.merkle_root = "m";
  b.header.timestamp_us = 123456;
  b.header.producer = "node-1";
  b.receipts.push_back({"t1", TxStatus::kCommitted, ""});
  b.receipts.push_back({"t2", TxStatus::kInvalid, "bad"});
  Block back = Block::from_json(b.to_json());
  EXPECT_EQ(back.header.height, 5u);
  EXPECT_EQ(back.header.shard, 1u);
  EXPECT_EQ(back.header.timestamp_us, 123456);
  ASSERT_EQ(back.receipts.size(), 2u);
  EXPECT_EQ(back.receipts[1].status, TxStatus::kInvalid);
}

}  // namespace
}  // namespace hammer::chain
