// Transaction identity at the SUT boundary, on every simulator: admission
// derives the id once from the fields the chain received, checks the
// signature against those same bytes, and every block producer stamps the
// receipt with that admission id.
#include <gtest/gtest.h>

#include <functional>

#include "chain/factory.hpp"
#include "chain_test_util.hpp"
#include "util/errors.hpp"

namespace hammer::chain {
namespace {

using testutil::signed_tx;
using testutil::wait_for_receipt;

std::shared_ptr<Blockchain> start_chain(const std::string& kind, bool verify_signatures) {
  json::Object config;
  config["kind"] = kind;
  config["name"] = kind + "-identity";
  config["block_interval_ms"] = kind == "ethereum" ? 40 : 10;
  config["verify_signatures"] = verify_signatures;
  if (kind == "ethereum") config["hash_rate"] = 2000000;
  if (kind == "meepo") config["num_shards"] = 2;
  auto chain = make_chain(json::Value(std::move(config)), util::SteadyClock::shared());
  genesis_smallbank_accounts(*chain, 4, 1000, 1000);
  chain->start();
  return chain;
}

Transaction deposit(const std::string& customer, std::int64_t amount, std::uint64_t nonce) {
  return signed_tx(customer, "smallbank", "deposit_checking",
                   json::object({{"customer", customer}, {"amount", amount}}), nonce);
}

// One change made after signing, per signed field class.
struct Tamper {
  const char* name;
  std::function<void(Transaction&)> apply;
};

std::vector<Tamper> tampers() {
  return {
      {"args", [](Transaction& tx) { tx.args["amount"] = 999; }},
      {"nonce", [](Transaction& tx) { tx.nonce += 1; }},
      {"server_id", [](Transaction& tx) { tx.server_id = "other-server"; }},
  };
}

class TxIdentityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TxIdentityTest, RejectsFieldsChangedAfterSigning) {
  auto chain = start_chain(GetParam(), /*verify_signatures=*/true);
  std::uint64_t nonce = 1;
  for (const Tamper& tamper : tampers()) {
    Transaction tx = deposit("acct0", 5, nonce++);
    tamper.apply(tx);
    EXPECT_THROW(chain->submit(tx), RejectedError) << "tampered " << tamper.name;
  }
  // The untouched transaction is still admitted.
  EXPECT_NO_THROW(chain->submit(deposit("acct0", 5, nonce)));
  chain->stop();
}

TEST_P(TxIdentityTest, UnverifiedReceiptIdIsTheIdOfTheReceivedFields) {
  auto chain = start_chain(GetParam(), /*verify_signatures=*/false);
  // Nonces far apart, so no tampered tx equals a later signed one.
  std::uint64_t nonce = 0;
  for (const Tamper& tamper : tampers()) {
    nonce += 100;
    Transaction tx = deposit("acct1", 5, nonce);
    const std::string signed_id = tx.compute_id();
    tamper.apply(tx);
    const std::string received_id = tx.compute_id();
    ASSERT_NE(received_id, signed_id);
    EXPECT_EQ(chain->submit(tx), received_id) << "tampered " << tamper.name;
    EXPECT_EQ(wait_for_receipt(*chain, received_id).tx_id, received_id);
    EXPECT_FALSE(chain->tx_receipt(signed_id).has_value()) << "tampered " << tamper.name;
  }
  chain->stop();
}

TEST_P(TxIdentityTest, ReceiptCarriesTheAdmissionId) {
  auto chain = start_chain(GetParam(), /*verify_signatures=*/true);
  Transaction tx = deposit("acct2", 7, 1);
  const std::string id = chain->submit(tx);
  EXPECT_EQ(id, tx.compute_id());
  EXPECT_EQ(wait_for_receipt(*chain, id).status, TxStatus::kCommitted);
  auto location = chain->tx_receipt(id);
  ASSERT_TRUE(location.has_value());
  EXPECT_EQ(location->status, TxStatus::kCommitted);
  EXPECT_GE(location->height, 1u);
  chain->stop();
}

INSTANTIATE_TEST_SUITE_P(AllSims, TxIdentityTest,
                         ::testing::Values("ethereum", "fabric", "meepo", "neuchain"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace hammer::chain
