#include "core/deployment.hpp"

#include <gtest/gtest.h>

#include "util/errors.hpp"

namespace hammer::core {
namespace {

TEST(DeploymentTest, DeploysMultipleChainsFromPlan) {
  json::Value plan = json::Value::parse(R"({
    "chains": [
      {"kind": "neuchain", "name": "neu-1", "block_interval_ms": 10,
       "smallbank_accounts_per_shard": 8},
      {"kind": "meepo", "name": "meepo-1", "num_shards": 2, "block_interval_ms": 10,
       "smallbank_accounts_per_shard": 4}
    ]
  })");
  Deployment deployment = Deployment::deploy(plan, util::SteadyClock::shared());
  EXPECT_EQ(deployment.names().size(), 2u);

  DeployedChain& neu = deployment.at("neu-1");
  EXPECT_EQ(neu.chain->kind(), "neuchain");
  EXPECT_EQ(neu.smallbank_accounts.size(), 8u);

  DeployedChain& meepo = deployment.at("meepo-1");
  EXPECT_EQ(meepo.chain->num_shards(), 2u);
  EXPECT_EQ(meepo.smallbank_accounts.size(), 8u);  // 4 per shard x 2
}

TEST(DeploymentTest, InProcAdaptersWork) {
  json::Value plan = json::Value::parse(R"({
    "chains": [{"kind": "fabric", "name": "fab", "block_interval_ms": 20,
                "smallbank_accounts_per_shard": 4}]
  })");
  Deployment deployment = Deployment::deploy(plan, util::SteadyClock::shared());
  auto cluster = deployment.at("fab").make_cluster(3, 3);
  const auto& adapters = cluster->target(0).worker_adapters();
  ASSERT_EQ(adapters.size(), 3u);
  for (const auto& adapter : adapters) {
    EXPECT_EQ(adapter->info().kind, "fabric");
  }
  // Genesis balances visible through the adapter.
  const std::string& acct = deployment.at("fab").smallbank_accounts[0];
  EXPECT_EQ(adapters[0]
                ->query(0, "smallbank", "query", json::object({{"customer", acct}}))
                .at("checking")
                .as_int(),
            1000000);
}

TEST(DeploymentTest, TcpTransportServes) {
  json::Value plan = json::Value::parse(R"({
    "chains": [{"kind": "neuchain", "name": "neu-tcp", "block_interval_ms": 10,
                "transport": "tcp", "smallbank_accounts_per_shard": 2}]
  })");
  Deployment deployment = Deployment::deploy(plan, util::SteadyClock::shared());
  adapters::ChainAdapter adapter(deployment.at("neu-tcp").connect());
  EXPECT_EQ(adapter.info().name, "neu-tcp");
}

TEST(DeploymentTest, CustomGenesisBalances) {
  json::Value plan = json::Value::parse(R"({
    "chains": [{"kind": "neuchain", "name": "neu", "block_interval_ms": 10,
                "smallbank_accounts_per_shard": 2,
                "initial_checking": 42, "initial_savings": 7}]
  })");
  Deployment deployment = Deployment::deploy(plan, util::SteadyClock::shared());
  auto adapter = std::make_shared<adapters::ChainAdapter>(deployment.at("neu").connect());
  const std::string& acct = deployment.at("neu").smallbank_accounts[0];
  json::Value balances =
      adapter->query(0, "smallbank", "query", json::object({{"customer", acct}}));
  EXPECT_EQ(balances.at("checking").as_int(), 42);
  EXPECT_EQ(balances.at("savings").as_int(), 7);
}

TEST(DeploymentTest, FaultsKeyInstallsASharedInjector) {
  json::Value plan = json::Value::parse(R"({
    "chains": [{"kind": "neuchain", "name": "shaky", "block_interval_ms": 10,
                "transport": "tcp", "smallbank_accounts_per_shard": 2,
                "faults": {"seed": 5, "submit_reject_p": 1.0}}]
  })");
  Deployment deployment = Deployment::deploy(plan, util::SteadyClock::shared());
  auto& sut = deployment.at("shaky");
  ASSERT_NE(sut.fault_injector, nullptr);
  EXPECT_DOUBLE_EQ(sut.fault_injector->plan().submit_reject_p, 1.0);

  // The injector really is wired into the SUT: every submit is rejected.
  auto adapter = std::make_shared<adapters::ChainAdapter>(sut.connect());
  chain::Transaction tx;
  tx.contract = "smallbank";
  tx.op = "deposit_checking";
  tx.args = json::object({{"customer", sut.smallbank_accounts[0]}, {"amount", 1}});
  tx.sender = sut.smallbank_accounts[0];
  tx.sign_with(crypto::derive_keypair(tx.sender));
  EXPECT_THROW(adapter->submit(tx), RejectedError);
  EXPECT_GT(sut.fault_injector->injected(fault::FaultKind::kSubmitReject), 0u);
}

TEST(DeploymentTest, BadFaultPlanThrows) {
  json::Value plan = json::Value::parse(R"({
    "chains": [{"kind": "neuchain", "name": "x", "block_interval_ms": 10,
                "faults": {"conn_reset_p": 2.0}}]
  })");
  EXPECT_THROW(Deployment::deploy(plan, util::SteadyClock::shared()), Error);
}

TEST(DeploymentTest, UnknownSpecKeyIsRejectedByName) {
  json::Value plan = json::Value::parse(R"({
    "chains": [{"kind": "neuchain", "name": "x", "block_intervl_ms": 10}]
  })");
  try {
    Deployment::deploy(plan, util::SteadyClock::shared());
    FAIL() << "expected ParseError for misspelled key";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("block_intervl_ms"), std::string::npos);
  }
}

TEST(DeploymentTest, EndpointsKeySpawnsTaggedRpcSurfaces) {
  json::Value plan = json::Value::parse(R"({
    "chains": [{"kind": "meepo", "name": "m", "num_shards": 4, "block_interval_ms": 10,
                "transport": "tcp", "endpoints": 2, "rpc_workers": 1,
                "smallbank_accounts_per_shard": 2}]
  })");
  Deployment deployment = Deployment::deploy(plan, util::SteadyClock::shared());
  auto& sut = deployment.at("m");
  EXPECT_EQ(sut.endpoint_count(), 2u);
  ASSERT_NE(sut.tcp_server, nullptr);
  ASSERT_EQ(sut.extra_endpoints.size(), 1u);
  ASSERT_NE(sut.extra_endpoints[0].tcp_server, nullptr);
  EXPECT_NE(sut.tcp_server->port(), sut.extra_endpoints[0].tcp_server->port());

  // Each surface reports its own endpoint tag and owned shard set.
  for (std::size_t i = 0; i < 2; ++i) {
    auto adapter = std::make_shared<adapters::ChainAdapter>(sut.connect({}, nullptr, i));
    json::Value info = adapter->endpoint_info();
    EXPECT_EQ(info.at("endpoint").as_int(), static_cast<std::int64_t>(i));
    EXPECT_EQ(info.at("endpoints").as_int(), 2);
    const json::Array& shards = info.at("shards").as_array();
    ASSERT_EQ(shards.size(), 2u);  // 4 shards over 2 endpoints
    for (const json::Value& s : shards) {
      EXPECT_EQ(static_cast<std::size_t>(s.as_int()) % 2, i);
    }
  }
}

TEST(DeploymentTest, MakeClusterBuildsOneTargetPerEndpoint) {
  json::Value plan = json::Value::parse(R"({
    "chains": [{"kind": "meepo", "name": "m", "num_shards": 4, "block_interval_ms": 10,
                "endpoints": 4, "smallbank_accounts_per_shard": 2}]
  })");
  Deployment deployment = Deployment::deploy(plan, util::SteadyClock::shared());
  auto cluster = deployment.at("m").make_cluster(2);
  ASSERT_EQ(cluster->size(), 4u);
  EXPECT_EQ(cluster->total_shards(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const SutTarget& target = cluster->target(i);
    EXPECT_EQ(target.index(), i);
    EXPECT_EQ(target.worker_count(), 2u);
    ASSERT_EQ(target.shards().size(), 1u);
    EXPECT_EQ(target.shards()[0], i);
    EXPECT_EQ(cluster->owner_of_shard(static_cast<std::uint32_t>(i)), i);
    EXPECT_EQ(target.poll_adapter()->target_index(), i);
  }
}

TEST(DeploymentTest, MakeClusterKeepsClientFaultsOffThePollChannel) {
  // The poller's send count follows timing; a fault draw on it would shift
  // the seeded worker-channel trace. Every send on a faulted channel draws
  // (and, at p = 1, injects) a client latency fault, so polling through the
  // cluster's poll adapter must leave the injector's count untouched.
  json::Value plan = json::Value::parse(R"({
    "chains": [{"kind": "neuchain", "name": "neu", "block_interval_ms": 10,
                "transport": "tcp", "smallbank_accounts_per_shard": 2}]
  })");
  Deployment deployment = Deployment::deploy(plan, util::SteadyClock::shared());
  fault::FaultPlan fault_plan;
  fault_plan.client_latency_p = 1.0;
  fault_plan.client_latency_us = 1;
  auto faults = std::make_shared<fault::FaultInjector>(fault_plan);
  auto cluster = deployment.at("neu").make_cluster(2, 2, {}, faults);
  SutTarget& target = cluster->target(0);

  const std::uint64_t before = faults->total_injected();
  for (int i = 0; i < 5; ++i) target.poll_adapter()->height(0);
  EXPECT_EQ(faults->total_injected(), before);
  target.worker_adapter(0).height(0);
  EXPECT_EQ(faults->total_injected(), before + 1);
}

TEST(DeploymentTest, UnknownNameThrows) {
  json::Value plan = json::Value::parse(
      R"({"chains": [{"kind": "neuchain", "name": "x", "block_interval_ms": 10}]})");
  Deployment deployment = Deployment::deploy(plan, util::SteadyClock::shared());
  EXPECT_THROW(deployment.at("missing"), NotFoundError);
}

TEST(DeploymentTest, BadPlansThrow) {
  auto clock = util::SteadyClock::shared();
  EXPECT_THROW(Deployment::deploy(json::object({}), clock), NotFoundError);
  EXPECT_THROW(
      Deployment::deploy(json::Value::parse(R"({"chains": [{"kind": "nope", "name": "x"}]})"),
                         clock),
      ParseError);
  EXPECT_THROW(
      Deployment::deploy(
          json::Value::parse(
              R"({"chains": [{"kind": "neuchain", "name": "x", "transport": "carrier-pigeon"}]})"),
          clock),
      ParseError);
}

}  // namespace
}  // namespace hammer::core
