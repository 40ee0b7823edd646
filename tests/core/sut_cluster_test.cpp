// SutCluster + RoutingPolicy coverage: distribution of round_robin,
// chain-agreement of shard-affine routing, least-in-flight under skew, and
// the cluster driving path end to end (per-target stats, misroute counter).
#include "core/sut_cluster.hpp"

#include <gtest/gtest.h>

#include "core/deployment.hpp"
#include "core/driver.hpp"

namespace hammer::core {
namespace {

struct ClusterHarness {
  explicit ClusterHarness(int endpoints, int shards = 4) {
    json::Object spec;
    spec["kind"] = "meepo";
    spec["name"] = "sut";
    spec["num_shards"] = shards;
    spec["block_interval_ms"] = 15;
    spec["endpoints"] = endpoints;
    spec["smallbank_accounts_per_shard"] = 50;
    json::Object plan;
    plan["chains"] = json::Value(json::Array{json::Value(std::move(spec))});
    deployment = std::make_unique<Deployment>(
        Deployment::deploy(json::Value(std::move(plan)), util::SteadyClock::shared()));
    cluster = deployment->at("sut").make_cluster(1);
  }

  workload::WorkloadFile make_workload(std::size_t count) {
    workload::WorkloadProfile profile;
    profile.seed = 11;
    return workload::generate_workload(profile, deployment->at("sut").smallbank_accounts,
                                       count);
  }

  chain::Transaction tx_from(const std::string& sender) {
    chain::Transaction tx;
    tx.contract = "smallbank";
    tx.op = "deposit_checking";
    tx.args = json::object({{"customer", sender}, {"amount", 1}});
    tx.sender = sender;
    return tx;
  }

  std::unique_ptr<Deployment> deployment;
  std::shared_ptr<SutCluster> cluster;
};

TEST(RoutingKindTest, StringRoundTrip) {
  EXPECT_EQ(routing_kind_from_string("round_robin"), RoutingKind::kRoundRobin);
  EXPECT_EQ(routing_kind_from_string("least_inflight"), RoutingKind::kLeastInFlight);
  EXPECT_EQ(routing_kind_from_string("shard"), RoutingKind::kShardAffine);
  EXPECT_EQ(routing_kind_from_string("shard_affine"), RoutingKind::kShardAffine);
  for (RoutingKind kind : {RoutingKind::kRoundRobin, RoutingKind::kLeastInFlight,
                           RoutingKind::kShardAffine}) {
    EXPECT_EQ(routing_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(routing_kind_from_string("carrier-pigeon"), Error);
}

TEST(RoutingPolicyTest, RoundRobinSpreadsExactlyEvenly) {
  ClusterHarness h(4);
  auto policy = make_routing_policy(RoutingKind::kRoundRobin);
  std::vector<std::size_t> hits(4, 0);
  chain::Transaction tx = h.tx_from("acct0");
  for (int i = 0; i < 100; ++i) ++hits[policy->route(tx, *h.cluster)];
  for (std::size_t t = 0; t < 4; ++t) EXPECT_EQ(hits[t], 25u) << "target " << t;
}

TEST(RoutingPolicyTest, ShardAffineAgreesWithTheChainForEveryAccount) {
  ClusterHarness h(4);
  auto policy = make_routing_policy(RoutingKind::kShardAffine);
  const auto& chain = *h.deployment->at("sut").chain;
  for (const std::string& acct : h.deployment->at("sut").smallbank_accounts) {
    chain::Transaction tx = h.tx_from(acct);
    std::size_t routed = policy->route(tx, *h.cluster);
    // The SUT's own routing function, endpoint convention shard % N.
    EXPECT_EQ(routed, chain.shard_for_sender(acct) % 4u) << acct;
  }
}

TEST(RoutingPolicyTest, LeastInFlightAvoidsLoadedTargetsAndBreaksTiesLow) {
  ClusterHarness h(3);
  auto policy = make_routing_policy(RoutingKind::kLeastInFlight);
  chain::Transaction tx = h.tx_from("acct0");
  // All idle: lowest index wins.
  EXPECT_EQ(policy->route(tx, *h.cluster), 0u);
  // Skew target 0 and 1; the idle target takes the traffic.
  h.cluster->target(0).add_in_flight(10);
  h.cluster->target(1).add_in_flight(5);
  EXPECT_EQ(policy->route(tx, *h.cluster), 2u);
  // Tie between 1 and 2 -> lowest index.
  h.cluster->target(2).add_in_flight(5);
  EXPECT_EQ(policy->route(tx, *h.cluster), 1u);
  h.cluster->target(0).sub_in_flight(10);
  h.cluster->target(1).sub_in_flight(5);
  h.cluster->target(2).sub_in_flight(5);
}

TEST(SutClusterTest, SingleWrapsLegacyAdaptersAndOwnsEveryShard) {
  ClusterHarness h(1);
  auto& sut = h.deployment->at("sut");
  auto adapter = [&] { return std::make_shared<adapters::ChainAdapter>(sut.connect()); };
  auto cluster = SutCluster::single({adapter(), adapter()}, adapter());
  ASSERT_EQ(cluster->size(), 1u);
  EXPECT_EQ(cluster->total_shards(), 4u);
  EXPECT_EQ(cluster->target(0).shards().size(), 4u);
  for (std::uint32_t s = 0; s < 4; ++s) EXPECT_EQ(cluster->owner_of_shard(s), 0u);
}

TEST(SutClusterTest, ShardAffineDrivingProducesZeroMisroutes) {
  ClusterHarness h(4);
  DriverOptions options;
  options.worker_threads = 4;
  options.routing = RoutingKind::kShardAffine;
  options.task_processor.shards = 4;
  HammerDriver driver(h.cluster, util::SteadyClock::shared(), options);
  RunResult result = driver.run(h.make_workload(300));
  EXPECT_EQ(result.submitted, 300u);
  EXPECT_EQ(result.unmatched, 0u);
  // Every transaction entered through the endpoint owning its sender's
  // shard — the property that makes shard-affinity measurable end to end.
  EXPECT_EQ(h.deployment->at("sut").chain->misrouted_submits(), 0u);
  // Per-target deltas land in the result and add up to the workload.
  ASSERT_FALSE(result.targets.is_null());
  const json::Array& targets = result.targets.as_array();
  ASSERT_EQ(targets.size(), 4u);
  std::uint64_t total_submitted = 0;
  for (const json::Value& t : targets) {
    total_submitted += static_cast<std::uint64_t>(t.at("submitted").as_int());
  }
  EXPECT_EQ(total_submitted, 300u);
  ASSERT_FALSE(result.processor.is_null());
  EXPECT_EQ(result.processor.at("shards").as_int(), 4);
  EXPECT_EQ(result.processor.at("pending").as_int(), 0);
}

TEST(SutClusterTest, RoundRobinDrivingMisroutesOnAShardedSut) {
  ClusterHarness h(4);
  DriverOptions options;
  options.worker_threads = 4;
  options.routing = RoutingKind::kRoundRobin;
  HammerDriver driver(h.cluster, util::SteadyClock::shared(), options);
  RunResult result = driver.run(h.make_workload(200));
  EXPECT_EQ(result.submitted, 200u);
  EXPECT_EQ(result.unmatched, 0u);
  // Endpoint-agnostic spray: ~3/4 of submissions enter through the wrong
  // endpoint (P[all 200 land home] is astronomically small).
  EXPECT_GT(h.deployment->at("sut").chain->misrouted_submits(), 0u);
}

TEST(SutClusterTest, LeastInFlightDrivingCompletesTheWorkload) {
  ClusterHarness h(2);
  DriverOptions options;
  options.worker_threads = 2;
  options.routing = RoutingKind::kLeastInFlight;
  HammerDriver driver(h.cluster, util::SteadyClock::shared(), options);
  RunResult result = driver.run(h.make_workload(200));
  EXPECT_EQ(result.submitted, 200u);
  EXPECT_EQ(result.unmatched, 0u);
  EXPECT_GT(result.committed, 100u);
}

}  // namespace
}  // namespace hammer::core
