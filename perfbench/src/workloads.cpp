// The three benchmark workloads and how one is set up.
#include <algorithm>
#include <cmath>
#include <functional>

#include "adapters/chain_adapter.hpp"
#include "bench.hpp"
#include "rpc/channel_pool.hpp"
#include "rpc/tcp.hpp"
#include "util/clock.hpp"
#include "util/errors.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

// All three run SmallBank with uniform senders over 10,000 accounts and a
// zero commit cost, so no simulated sleep stands in for work and the
// numbers are the stack's own CPU.
constexpr std::size_t kAccounts = 10000;

json::Value neuchain(bool tcp) {
  json::Object spec = json::object({{"kind", "neuchain"},
                                    {"name", "sut"},
                                    {"transport", tcp ? "tcp" : "inproc"},
                                    {"block_interval_ms", 50},
                                    {"max_block_txs", 4000},
                                    {"commit_cost_us", 0},
                                    {"smallbank_accounts_per_shard",
                                     static_cast<std::int64_t>(kAccounts)}})
                         .as_object();
  if (tcp) spec["rpc_workers"] = 2;
  return json::Value(std::move(spec));
}

// Paced workloads allow a 100 ms token burst (rate_burst = rate / 10): after
// a host stall of up to 100 ms the generator catches up instead of silently
// offering less than the target rate.
std::vector<WorkloadSpec> build_workloads() {
  std::vector<WorkloadSpec> out;

  WorkloadSpec inproc;
  inproc.name = "inproc_peak";
  inproc.why =
      "closed-loop in-process neuchain: the client CPU path (sign, id, JSON round trip, "
      "verify, seal, Algorithm 1) is the bottleneck; no TCP, wire codec or SQL";
  inproc.chain = neuchain(/*tcp=*/false);
  inproc.driver = json::object({{"worker_threads", 2},
                                {"submit_batch_size", 64},
                                {"target_rate", 0},
                                {"channels_per_target", 2}});
  inproc.nominal_tx_per_s = 20000;
  out.push_back(std::move(inproc));

  WorkloadSpec sql;
  sql.name = "tcp_paced_sql";
  sql.why =
      "neuchain in a forked process over TCP (binary codec) paced at a constant 8000 tx/s "
      "with the write-behind SQL report: how a user measures a chain at a fixed rate";
  sql.chain = neuchain(/*tcp=*/true);
  sql.driver = json::object({{"worker_threads", 2},
                             {"submit_batch_size", 16},
                             {"target_rate", 8000},
                             {"rate_burst", 800},
                             {"channels_per_target", 2}});
  sql.fork_sut = true;
  sql.sql_metrics = true;
  sql.nominal_tx_per_s = 8000;
  out.push_back(std::move(sql));

  WorkloadSpec sharded;
  sharded.name = "sharded_tcp_batch1";
  sharded.why =
      "2-shard meepo behind 2 TCP endpoints, shard-affine routing, one tx per RPC, paced at "
      "4000 tx/s: per-call rpc cost, multi-target routing, K=2 task processor";
  sharded.chain = json::object({{"kind", "meepo"},
                                {"name", "sut"},
                                {"transport", "tcp"},
                                {"num_shards", 2},
                                {"endpoints", 2},
                                {"rpc_workers", 1},
                                {"block_interval_ms", 50},
                                {"max_block_txs", 4000},
                                {"commit_cost_us", 0},
                                {"smallbank_accounts_per_shard",
                                 static_cast<std::int64_t>(kAccounts / 2)}});
  sharded.driver = json::object({{"worker_threads", 2},
                                 {"submit_batch_size", 1},
                                 {"routing", "shard"},
                                 {"task_shards", 2},
                                 {"target_rate", 4000},
                                 {"rate_burst", 400},
                                 {"channels_per_target", 1}});
  sharded.fork_sut = true;
  sharded.nominal_tx_per_s = 4000;
  out.push_back(std::move(sharded));
  return out;
}

// One target per endpoint, mirroring DeployedChain::make_cluster: the
// workers share a channel pool, the poller gets its own channel, and
// target i owns the shards with shard % endpoints == i.
//
// This is a copy of the wiring in DeployedChain::make_cluster and
// core::make_remote_cluster. It exists only because those take no channel
// decorator, and the traced drive must wrap every channel. The untraced
// drives use it too, so both measure the same wiring. Any change to pool
// depth, poller channels or shard ownership there must be made here as
// well; once make_cluster accepts a decorator, this copy should go.
std::shared_ptr<core::SutCluster> connect_cluster(
    const std::function<std::shared_ptr<rpc::Channel>(std::size_t)>& dial,
    std::size_t endpoints, std::uint32_t shards, std::size_t workers_per_target,
    std::size_t channels_per_target, const rpc::ClientConfig& config,
    const std::shared_ptr<SpanLog>& spans) {
  auto open = [&](std::size_t endpoint) {
    std::shared_ptr<rpc::Channel> channel = dial(endpoint);
    return spans ? traced_channel(std::move(channel), spans) : channel;
  };
  std::vector<std::unique_ptr<core::SutTarget>> targets;
  for (std::size_t i = 0; i < endpoints; ++i) {
    rpc::ClientConfig target_config = config;
    target_config.target_index = i;
    rpc::ChannelPool pool([&] { return open(i); },
                          std::min(channels_per_target, workers_per_target));
    std::vector<std::shared_ptr<adapters::ChainAdapter>> workers;
    for (std::size_t w = 0; w < workers_per_target; ++w) {
      workers.push_back(adapters::make_adapter(pool.next(), target_config));
    }
    auto poller = adapters::make_adapter(open(i), target_config);
    std::vector<std::uint32_t> owned;
    for (std::uint32_t s = 0; s < shards; ++s) {
      if (s % endpoints == i) owned.push_back(s);
    }
    targets.push_back(
        std::make_unique<core::SutTarget>(i, std::move(workers), std::move(poller), owned));
  }
  return std::make_shared<core::SutCluster>(std::move(targets));
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = build_workloads();
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

json::Value chain_spec(const WorkloadSpec& spec, std::uint64_t seed) {
  json::Value chain = spec.chain;
  chain["seed"] = seed;
  return chain;
}

core::DriverOptions driver_options(const WorkloadSpec& spec, std::uint64_t seed,
                                   std::size_t* channels_per_target) {
  json::Value driver = spec.driver;
  driver["load_seed"] = seed;
  return core::driver_options_from_json(driver, channels_per_target);
}

std::string driver_tx_id(chain::Transaction tx, const std::string& server_id) {
  tx.server_id = server_id;
  return tx.compute_id();
}

std::unique_ptr<Setup> set_up(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
                              std::shared_ptr<SpanLog> spans) {
  auto setup = std::make_unique<Setup>();
  const std::int64_t t0 = now_us();
  const json::Value plan = json::object({{"chains", json::array({chain_spec(spec, seed)})}});
  std::vector<std::string> accounts;
  std::uint32_t shards = 1;
  std::size_t endpoints = 1;
  {
    ScopedBoundary span(spans.get(), "setup.deploy");
    if (spec.fork_sut) {
      setup->forked = std::make_unique<ForkedSut>(plan);
      accounts = setup->forked->accounts();
      shards = setup->forked->shards();
      endpoints = setup->forked->ports().size();
    } else {
      setup->deployment = std::make_unique<core::Deployment>(
          core::Deployment::deploy(plan, util::SteadyClock::shared()));
      core::DeployedChain& sut = setup->deployment->at("sut");
      accounts = sut.smallbank_accounts;
      shards = sut.chain->num_shards();
      endpoints = sut.endpoint_count();
    }
  }
  HAMMER_CHECK_MSG(accounts.size() == kAccounts, "genesis produced the wrong account count");
  {
    ScopedBoundary span(spans.get(), "setup.generate");
    workload::WorkloadProfile profile;
    profile.contract = "smallbank";
    profile.num_accounts = kAccounts;
    profile.distribution = workload::Distribution::kUniform;
    profile.seed = seed;
    const auto count = static_cast<std::size_t>(std::llround(spec.nominal_tx_per_s * seconds));
    setup->workload =
        workload::generate_workload(profile, accounts, std::max<std::size_t>(1, count));
  }
  {
    ScopedBoundary span(spans.get(), "setup.connect");
    std::size_t channels_per_target = 1;
    const core::DriverOptions options = driver_options(spec, seed, &channels_per_target);
    const std::size_t workers_per_target =
        std::max<std::size_t>(1, options.worker_threads / endpoints);
    rpc::ClientConfig config;  // binary preferred, one attempt per call
    std::function<std::shared_ptr<rpc::Channel>(std::size_t)> dial;
    if (setup->forked) {
      const std::vector<std::uint16_t> ports = setup->forked->ports();
      dial = [ports, config](std::size_t i) -> std::shared_ptr<rpc::Channel> {
        return std::make_shared<rpc::TcpChannel>("127.0.0.1", ports[i], config);
      };
    } else {
      core::DeployedChain* sut = &setup->deployment->at("sut");
      dial = [sut, config](std::size_t i) { return sut->connect(config, nullptr, i); };
    }
    setup->cluster = connect_cluster(dial, endpoints, shards, workers_per_target,
                                     channels_per_target, config, spans);
  }
  setup->seconds = static_cast<double>(now_us() - t0) / 1e6;
  return setup;
}

}  // namespace perfbench
