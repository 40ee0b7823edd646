#include "core/deployment.hpp"

#include <algorithm>

#include "chain/factory.hpp"
#include "rpc/channel_pool.hpp"
#include "telemetry/endpoint.hpp"
#include "util/errors.hpp"
#include "util/logging.hpp"

namespace hammer::core {

namespace {

// Every key a chain spec may carry. Deploy rejects anything else by name —
// a misspelled knob must fail loudly, not silently run the default.
const char* const kKnownSpecKeys[] = {
    "kind",          "name",          "num_shards",       "pool_capacity",
    "max_block_txs", "block_interval_ms", "verify_signatures", "commit_cost_us",
    "ingress_cost_us", "seed",        "hash_rate",        "endorsers",
    "transport",     "endpoints",     "rpc_workers",      "smallbank_accounts_per_shard",
    "initial_checking", "initial_savings", "faults"};

void validate_spec_keys(const json::Value& spec) {
  for (const auto& [key, value] : spec.as_object()) {
    (void)value;
    if (!is_known_chain_spec_key(key)) {
      throw ParseError("unknown chain spec key '" + key + "' in chain '" +
                       spec.get_string("name", "?") + "'");
    }
  }
}

}  // namespace

bool is_known_chain_spec_key(const std::string& key) {
  return std::any_of(std::begin(kKnownSpecKeys), std::end(kKnownSpecKeys),
                     [&](const char* k) { return key == k; });
}

std::shared_ptr<rpc::Channel> DeployedChain::connect(
    const rpc::ClientConfig& config, std::shared_ptr<fault::FaultInjector> client_faults,
    std::size_t endpoint) const {
  HAMMER_CHECK_MSG(endpoint < endpoint_count(), "endpoint index out of range");
  const rpc::TcpServer* server =
      endpoint == 0 ? tcp_server.get() : extra_endpoints[endpoint - 1].tcp_server.get();
  if (server != nullptr) {
    auto channel = std::make_shared<rpc::TcpChannel>("127.0.0.1", server->port(), config);
    if (client_faults) channel->install_fault_injector(std::move(client_faults));
    return channel;
  }
  return std::make_shared<rpc::InProcChannel>(
      endpoint == 0 ? dispatcher : extra_endpoints[endpoint - 1].dispatcher);
}

std::shared_ptr<SutCluster> DeployedChain::make_cluster(
    std::size_t workers_per_target, std::size_t channels_per_target,
    const rpc::ClientConfig& config,
    std::shared_ptr<fault::FaultInjector> client_faults) const {
  HAMMER_CHECK_MSG(workers_per_target >= 1, "make_cluster needs >= 1 worker per target");
  const std::size_t n = endpoint_count();
  const std::uint32_t shards = chain->num_shards();
  std::vector<std::unique_ptr<SutTarget>> targets;
  targets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rpc::ClientConfig target_config = config;
    target_config.target_index = i;
    // Workers share a small channel pool; TcpChannel multiplexes in-flight
    // calls by id, so P sockets carry M > P workers without head-of-line
    // blocking on whole calls.
    rpc::ChannelPool pool([&] { return connect(target_config, client_faults, i); },
                          std::min(std::max<std::size_t>(1, channels_per_target),
                                   workers_per_target));
    std::vector<std::shared_ptr<adapters::ChainAdapter>> workers;
    workers.reserve(workers_per_target);
    for (std::size_t w = 0; w < workers_per_target; ++w) {
      workers.push_back(
          std::make_shared<adapters::ChainAdapter>(pool.next(), target_config));
    }
    // The poller never shares a socket with submissions, and gets no client
    // faults: its send count follows timing, so draws on it would break the
    // seeded worker-channel fault trace (as in make_remote_cluster).
    auto poller =
        std::make_shared<adapters::ChainAdapter>(connect(target_config, nullptr, i), target_config);
    std::vector<std::uint32_t> owned;
    for (std::uint32_t s = 0; s < shards; ++s) {
      if (s % n == i) owned.push_back(s);
    }
    targets.push_back(
        std::make_unique<SutTarget>(i, std::move(workers), std::move(poller), std::move(owned)));
  }
  return std::make_shared<SutCluster>(std::move(targets));
}

std::vector<std::uint16_t> DeployedChain::tcp_ports() const {
  HAMMER_CHECK_MSG(tcp_server != nullptr,
                   "tcp_ports() needs transport \"tcp\" — in-process endpoints are not dialable");
  std::vector<std::uint16_t> ports;
  ports.reserve(endpoint_count());
  ports.push_back(tcp_server->port());
  for (const ExtraEndpoint& extra : extra_endpoints) {
    HAMMER_CHECK(extra.tcp_server != nullptr);
    ports.push_back(extra.tcp_server->port());
  }
  return ports;
}

std::shared_ptr<SutCluster> make_remote_cluster(
    const std::vector<RemoteEndpoint>& endpoints, std::size_t workers_per_target,
    std::size_t channels_per_target, const rpc::ClientConfig& config,
    std::shared_ptr<fault::FaultInjector> client_faults) {
  HAMMER_CHECK_MSG(!endpoints.empty(), "make_remote_cluster needs >= 1 endpoint");
  HAMMER_CHECK_MSG(workers_per_target >= 1, "make_remote_cluster needs >= 1 worker per target");
  const std::size_t n = endpoints.size();
  std::uint32_t shards = 1;
  std::vector<std::unique_ptr<SutTarget>> targets;
  targets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rpc::ClientConfig target_config = config;
    target_config.target_index = i;
    auto dial = [&](bool with_faults) {
      auto channel = std::make_shared<rpc::TcpChannel>(endpoints[i].host, endpoints[i].port,
                                                       target_config);
      if (with_faults && client_faults) channel->install_fault_injector(client_faults);
      return channel;
    };
    rpc::ChannelPool pool([&] { return dial(/*with_faults=*/true); },
                          std::min(std::max<std::size_t>(1, channels_per_target),
                                   workers_per_target));
    std::vector<std::shared_ptr<adapters::ChainAdapter>> workers;
    workers.reserve(workers_per_target);
    for (std::size_t w = 0; w < workers_per_target; ++w) {
      workers.push_back(std::make_shared<adapters::ChainAdapter>(pool.next(), target_config));
    }
    auto poller =
        std::make_shared<adapters::ChainAdapter>(dial(/*with_faults=*/false), target_config);
    if (i == 0) shards = poller->info().shards;
    std::vector<std::uint32_t> owned;
    for (std::uint32_t s = 0; s < shards; ++s) {
      if (s % n == i) owned.push_back(s);
    }
    targets.push_back(
        std::make_unique<SutTarget>(i, std::move(workers), std::move(poller), std::move(owned)));
  }
  return std::make_shared<SutCluster>(std::move(targets));
}

Deployment Deployment::deploy(const json::Value& plan, std::shared_ptr<util::Clock> clock) {
  HAMMER_CHECK(clock != nullptr);
  Deployment deployment;
  for (const json::Value& spec : plan.at("chains").as_array()) {
    validate_spec_keys(spec);
    auto deployed = std::make_unique<DeployedChain>();
    deployed->chain = chain::make_chain(spec, clock);

    auto endpoints = static_cast<std::uint32_t>(spec.get_int("endpoints", 1));
    HAMMER_CHECK_MSG(endpoints >= 1, "chain spec needs endpoints >= 1");
    auto rpc_workers = static_cast<std::size_t>(spec.get_int("rpc_workers", 0));

    std::string transport = spec.get_string("transport", "inproc");
    if (transport != "tcp" && transport != "inproc") {
      throw ParseError("unknown transport '" + transport + "'");
    }

    // One chain instance, `endpoints` RPC surfaces over it. The i-th surface
    // is bound endpoint-tagged so chain.submit counts shard-misrouted
    // arrivals and endpoint.info reports the shards surface i owns.
    for (std::uint32_t i = 0; i < endpoints; ++i) {
      auto d = std::make_shared<rpc::Dispatcher>();
      chain::bind_chain_rpc(deployed->chain, *d, i, endpoints);
      // Every SUT endpoint also answers telemetry.metrics /
      // telemetry.snapshot — the per-node exporter Prometheus pulls from.
      telemetry::bind_telemetry_rpc(*d);
      std::unique_ptr<rpc::TcpServer> server;
      if (transport == "tcp") {
        server = std::make_unique<rpc::TcpServer>(d, 0, rpc_workers);
      }
      if (i == 0) {
        deployed->dispatcher = std::move(d);
        deployed->tcp_server = std::move(server);
      } else {
        deployed->extra_endpoints.push_back({std::move(d), std::move(server)});
      }
    }

    auto per_shard = static_cast<std::size_t>(spec.get_int("smallbank_accounts_per_shard", 0));
    if (per_shard > 0) {
      deployed->smallbank_accounts = chain::genesis_smallbank_accounts(
          *deployed->chain, per_shard, spec.get_int("initial_checking", 1000000),
          spec.get_int("initial_savings", 1000000));
    }

    if (spec.contains("faults")) {
      // One plan, one seeded injector, installed on every SUT-side surface
      // (before start() so block-production threads never race the install).
      fault::FaultPlan fault_plan = fault::FaultPlan::from_json(spec.at("faults"));
      auto faults = std::make_shared<fault::FaultInjector>(fault_plan);
      deployed->chain->install_fault_injector(faults);
      if (deployed->tcp_server) deployed->tcp_server->install_fault_injector(faults);
      for (auto& extra : deployed->extra_endpoints) {
        if (extra.tcp_server) extra.tcp_server->install_fault_injector(faults);
      }
      deployed->fault_injector = std::move(faults);
      // Resource faults from the same plan: CPU burn / ballast start now and
      // run for the deployment's lifetime; the ingress throttle (per-target
      // token bucket) gates every TCP endpoint's dispatch path.
      if (fault_plan.has_resource_faults()) {
        if (fault_plan.cpu_burn_threads > 0 || fault_plan.mem_ballast_mb > 0) {
          deployed->resource_faults = std::make_shared<fault::ResourceFaults>(fault_plan);
        }
        if (fault_plan.ingress_rps > 0.0) {
          auto install = [&](rpc::TcpServer* server) {
            if (!server) return;
            server->install_ingress_throttle(std::make_shared<fault::IngressThrottle>(
                fault_plan.ingress_rps, fault_plan.ingress_burst, clock));
          };
          install(deployed->tcp_server.get());
          for (auto& extra : deployed->extra_endpoints) install(extra.tcp_server.get());
        }
      }
    }

    deployed->chain->start();
    std::string name = deployed->chain->config().name;
    HLOG_INFO("deploy") << "started " << deployed->chain->kind() << " '" << name << "' ("
                        << deployed->chain->num_shards() << " shard(s), "
                        << deployed->endpoint_count() << " endpoint(s), "
                        << deployed->smallbank_accounts.size() << " accounts)";
    auto [it, inserted] = deployment.chains_.emplace(name, std::move(deployed));
    (void)it;
    HAMMER_CHECK_MSG(inserted, "duplicate chain name " + name);
  }
  return deployment;
}

Deployment::~Deployment() {
  for (auto& [name, deployed] : chains_) {
    if (deployed && deployed->chain) deployed->chain->stop();
  }
}

DeployedChain& Deployment::at(const std::string& name) {
  auto it = chains_.find(name);
  if (it == chains_.end()) throw NotFoundError("deployed chain " + name);
  return *it->second;
}

std::vector<std::string> Deployment::names() const {
  std::vector<std::string> out;
  out.reserve(chains_.size());
  for (const auto& [name, deployed] : chains_) {
    (void)deployed;
    out.push_back(name);
  }
  return out;
}

}  // namespace hammer::core
