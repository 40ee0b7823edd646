// Declarative SUT deployment — the stand-in for the paper's Ansible
// playbooks ("automated deployment scripts ... to replace the manual
// deployment process"). A JSON plan names the chains to launch, their
// parameters, transport and genesis accounts; deploy() builds, populates
// and starts them, and hands back RPC-ready endpoints.
//
// Plan shape:
// {
//   "chains": [
//     {"kind": "fabric", "name": "fabric-1", "block_interval_ms": 100,
//      "transport": "inproc",            // or "tcp"
//      "endpoints": 4,                   // RPC endpoints serving this chain
//      "rpc_workers": 2,                 // TcpServer threads per endpoint
//      "smallbank_accounts_per_shard": 1000,
//      "initial_checking": 10000, "initial_savings": 10000, ...,
//      "faults": {"seed": 7, "submit_reject_p": 0.05, ...}}  // optional
//   ]
// }
//
// Unknown keys in a chain spec are an error (named in the exception), so a
// typo like "block_intervl_ms" fails the deploy instead of silently running
// the default configuration.
//
// "endpoints": n launches n RPC surfaces over the ONE chain instance — n
// dispatchers (and, for tcp transport, n TcpServers), the i-th bound with
// endpoint tag i so chain.submit counts shard-misrouted arrivals and
// endpoint.info reports the shard set endpoint i owns (shard % n == i).
// This is the multi-endpoint SUT a SutCluster drives.
//
// A "faults" key builds a seeded fault::FaultInjector (fault::FaultPlan
// JSON shape) and installs it on the chain AND its TcpServers, so SUT-side
// and server-transport faults share one deterministic plan. Client-side
// faults stay client-owned: pass an injector to connect()/make_cluster().
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adapters/chain_adapter.hpp"
#include "chain/blockchain.hpp"
#include "core/sut_cluster.hpp"
#include "fault/resource.hpp"
#include "rpc/tcp.hpp"
#include "util/clock.hpp"

namespace hammer::core {

struct DeployedChain {
  std::shared_ptr<chain::Blockchain> chain;
  // Endpoint 0 — kept as flat fields because single-endpoint call sites
  // (tests, examples) address them directly.
  std::shared_ptr<rpc::Dispatcher> dispatcher;
  std::unique_ptr<rpc::TcpServer> tcp_server;  // null for in-process transport
  // Endpoints 1..N-1 when the spec asked for "endpoints": n > 1.
  struct ExtraEndpoint {
    std::shared_ptr<rpc::Dispatcher> dispatcher;
    std::unique_ptr<rpc::TcpServer> tcp_server;
  };
  std::vector<ExtraEndpoint> extra_endpoints;
  std::vector<std::string> smallbank_accounts;
  // Set when the plan carried a "faults" key; shared by the chain and the
  // TCP servers, so its counts_json() is the SUT-side fault record.
  std::shared_ptr<fault::FaultInjector> fault_injector;
  // Continuous contention (cpu_burn / mem_ballast) from the same plan; runs
  // until the deployment tears down. Null when the plan has none.
  std::shared_ptr<fault::ResourceFaults> resource_faults;

  std::size_t endpoint_count() const { return 1 + extra_endpoints.size(); }

  // Creates a fresh client channel to `endpoint` (in-proc, or a new TCP
  // connection negotiating per `config`). `client_faults` installs a
  // client-side injector on the new TcpChannel (ignored for in-proc
  // transport, which has no wire to break).
  std::shared_ptr<rpc::Channel> connect(
      const rpc::ClientConfig& config = {},
      std::shared_ptr<fault::FaultInjector> client_faults = nullptr,
      std::size_t endpoint = 0) const;

  // Builds a SutCluster over every endpoint of this chain: per target,
  // `workers_per_target` adapters sharing a `channels_per_target`-deep
  // rpc::ChannelPool (fewer sockets than workers; TcpChannel multiplexes),
  // plus a dedicated poll-adapter channel. Target i owns the shards with
  // shard % endpoints == i — the same convention endpoint.info reports.
  // The ClientConfig flows unchanged into every channel and adapter the
  // cluster owns (only target_index is stamped per endpoint).
  // `client_faults` is installed on the worker channels only, for the
  // reason make_remote_cluster gives. channels_per_target ==
  // workers_per_target gives every worker its own channel.
  std::shared_ptr<SutCluster> make_cluster(
      std::size_t workers_per_target, std::size_t channels_per_target = 2,
      const rpc::ClientConfig& config = {},
      std::shared_ptr<fault::FaultInjector> client_faults = nullptr) const;

  // TCP listen ports, one per endpoint, in endpoint order — the addresses a
  // coordinator hands to remote worker processes (control.deploy). Throws
  // for in-process transport, which has no wire a second process could dial.
  std::vector<std::uint16_t> tcp_ports() const;
};

// One dialable RPC surface of a remotely-deployed SUT.
struct RemoteEndpoint {
  std::string host;
  std::uint16_t port = 0;
};

// The worker-process flavour of DeployedChain::make_cluster: builds a
// SutCluster over remote TCP endpoints instead of a locally-deployed chain.
// Per target, `workers_per_target` adapters share a `channels_per_target`-
// deep ChannelPool plus a dedicated poll channel; target i owns the shards
// with shard % endpoints == i (the convention endpoint.info reports), and
// the shard count comes from the live chain.info of the first endpoint.
// `client_faults` is installed on the WORKER channels only — the poll
// channel's send count is timing-dependent, and burning seeded draws on it
// would destroy the per-worker fault-trace determinism the control plane
// guarantees.
std::shared_ptr<SutCluster> make_remote_cluster(
    const std::vector<RemoteEndpoint>& endpoints, std::size_t workers_per_target,
    std::size_t channels_per_target, const rpc::ClientConfig& config,
    std::shared_ptr<fault::FaultInjector> client_faults = nullptr);

// True when `key` is a chain spec key Deployment::deploy accepts. The tune
// subsystem validates "chain.<key>" knobs against this — the same rejection
// surface deploy itself enforces — so a tuner cannot search a knob the
// deployment would refuse.
bool is_known_chain_spec_key(const std::string& key);

class Deployment {
 public:
  // Builds and STARTS every chain in the plan. Chains stop on destruction.
  static Deployment deploy(const json::Value& plan, std::shared_ptr<util::Clock> clock);

  ~Deployment();
  Deployment(Deployment&&) = default;
  Deployment& operator=(Deployment&&) = default;

  DeployedChain& at(const std::string& name);
  std::vector<std::string> names() const;

 private:
  Deployment() = default;
  std::map<std::string, std::unique_ptr<DeployedChain>> chains_;
};

}  // namespace hammer::core
