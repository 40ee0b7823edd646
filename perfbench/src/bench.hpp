// perfbench: the end-to-end and per-layer benchmark of the Hammer driving
// stack. Everything here drives the library's public API from outside; no
// source under src/ knows it is being measured.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "core/driver.hpp"
#include "json/json.hpp"
#include "rpc/jsonrpc.hpp"
#include "workload/workload_file.hpp"

namespace perfbench {

using namespace hammer;

// ------------------------------------------------------------------ clocks

std::int64_t now_us();          // steady clock, the driver's time base
double process_cpu_s();         // user + system CPU of this process
std::int64_t thread_cpu_ns();   // CPU of the calling thread
double peak_rss_mb_self();

double median(std::vector<double> v);

// -------------------------------------------------------------- workloads

// One benchmark workload: the chain the SUT runs, how the driver is
// configured, and why the workload exists. Everything is a constant except
// the seed, so a workload never changes with the code it measures.
struct WorkloadSpec {
  std::string name;
  std::string why;
  json::Value chain;          // one Deployment chain spec ("name": "sut")
  json::Value driver;         // driver_options_from_json shape
  bool fork_sut = false;      // serve the chain from a forked child over TCP
  bool sql_metrics = false;   // write-behind MetricsPipeline + RunReport
  double nominal_tx_per_s = 0;  // workload size = nominal rate x seconds
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

// ------------------------------------------------------------------- spans

// In-memory span log of the traced run: one span per RPC frame (recorded
// by TracingChannel) and one per outer boundary (deploy, generate, drive,
// report). Spans of one frame share a request id.
struct Span {
  std::string name;
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // frame id; 0 for outer boundaries
  std::uint64_t items = 0;    // calls carried by the frame
};

class SpanLog {
 public:
  std::uint64_t next_id();
  void add(Span span);
  // Parent for RPC spans recorded from now on (the enclosing boundary).
  void set_current(std::uint64_t id);
  std::uint64_t current() const;

  std::vector<Span> spans() const;
  // Per span name: total duration minus the part covered by child spans.
  std::map<std::string, double> self_ms_by_name() const;
  std::map<std::string, double> total_ms_by_name() const;
  bool write_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::uint64_t current_ = 0;
};

// Records [start, end) of a boundary under `name`; children recorded while
// it is open are parented to it.
class ScopedBoundary {
 public:
  ScopedBoundary(SpanLog* log, std::string name);
  ~ScopedBoundary();
  ScopedBoundary(const ScopedBoundary&) = delete;
  ScopedBoundary& operator=(const ScopedBoundary&) = delete;

 private:
  SpanLog* log_;
  Span span_;
  std::uint64_t saved_parent_ = 0;
};

// rpc::Channel decorator: forwards every call to `inner` and records one
// span per call/call_batch frame into `log`.
std::shared_ptr<rpc::Channel> traced_channel(std::shared_ptr<rpc::Channel> inner,
                                             std::shared_ptr<SpanLog> log);

// -------------------------------------------------------------- SUT setup

// A SUT served from a forked child process over TCP, so the driver
// process's CPU is the instrument's own. The child lives until this object
// is destroyed.
class ForkedSut {
 public:
  // Forks, deploys `plan` in the child and waits for its endpoints.
  explicit ForkedSut(const json::Value& plan);
  ~ForkedSut();
  ForkedSut(const ForkedSut&) = delete;
  ForkedSut& operator=(const ForkedSut&) = delete;

  const std::vector<std::uint16_t>& ports() const { return ports_; }
  const std::vector<std::string>& accounts() const { return accounts_; }
  std::uint32_t shards() const { return shards_; }
  // CPU seconds and peak RSS of the child so far.
  double cpu_s() const;
  double peak_rss_mb() const;

 private:
  void query(std::int64_t out[2]) const;
  void shutdown();  // closes the pipes and reaps the child
  int pid_ = -1;
  int cmd_fd_ = -1;
  int reply_fd_ = -1;
  std::vector<std::uint16_t> ports_;
  std::vector<std::string> accounts_;
  std::uint32_t shards_ = 1;
};

// Everything one drive needs, built by set_up(). Destroying it tears the
// SUT down.
struct Setup {
  std::unique_ptr<core::Deployment> deployment;  // in-process SUT
  std::unique_ptr<ForkedSut> forked;             // or a forked one
  workload::WorkloadFile workload;
  std::shared_ptr<core::SutCluster> cluster;
  double seconds = 0;  // wall time from start of deploy to ready-to-send
};

// Deploy + generate + connect. With `spans`, every channel the cluster
// uses is a traced_channel and the three steps are recorded as boundaries.
std::unique_ptr<Setup> set_up(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
                              std::shared_ptr<SpanLog> spans);

json::Value chain_spec(const WorkloadSpec& spec, std::uint64_t seed);
// The spec's driver options with the seed as load_seed; the cluster fan-in
// knob lands in `channels_per_target` when given.
core::DriverOptions driver_options(const WorkloadSpec& spec, std::uint64_t seed,
                                   std::size_t* channels_per_target = nullptr);

// The driving API is due to lose the ControlSequence argument of
// HammerDriver::run and the write_behind flag (write-behind becoming the
// only metrics commit path); these two calls compile before and after.
template <typename Driver>
core::RunResult run_closed(Driver& driver, const workload::WorkloadFile& wf) {
  if constexpr (requires { driver.run(wf); }) {
    return driver.run(wf);
  } else {
    return driver.run(wf, nullptr);
  }
}

template <typename Options>
void use_write_behind(Options& options) {
  if constexpr (requires { options.write_behind = true; }) options.write_behind = true;
}

// The driver's id for `tx` (server_id stamped before signing, as the
// driver does) — used for the ledger sweep.
std::string driver_tx_id(chain::Transaction tx, const std::string& server_id);

// ------------------------------------------------------------------ ledger

// Inputs to the layer-cost ledger: the workload's own transactions and the
// run-shape figures the ledger scales its per-call costs by.
struct LedgerInput {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  std::vector<chain::Transaction> txs;  // unsigned, from the workload
  std::vector<std::string> accounts;
  double block_txs_mean = 1;  // receipts per on_block call and per push
};

// Per-call thread-CPU costs of each layer, in microseconds, keyed by the
// per-layer metric name.
std::map<std::string, double> measure_ledger(const LedgerInput& in);

}  // namespace perfbench
