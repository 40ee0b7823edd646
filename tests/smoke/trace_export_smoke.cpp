// Trace export smoke: a seeded 2-endpoint meepo run over real TCP loopback
// with tracing armed end to end — wire-propagated trace contexts, SUT-side
// span capture, run-end span fetch + clock alignment, and the Chrome
// trace_event export. Asserts on the exported artifact itself:
//   - parses as trace_event JSON with a non-empty traceEvents array
//   - every flow start ("s") has a matching finish ("f") — zero orphans
//   - no slice has a negative timestamp or a duration below 1us
//   - flows bind driver-side slices to SUT-side slices (both process lanes
//     are populated for every flowed trace)
//   - the run result carries the stitched stages.remote breakdown
// Run under -DHAMMER_SANITIZE=thread: submit workers, pollers, the span
// ring, and the merger all race here by construction.
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "core/deployment.hpp"
#include "core/driver.hpp"

int main() {
  using namespace hammer;
  json::Value plan = json::Value::parse(R"({
    "chains": [{"kind": "meepo", "name": "sut", "num_shards": 2,
                "block_interval_ms": 15, "transport": "tcp",
                "endpoints": 2, "rpc_workers": 2,
                "smallbank_accounts_per_shard": 100,
                "initial_checking": 1000000, "initial_savings": 1000000}]
  })");
  core::Deployment deployment =
      core::Deployment::deploy(plan, util::SteadyClock::shared());
  auto& sut = deployment.at("sut");

  workload::WorkloadProfile profile;
  profile.seed = 23;
  workload::WorkloadFile wf =
      workload::generate_workload(profile, sut.smallbank_accounts, 400);

  const std::string trace_path = "trace_export_smoke_out.json";
  core::DriverOptions options;
  options.worker_threads = 2;
  options.submit_batch_size = 8;
  options.trace_every_n = 4;
  options.trace_export_path = trace_path;
  core::HammerDriver driver(sut.make_cluster(1), util::SteadyClock::shared(), options);
  core::RunResult result = driver.run(wf);

  if (result.submitted != 400 || result.unmatched != 0) {
    std::fprintf(stderr, "FAIL: traced run lost transactions (submitted=%llu unmatched=%llu)\n",
                 static_cast<unsigned long long>(result.submitted),
                 static_cast<unsigned long long>(result.unmatched));
    return 1;
  }

  // The stitched remote breakdown must make it into the run result.
  if (!result.stages.is_object() || !result.stages.contains("remote")) {
    std::fprintf(stderr, "FAIL: run result has no stages.remote (stages: %s)\n",
                 result.stages.dump().c_str());
    return 1;
  }
  const json::Value& remote = result.stages.at("remote");
  if (remote.get_int("stitched_txs", 0) <= 0) {
    std::fprintf(stderr, "FAIL: zero stitched txs in stages.remote: %s\n",
                 remote.dump().c_str());
    return 1;
  }

  std::ifstream in(trace_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "FAIL: trace export file %s was not written\n", trace_path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  json::Value doc = json::Value::parse(buf.str());
  if (!doc.contains("traceEvents") || doc.at("traceEvents").as_array().empty()) {
    std::fprintf(stderr, "FAIL: exported trace has no traceEvents\n");
    return 1;
  }

  std::multiset<std::int64_t> flow_starts;
  std::multiset<std::int64_t> flow_finishes;
  std::set<std::int64_t> driver_pids;  // pids carrying "s" ends of flows
  std::set<std::int64_t> sut_pids;     // pids carrying "f" ends of flows
  std::size_t slices = 0;
  for (const json::Value& event : doc.at("traceEvents").as_array()) {
    const std::string ph = event.get_string("ph", "");
    if (ph == "s") {
      flow_starts.insert(event.at("id").as_int());
      driver_pids.insert(event.at("pid").as_int());
    } else if (ph == "f") {
      flow_finishes.insert(event.at("id").as_int());
      sut_pids.insert(event.at("pid").as_int());
    } else if (ph == "X") {
      ++slices;
      if (event.at("ts").as_int() < 0) {
        std::fprintf(stderr, "FAIL: negative slice timestamp: %s\n", event.dump().c_str());
        return 1;
      }
      if (event.at("dur").as_int() < 1) {
        std::fprintf(stderr, "FAIL: non-positive slice duration: %s\n", event.dump().c_str());
        return 1;
      }
    }
  }
  if (slices == 0) {
    std::fprintf(stderr, "FAIL: exported trace has no slices\n");
    return 1;
  }
  if (flow_starts.empty()) {
    std::fprintf(stderr, "FAIL: no flow arrows in a traced 400-tx run\n");
    return 1;
  }
  if (flow_starts != flow_finishes) {
    std::fprintf(stderr, "FAIL: orphan flows (%zu starts vs %zu finishes)\n",
                 flow_starts.size(), flow_finishes.size());
    return 1;
  }
  // Flow starts live on the driver process lane, finishes on a SUT lane:
  // every flowed trace has spans on BOTH sides of the wire.
  for (std::int64_t pid : driver_pids) {
    if (pid != 1) {
      std::fprintf(stderr, "FAIL: flow start on non-driver pid %lld\n",
                   static_cast<long long>(pid));
      return 1;
    }
  }
  for (std::int64_t pid : sut_pids) {
    if (pid < 10) {
      std::fprintf(stderr, "FAIL: flow finish on non-SUT pid %lld\n",
                   static_cast<long long>(pid));
      return 1;
    }
  }

  std::remove(trace_path.c_str());
  std::printf("trace export: %zu slices, %zu flows, all paired; stages.remote: %s\n",
              slices, flow_starts.size(), remote.dump().c_str());
  return 0;
}
