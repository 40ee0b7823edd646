// Cluster scale-out smoke: a 4-shard meepo SUT deployed with four tagged
// RPC endpoints over real TCP loopback, driven end to end through a
// SutCluster with shard-affine routing — the full multi-endpoint driving
// path (sign -> route -> submit -> detect, one poller per target, sharded
// TaskProcessor). The run executes TWICE from scratch with the same seeds;
// committed/failed/submitted totals must be identical (the cluster path
// must not introduce nondeterminism on top of a seeded workload).
//
// Shard-affinity is checked at the SUT: every submission must enter through
// the endpoint owning its sender's shard (misrouted_submits == 0).
// The workload is semantically order-independent (rich accounts, no
// amalgamate) so totals do not depend on block-boundary timing.
// Run under -DHAMMER_SANITIZE=thread: 4 submit workers, 4 poller threads,
// and the sharded completion tracker all race here by construction.
#include <cstdio>
#include <string>

#include "core/deployment.hpp"
#include "core/driver.hpp"

namespace {

struct ClusterOutcome {
  unsigned long long submitted = 0;
  unsigned long long committed = 0;
  unsigned long long failed = 0;
  unsigned long long unmatched = 0;
  unsigned long long misrouted = 0;
  std::string targets;
};

ClusterOutcome run_cluster() {
  using namespace hammer;
  json::Value plan = json::Value::parse(R"({
    "chains": [{"kind": "meepo", "name": "sut", "num_shards": 4,
                "block_interval_ms": 15, "transport": "tcp",
                "endpoints": 4, "rpc_workers": 2,
                "smallbank_accounts_per_shard": 100,
                "initial_checking": 1000000, "initial_savings": 1000000}]
  })");
  core::Deployment deployment =
      core::Deployment::deploy(plan, util::SteadyClock::shared());
  auto& sut = deployment.at("sut");

  workload::WorkloadProfile profile;
  profile.seed = 19;
  profile.op_mix = {{"deposit_checking", 1.0},
                    {"transact_savings", 1.0},
                    {"send_payment", 1.0},
                    {"write_check", 1.0}};
  workload::WorkloadFile wf =
      workload::generate_workload(profile, sut.smallbank_accounts, 600);

  core::DriverOptions options;
  options.worker_threads = 4;
  options.submit_batch_size = 8;
  options.routing = core::RoutingKind::kShardAffine;
  options.task_processor.shards = 4;
  core::HammerDriver driver(sut.make_cluster(1), util::SteadyClock::shared(), options);
  core::RunResult result = driver.run(wf);

  ClusterOutcome outcome;
  outcome.submitted = result.submitted;
  outcome.committed = result.committed;
  outcome.failed = result.failed;
  outcome.unmatched = result.unmatched;
  outcome.misrouted = sut.chain->misrouted_submits();
  outcome.targets = result.targets.dump();
  return outcome;
}

}  // namespace

int main() {
  ClusterOutcome first = run_cluster();
  ClusterOutcome second = run_cluster();

  std::printf("cluster run 1: submitted=%llu committed=%llu failed=%llu unmatched=%llu "
              "misrouted=%llu\n  targets: %s\n",
              first.submitted, first.committed, first.failed, first.unmatched,
              first.misrouted, first.targets.c_str());

  if (first.submitted != 600 || first.unmatched != 0) {
    std::fprintf(stderr, "FAIL: cluster run lost transactions (submitted=%llu unmatched=%llu)\n",
                 first.submitted, first.unmatched);
    return 1;
  }
  if (first.committed + first.failed != 600) {
    std::fprintf(stderr, "FAIL: committed+failed != workload size\n");
    return 1;
  }
  if (first.misrouted != 0) {
    std::fprintf(stderr,
                 "FAIL: shard-affine routing sent %llu submissions through the wrong "
                 "endpoint\n",
                 first.misrouted);
    return 1;
  }
  if (first.committed == 0) {
    std::fprintf(stderr, "FAIL: nothing committed through the cluster\n");
    return 1;
  }

  bool identical = first.submitted == second.submitted &&
                   first.committed == second.committed && first.failed == second.failed &&
                   first.unmatched == second.unmatched &&
                   first.misrouted == second.misrouted;
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: same seeds, different cluster runs\n"
                 "  run 2: submitted=%llu committed=%llu failed=%llu unmatched=%llu "
                 "misrouted=%llu\n",
                 second.submitted, second.committed, second.failed, second.unmatched,
                 second.misrouted);
    return 1;
  }
  std::printf("cluster scale-out: two seeded 4-endpoint runs produced identical totals\n");
  return 0;
}
