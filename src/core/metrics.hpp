// Metrics pipeline (paper Fig. 2 right half): the driver's vector-list
// state is pushed into the Redis-like cache as hashes ("the server pushes
// the initialized vector list to the Redis cluster ... the driver will
// regularly update the vector list"), and a committer drains the cache into
// the MySQL-like Performance table that the visualization layer queries
// with the Table II SQL.
//
// Two commit modes:
//   - legacy synchronous (write_behind = false): push_records() caches
//     everything, commit_to_sql() scans the whole cache once at run end —
//     the original row-at-a-time path, kept as the equivalence oracle.
//   - write-behind (write_behind = true): completed records are marked
//     dirty as they are pushed and a StoreCommitter drains them into
//     batched inserts on a background thread, so latency samples land in
//     SQL at cluster rate instead of piling up for a run-end scan. Pending
//     (incomplete) records carry a TTL and age out of the cache.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/store_committer.hpp"
#include "core/task_processor.hpp"
#include "kvstore/kvstore.hpp"
#include "minisql/database.hpp"
#include "util/histogram.hpp"

namespace hammer::core {

// Table II statements, verbatim modulo dialect (see minisql/parser.hpp).
extern const char* const kTpsSql;
extern const char* const kLatencySql;

struct MetricsOptions {
  // Enables the write-behind committer path.
  bool write_behind = false;
  // Committer flush policy (see StoreCommitter::Options).
  std::size_t commit_batch_size = 256;
  util::Duration flush_interval = std::chrono::milliseconds(50);
  // TTL armed on records cached before completion; a record that never
  // completes ages out of the cache instead of leaking. zero() = no expiry
  // (legacy behaviour).
  util::Duration pending_ttl = util::Duration::zero();
};

class MetricsPipeline {
 public:
  MetricsPipeline(std::shared_ptr<kvstore::KvStore> cache,
                  std::shared_ptr<minisql::Database> db, MetricsOptions options = {});

  bool write_behind() const { return options_.write_behind; }

  // Driver -> cache: writes/updates one hash per record ("perf:<tx_id>").
  // Only completed records carry an end_time. In write-behind mode completed
  // records are marked dirty for the committer (dirty-set overflow drops the
  // row and counts it) and incomplete ones get the pending TTL.
  void push_records(std::span<const TxRecord> records);

  // Cache -> SQL, legacy synchronous path: scans the cache, inserts
  // completed records row-at-a-time and removes them. Returns rows
  // committed.
  std::size_t commit_to_sql();

  // Write-behind controls (no-ops when write_behind is off).
  void start_committer();
  std::size_t flush();           // synchronous drain of everything dirty
  std::size_t flush_and_stop();  // graceful end-of-run drain

  // Completed rows dropped because a shard's dirty set was full.
  std::uint64_t rows_dropped() const;
  std::uint64_t rows_committed() const;

  // Table II queries against the committed table.
  std::int64_t query_tps() const;
  minisql::ResultSet query_latencies() const;

  const std::shared_ptr<minisql::Database>& database() const { return db_; }

 private:
  std::shared_ptr<kvstore::KvStore> cache_;
  std::shared_ptr<minisql::Database> db_;
  MetricsOptions options_;
  std::unique_ptr<StoreCommitter> committer_;  // write-behind mode only
  std::atomic<std::uint64_t> rows_dropped_{0};
};

// Run-level summary computed from the vector list.
struct RunResult {
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t failed = 0;       // invalid/conflict receipts
  std::uint64_t rejected = 0;     // refused at submission (overload)
  std::uint64_t unmatched = 0;    // never appeared in a block before drain
  std::uint64_t retries = 0;        // RPC attempts beyond the first (this run)
  std::uint64_t send_failures = 0;  // txs written off after retry exhaustion
  double duration_s = 0.0;        // first send -> last commit
  double tps = 0.0;               // committed / duration
  util::Histogram latency;        // committed transactions only

  // Closed-loop rate accounting (DESIGN.md §14). target_rate is the
  // controller's setting at run end (0 = open loop); offered_rate is what
  // the pacing gate actually released per second of the send window;
  // achieved_rate mirrors tps (committed per second of the run envelope).
  // The offered/achieved gap is the saturation signal SaturationSearch
  // ramps against.
  double target_rate = 0.0;
  double offered_rate = 0.0;
  double achieved_rate = 0.0;

  // Run wall-clock envelope in the producing process's microsecond clock:
  // earliest send and latest commit observed. Zero when the run had no
  // records. merge_run_results() spans the merged duration from these, so a
  // coordinator must shift them into its own clock domain (ClockOffset)
  // before merging results from remote workers.
  std::int64_t first_start_us = 0;
  std::int64_t last_end_us = 0;

  // Per-stage latency breakdown (sign/queue/submit/include/detect) from the
  // lifecycle tracer; null unless the run was traced (trace_every_n > 0).
  json::Value stages;

  // Injected-fault counts by kind, snapshotted from the run's FaultInjector;
  // null when the run had no DriverOptions::fault_injector.
  json::Value faults;

  // Per-cluster-target deltas for this run (array of {target, submitted,
  // completed, shards}); a single-endpoint cluster gets a one-entry
  // array.
  json::Value targets;

  // ShardedTaskProcessor stats (per-shard registered/pending/probe_steps +
  // merged totals); null for non-Hammer tracking modes.
  json::Value processor;

  json::Value to_json() const;
  std::string summary() const;

  // Lossless wire round-trip for the control plane (control.report): unlike
  // the display-oriented to_json(), this carries the full latency histogram
  // (sparse non-zero buckets) and the clock envelope, so a coordinator can
  // rebuild the exact RunResult and merge it bin-wise.
  json::Value to_wire_json() const;
  static RunResult from_wire_json(const json::Value& v);
};

RunResult summarize(std::span<const TxRecord> records);

// Merges per-shard RunResults into the result the single process driving
// the whole workload would have produced: counts sum exactly, latency
// histograms merge bin-wise, the duration spans min(first_start_us) to
// max(last_end_us) and tps is recomputed from it. Fault counts (by kind)
// sum; `targets` concatenates with a "worker" tag per entry; stages and
// processor stay null (per-worker detail lives in the per-worker reports).
// Parts must share one clock domain — normalize remote timestamps first.
RunResult merge_run_results(std::span<const RunResult> parts);

}  // namespace hammer::core
