// perfbench — Hammer's benchmark: one seeded workload per invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--source-id <id>]
//
// --trace 0 sets the SUT up kSetups times (the median is setup_s), drives
// the workload once with tracing off and prints the end-to-end metrics of
// that whole drive.
// --trace 1 drives it twice, untraced then traced (spans on every channel,
// lifecycle sampling 1/64), runs the layer-cost ledger and prints the
// per-layer metrics. Every drive must pass the correctness gate; a run that
// fails it prints "correct": false, no metrics, and exits 1.
//
// The last line of stdout is the result object; everything before it is a
// human-readable run manifest. The manifest (with results) and the span log
// are also written under --out.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <exception>
#include <fstream>
#include <unordered_map>

#include "bench.hpp"
#include "core/metrics.hpp"
#include "kvstore/kvstore.hpp"
#include "minisql/database.hpp"
#include "report/run_report.hpp"
#include "telemetry/registry.hpp"
#include "util/clock.hpp"
#include "util/errors.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir;
  std::string source_id = "unknown";
};

// Outcome of one timed drive plus its correctness verdict.
struct Drive {
  core::RunResult result;
  std::size_t attempted = 0;
  std::uint64_t invalid = 0;  // contract-invalid receipts (SmallBank semantics)
  double wall_s = 0;
  double driver_cpu_s = 0;
  double sut_cpu_s = 0;
  std::size_t latency_samples = 0;  // committed txs
  // Receipts landed per second over the first-send -> last-detect envelope.
  double confirmed_tps = 0;
  // Send -> detect of committed txs, exact over the driver's records.
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  double report_build_ms = 0;
  std::uint64_t misrouted = 0;
  json::Value client_before, client_after;  // registry snapshots
  json::Value sut_before, sut_after;
  std::uint64_t drive_span = 0;
  std::vector<std::string> failures;

  double cpu_us_per_tx() const {
    return (driver_cpu_s + sut_cpu_s) * 1e6 / static_cast<double>(attempted);
  }
  std::uint64_t instrument_failures() const {
    return result.rejected + result.send_failures + result.unmatched;
  }
};

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
}

json::Value sut_snapshot(Setup& setup) {
  return setup.cluster->target(0).poll_adapter()->channel()->call("telemetry.snapshot",
                                                                  json::object({}));
}

std::uint64_t sut_misrouted(Setup& setup) {
  return static_cast<std::uint64_t>(
      setup.cluster->target(0).poll_adapter()->stats().get_int("misrouted", 0));
}

std::int64_t sql_count(const minisql::Database& db, const std::string& where) {
  minisql::ResultSet rs = db.query("SELECT COUNT(*) AS N FROM Performance" + where);
  HAMMER_CHECK(rs.rows.size() == 1 && rs.rows[0].size() == 1);
  return std::get<std::int64_t>(rs.rows[0][0]);
}

// The correctness gate: conservation, then the ledger as ground truth for
// every transaction id, then (SQL workloads) the Table II row count.
void check(Drive& d, Setup& setup, const workload::WorkloadFile& wf,
           const std::vector<core::TxRecord>& records, const std::string& server_id,
           const minisql::Database* db) {
  auto fail = [&d](std::string what) { d.failures.push_back(std::move(what)); };
  const core::RunResult& r = d.result;
  const std::size_t n = d.attempted;
  if (r.submitted != n) fail("driver registered " + std::to_string(r.submitted) + " of " +
                             std::to_string(n) + " txs");
  if (r.failed < r.rejected + r.send_failures) {
    fail("failed receipts below rejected + send_failures");
  } else {
    d.invalid = r.failed - r.rejected - r.send_failures;
  }
  if (r.committed + d.invalid + r.rejected + r.send_failures + r.unmatched != n) {
    fail("conservation: attempted != committed + invalid + rejected + send_failures + unmatched");
  }
  if (r.latency.count() != r.committed) fail("latency histogram count != committed");

  std::unordered_map<std::string, const core::TxRecord*> by_id;
  for (const core::TxRecord& rec : records) by_id.emplace(rec.tx_id, &rec);
  if (by_id.size() != n || records.size() != n) fail("driver records are not one per tx");
  std::vector<std::string> ids;
  ids.reserve(n);
  for (const chain::Transaction& tx : wf.transactions) {
    ids.push_back(driver_tx_id(tx, server_id));
  }
  adapters::ChainAdapter& ledger = *setup.cluster->target(0).poll_adapter();
  std::uint64_t on_chain_committed = 0, on_chain_invalid = 0, mismatched = 0;
  constexpr std::size_t kChunk = 4096;
  for (std::size_t first = 0; first < n; first += kChunk) {
    std::vector<std::string> chunk(ids.begin() + static_cast<std::ptrdiff_t>(first),
                                   ids.begin() + static_cast<std::ptrdiff_t>(
                                                     std::min(n, first + kChunk)));
    const auto receipts = ledger.receipts(chunk);
    for (std::size_t k = 0; k < chunk.size(); ++k) {
      auto it = by_id.find(chunk[k]);
      const core::TxRecord* rec = it == by_id.end() ? nullptr : it->second;
      if (!receipts[k]) {
        // Not on chain: the driver must not claim it landed.
        if (rec && rec->completed && rec->status == chain::TxStatus::kCommitted) ++mismatched;
        continue;
      }
      if (receipts[k]->status == chain::TxStatus::kCommitted) {
        ++on_chain_committed;
      } else {
        ++on_chain_invalid;
      }
      if (!rec || !rec->completed || rec->status != receipts[k]->status) ++mismatched;
    }
  }
  if (mismatched != 0) fail(std::to_string(mismatched) + " txs disagree with the ledger");
  if (on_chain_committed != r.committed) {
    fail("ledger committed " + std::to_string(on_chain_committed) + " != driver " +
         std::to_string(r.committed));
  }
  if (on_chain_invalid != d.invalid) fail("ledger invalid count != driver invalid count");
  if (db != nullptr) {
    const auto committed_rows = sql_count(*db, " WHERE STATUS = '1'");
    const auto rows = sql_count(*db, "");
    if (committed_rows != static_cast<std::int64_t>(r.committed)) {
      fail("Table II committed rows " + std::to_string(committed_rows) + " != committed");
    }
    if (rows != static_cast<std::int64_t>(n - r.unmatched)) {
      fail("Performance rows " + std::to_string(rows) + " != completed txs");
    }
  }
}

// Fills the drive's throughput and latency figures from the driver's
// per-tx records.
void timed_figures(Drive& d, const std::vector<core::TxRecord>& records) {
  std::int64_t first_send = INT64_MAX, last_detect = INT64_MIN;
  std::size_t landed = 0;
  std::vector<double> latencies;
  for (const core::TxRecord& rec : records) {
    first_send = std::min(first_send, rec.start_us);
    if (!rec.completed) continue;
    ++landed;
    last_detect = std::max(last_detect, rec.end_us);
    if (rec.status == chain::TxStatus::kCommitted) {
      latencies.push_back(static_cast<double>(rec.end_us - rec.start_us) / 1e3);
    }
  }
  std::sort(latencies.begin(), latencies.end());
  d.latency_samples = latencies.size();
  if (landed > 0 && last_detect > first_send) {
    d.confirmed_tps =
        static_cast<double>(landed) * 1e6 / static_cast<double>(last_detect - first_send);
  }
  d.latency_p50_ms = percentile(latencies, 50);
  d.latency_p99_ms = percentile(latencies, 99);
}

Drive drive(const WorkloadSpec& spec, Setup& setup, const workload::WorkloadFile& wf,
            std::uint64_t seed, bool traced, const std::shared_ptr<SpanLog>& spans) {
  Drive d;
  d.attempted = wf.transactions.size();
  core::DriverOptions options = driver_options(spec, seed);
  options.trace_every_n = traced ? 64 : 0;
  std::shared_ptr<minisql::Database> db;
  if (spec.sql_metrics) {
    db = std::make_shared<minisql::Database>();
    core::MetricsOptions mo;
    use_write_behind(mo);
    mo.commit_batch_size = 256;
    options.metrics = std::make_shared<core::MetricsPipeline>(
        std::make_shared<kvstore::KvStore>(util::SteadyClock::shared()), db, mo);
  }
  core::HammerDriver driver(setup.cluster, util::SteadyClock::shared(), options);

  if (traced) {
    d.client_before = telemetry::MetricRegistry::global().snapshot_json();
    d.sut_before = sut_snapshot(setup);
  }
  const std::uint64_t misrouted_before = sut_misrouted(setup);
  const double sut0 = setup.forked ? setup.forked->cpu_s() : 0;
  const double cpu0 = process_cpu_s();
  const std::int64_t w0 = now_us();
  {
    ScopedBoundary span(spans.get(), "drive");
    d.drive_span = spans ? spans->current() : 0;
    d.result = run_closed(driver, wf);
  }
  d.wall_s = static_cast<double>(now_us() - w0) / 1e6;
  d.driver_cpu_s = process_cpu_s() - cpu0;
  d.sut_cpu_s = setup.forked ? setup.forked->cpu_s() - sut0 : 0;
  d.misrouted = sut_misrouted(setup) - misrouted_before;
  if (traced) {
    d.client_after = telemetry::MetricRegistry::global().snapshot_json();
    d.sut_after = sut_snapshot(setup);
  }

  const std::vector<core::TxRecord> records = driver.task_processor()->snapshot();
  timed_figures(d, records);

  if (options.metrics) {
    ScopedBoundary span(spans.get(), "report.build");
    const std::int64_t t0 = now_us();
    report::RunReport report =
        report::RunReport::build(*options.metrics, spec.name, nullptr, &d.result.stages);
    d.report_build_ms = static_cast<double>(now_us() - t0) / 1e3;
    if (report.rendered.empty()) d.failures.push_back("RunReport rendered nothing");
  }
  check(d, setup, wf, records, options.server_id, db.get());
  return d;
}

// ------------------------------------------------------------ metric maths

double delta(const json::Value& before, const json::Value& after, const std::string& key) {
  auto get = [&key](const json::Value& v) {
    return v.is_object() && v.contains(key) && v.at(key).is_number() ? v.at(key).as_double()
                                                                      : 0.0;
  };
  return get(after) - get(before);
}

double delta_prefix(const json::Value& before, const json::Value& after,
                    const std::string& prefix) {
  double sum = 0;
  for (const auto& [key, value] : after.as_object()) {
    if (key.rfind(prefix, 0) == 0 && value.is_number()) sum += delta(before, after, key);
  }
  return sum;
}

struct HistDelta {
  std::vector<std::int64_t> bounds;
  std::vector<double> counts;
  double count = 0;
  double sum = 0;

  double mean() const { return count > 0 ? sum / count : 0; }
  // Linear interpolation inside the bucket holding the p-th percentile.
  double percentile(double p) const {
    if (count <= 0 || bounds.empty()) return 0;
    const double target = p / 100.0 * count;
    double cum = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] > 0 && cum + counts[i] >= target) {
        const double lo = i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
        const double hi = static_cast<double>(i < bounds.size() ? bounds[i] : bounds.back());
        return lo + (hi - lo) * (target - cum) / counts[i];
      }
      cum += counts[i];
    }
    return static_cast<double>(bounds.back());
  }
};

// Bucket bounds are only known for instruments of this process: with
// `local` false only count, sum and mean() are filled.
HistDelta hist_delta(const json::Value& before, const json::Value& after,
                     const std::string& key, bool local) {
  HistDelta h;
  if (!after.is_object() || !after.contains(key) || !after.at(key).is_object()) return h;
  const json::Value& a = after.at(key);
  const bool had = before.is_object() && before.contains(key) && before.at(key).is_object();
  h.count = a.at("count").as_double() - (had ? before.at(key).at("count").as_double() : 0);
  h.sum = a.at("sum").as_double() - (had ? before.at(key).at("sum").as_double() : 0);
  if (local) {
    h.bounds = telemetry::MetricRegistry::global().histogram(key).bounds();
    const json::Array& ab = a.at("buckets").as_array();
    for (std::size_t i = 0; i < ab.size(); ++i) {
      const double b = had ? before.at(key).at("buckets").as_array()[i].as_double() : 0;
      h.counts.push_back(ab[i].as_double() - b);
    }
  }
  return h;
}

// Mean of one stage of RunResult::stages (or of its "remote" split). The
// means are exact; the percentiles there are histogram bucket bounds.
double stage_mean_ms(const json::Value& stages, const std::string& group,
                     const std::string& stage) {
  const json::Value* node = &stages;
  if (!group.empty()) {
    if (!stages.is_object() || !stages.contains(group)) return 0;
    node = &stages.at(group);
  }
  if (!node->is_object() || !node->contains(stage)) return 0;
  return node->at(stage).get_double("mean_ms", 0);
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void add(Metrics& m, const std::string& name, double value, const std::string& unit) {
  m.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
}

Metrics end_to_end(const Drive& d, double setup_s, double peak_rss_mb) {
  Metrics m;
  add(m, "setup_s", setup_s, "s");
  add(m, "confirmed_tps", d.confirmed_tps, "tx/s");
  add(m, "cpu_us_per_tx", d.cpu_us_per_tx(), "us");
  add(m, "latency_p50_ms", d.latency_p50_ms, "ms");
  add(m, "latency_p99_ms", d.latency_p99_ms, "ms");
  add(m, "peak_rss_mb", peak_rss_mb, "MB");
  return m;
}

Metrics per_layer(const WorkloadSpec& spec, const Drive& u, const Drive& t,
                  const std::map<std::string, double>& ledger, const SpanLog& spans) {
  Metrics m;
  const double n = static_cast<double>(t.attempted);
  const json::Value& cb = t.client_before;
  const json::Value& ca = t.client_after;
  const json::Value& sb = t.sut_before;
  const json::Value& sa = t.sut_after;

  for (const auto& [name, value] : ledger) add(m, name, value, "us");

  // core.driver / core.load_controller
  const HistDelta sign = hist_delta(cb, ca, "hammer_driver_sign_us", true);
  const HistDelta submit = hist_delta(cb, ca, "hammer_driver_submit_us", true);
  const HistDelta batch = hist_delta(cb, ca, "hammer_driver_batch_txs", true);
  add(m, "driver.sign_us_p50", sign.percentile(50), "us");
  add(m, "driver.submit_us_p50", submit.percentile(50), "us");
  add(m, "driver.submit_us_p99", submit.percentile(99), "us");
  add(m, "driver.batch_txs_mean", batch.mean(), "count");
  add(m, "driver.retries", static_cast<double>(t.result.retries), "count");
  add(m, "driver.offered_rate", t.result.offered_rate, "tx/s");
  add(m, "driver.offered_ratio",
      t.result.target_rate > 0 ? t.result.offered_rate / t.result.target_rate : 0, "ratio");
  add(m, "driver.failed_ratio", static_cast<double>(t.instrument_failures()) / n, "ratio");

  // rpc
  std::size_t frames = 0;
  for (const Span& s : spans.spans()) {
    if (s.parent == t.drive_span && s.request != 0) ++frames;
  }
  add(m, "rpc.client_calls_per_tx", static_cast<double>(frames) / n, "count");
  add(m, "rpc.client_bytes_sent_per_tx",
      delta(cb, ca, "hammer_rpc_client_bytes_total{dir=\"sent\"}") / n, "B");
  add(m, "rpc.client_bytes_recv_per_tx",
      delta(cb, ca, "hammer_rpc_client_bytes_total{dir=\"recv\"}") / n, "B");
  add(m, "rpc.server_requests_per_tx",
      spec.fork_sut ? delta(sb, sa, "hammer_rpc_server_requests_total") / n : 0, "count");

  // core.sut_cluster
  const double polled = delta_prefix(cb, ca, "hammer_cluster_polled_blocks_total");
  add(m, "cluster.polled_blocks_per_s", polled / t.wall_s, "1/s");
  add(m, "cluster.misrouted", static_cast<double>(t.misrouted), "count");
  double share_max = 0;
  for (const json::Value& target : t.result.targets.as_array()) {
    share_max = std::max(share_max, target.at("submitted").as_double() / n);
  }
  add(m, "cluster.target_share_max", share_max, "ratio");

  // core.task_processor (ledger figures are above)
  add(m, "taskproc.probe_steps_per_tx",
      delta(cb, ca, "hammer_taskproc_index_probe_steps_total") / n, "count");
  add(m, "taskproc.matched_ratio", delta(cb, ca, "hammer_taskproc_matched_total") / n, "ratio");
  add(m, "taskproc.bloom_rejected_per_block",
      polled > 0 ? delta(cb, ca, "hammer_taskproc_bloom_rejected_total") / polled : 0, "count");
  add(m, "taskproc.duplicates", delta(cb, ca, "hammer_taskproc_duplicates_total"), "count");

  // chain (the SUT's registry: the child's for a forked SUT, ours otherwise)
  const json::Value& chain_b = spec.fork_sut ? sb : cb;
  const json::Value& chain_a = spec.fork_sut ? sa : ca;
  add(m, "chain.block_txs_mean",
      hist_delta(chain_b, chain_a, "hammer_chain_block_txs", false).mean(), "count");
  add(m, "chain.blocks_sealed_per_s",
      delta(chain_b, chain_a, "hammer_chain_blocks_sealed_total") / t.wall_s, "1/s");
  add(m, "chain.invalid_ratio", static_cast<double>(t.invalid) / n, "ratio");
  add(m, "chain.sut_cpu_us_per_tx", t.sut_cpu_s * 1e6 / n, "us");

  // core.metrics / kvstore / minisql / report
  const double flushes = delta(cb, ca, "hammer_store_flushes_total");
  add(m, "store.flushes", flushes, "count");
  add(m, "store.rows_per_flush",
      flushes > 0 ? delta(cb, ca, "hammer_store_rows_committed_total") / flushes : 0, "count");
  add(m, "store.flush_us_p50",
      spec.sql_metrics ? hist_delta(cb, ca, "hammer_store_flush_duration_us", true).percentile(50)
                       : 0,
      "us");
  add(m, "store.rows_dropped", delta(cb, ca, "hammer_store_rows_dropped_total"), "count");
  add(m, "report.build_ms", t.report_build_ms, "ms");

  // Lifecycle stages (sampled 1/64) and the stitched server-side split.
  for (const char* stage : {"sign", "queue", "submit", "include", "detect"}) {
    add(m, std::string("stage.") + stage + "_mean_ms", stage_mean_ms(t.result.stages, "", stage),
        "ms");
  }
  for (const char* stage : {"net_send", "server_queue", "execute", "net_recv"}) {
    add(m, std::string("remote.") + stage + "_mean_ms",
        stage_mean_ms(t.result.stages, "remote", stage), "ms");
  }

  // Span self times at each boundary.
  const std::map<std::string, double> self = spans.self_ms_by_name();
  const std::map<std::string, double> total = spans.total_ms_by_name();
  auto ms = [](const std::map<std::string, double>& by, const std::string& name) {
    auto it = by.find(name);
    return it == by.end() ? 0.0 : it->second;
  };
  add(m, "span.deploy_self_ms", ms(self, "setup.deploy"), "ms");
  add(m, "span.generate_self_ms", ms(self, "setup.generate"), "ms");
  add(m, "span.connect_self_ms", ms(self, "setup.connect"), "ms");
  add(m, "span.drive_self_ms", ms(self, "drive"), "ms");
  add(m, "span.rpc_submit_us_per_tx", ms(total, "rpc.chain.submit") * 1e3 / n, "us");
  add(m, "span.rpc_poll_us_per_block",
      polled > 0 ? (ms(total, "rpc.chain.height") + ms(total, "rpc.chain.block")) * 1e3 / polled
                 : 0,
      "us");
  add(m, "trace.spans", static_cast<double>(spans.spans().size()), "count");
  add(m, "trace.cpu_us_per_tx_traced", t.cpu_us_per_tx(), "us");
  add(m, "trace.cpu_us_per_tx_untraced", u.cpu_us_per_tx(), "us");
  add(m, "trace.overhead_ratio", t.cpu_us_per_tx() / u.cpu_us_per_tx(), "ratio");

  // Ledger closure: the untraced end-to-end CPU per tx against the layer
  // costs times the per-tx call counts visible from outside.
  auto l = [&ledger](const std::string& name) {
    auto it = ledger.find(name);
    return it == ledger.end() ? 0.0 : it->second;
  };
  const double b = std::max(1.0, batch.mean());
  auto frame_cost = [b](double c1, double c64) { return c1 + (b - 1) * (c64 - c1) / 63.0; };
  const double rpc_per_tx =
      (spec.fork_sut ? frame_cost(l("rpc.tcp_rtt_cpu_us.b1"), l("rpc.tcp_rtt_cpu_us.b64"))
                     : frame_cost(l("rpc.inproc_rtt_us.b1"), l("rpc.inproc_rtt_us.b64"))) /
      b;
  const double layer_sum = l("signing.keycache_get_us") + l("signing.sign_us") +
                           l("chain.compute_id_us") + l("chain.tx_to_json_us") + rpc_per_tx +
                           l("chain.tx_from_json_us") + l("chain.verify_us") +
                           l("taskproc.register_us") + l("taskproc.on_block_us_per_receipt") +
                           (spec.sql_metrics ? l("metrics.push_us_per_record") : 0.0);
  add(m, "ledger.client_cpu_us_per_tx", u.driver_cpu_s * 1e6 / static_cast<double>(u.attempted),
      "us");
  add(m, "ledger.rpc_us_per_tx", rpc_per_tx, "us");
  add(m, "ledger.layer_sum_us_per_tx", layer_sum, "us");
  add(m, "ledger.residual_us_per_tx", u.cpu_us_per_tx() - layer_sum, "us");
  return m;
}

// ----------------------------------------------------------------- output

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string result_line(bool correct, std::size_t attempted, std::uint64_t failed,
                        const Metrics& metrics) {
  std::string s = "{\"correct\": " + std::string(correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, vu] = metrics[i];
    s += (i ? ", \"" : "\"") + name + "\": {\"value\": " + fmt(vu.first) + ", \"unit\": \"" +
         vu.second + "\"}";
  }
  return s + "}}";
}

json::Value metrics_json(const Metrics& metrics) {
  json::Object o;
  for (const auto& [name, vu] : metrics) o[name] = vu.first;
  return json::Value(std::move(o));
}

json::Value drive_json(const Drive& d) {
  json::Array failures;
  for (const std::string& f : d.failures) failures.push_back(f);
  return json::object({{"attempted", static_cast<std::uint64_t>(d.attempted)},
                       {"committed", d.result.committed},
                       {"invalid", d.invalid},
                       {"rejected", d.result.rejected},
                       {"send_failures", d.result.send_failures},
                       {"unmatched", d.result.unmatched},
                       {"latency_samples", static_cast<std::uint64_t>(d.latency_samples)},
                       {"wall_s", d.wall_s},
                       {"driver_cpu_s", d.driver_cpu_s},
                       {"sut_cpu_s", d.sut_cpu_s},
                       {"gate_failures", json::Value(std::move(failures))}});
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>] [--source-id <id>]\nworkloads:",
               why);
  for (const WorkloadSpec& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") a.workload = value;
      else if (key == "--seed") a.seed = std::stoull(value);
      else if (key == "--seconds") a.seconds = std::stod(value);
      else if (key == "--trace") a.trace = std::stoi(value);
      else if (key == "--out") a.out_dir = value;
      else if (key == "--source-id") a.source_id = value;
      else usage(("unknown argument " + key).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0 && a.seconds <= 60)) usage("--seconds must be in (0, 60]");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

const char* build_refusal() {
#if !defined(NDEBUG)
  return "assertions are enabled (not an optimized build)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  const std::string type = PERFBENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo" ? nullptr : "not a Release build";
#endif
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) usage(("unknown workload " + args.workload).c_str());
  if (const char* why = build_refusal()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", why);
    return 2;
  }
  const auto nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  json::Value driver_json = spec->driver;
  driver_json["load_seed"] = args.seed;
  driver_json["trace_every_n"] = args.trace ? 64 : 0;
  json::Value manifest = json::object({{"workload", spec->name},
                                       {"why", spec->why},
                                       {"seed", args.seed},
                                       {"seconds", args.seconds},
                                       {"trace", args.trace},
                                       {"source", args.source_id},
                                       {"build_type", PERFBENCH_BUILD_TYPE},
                                       {"nproc", static_cast<std::int64_t>(nproc)},
                                       {"chain", chain_spec(*spec, args.seed)},
                                       {"driver", driver_json},
                                       {"sut", spec->fork_sut ? "forked, tcp" : "in-process"},
                                       {"sql_metrics", spec->sql_metrics}});
  std::printf("manifest %s\n", manifest.dump().c_str());

  Metrics metrics;
  std::vector<Drive> drives;  // every drive of the run, all gated
  std::shared_ptr<SpanLog> spans;
  if (args.trace == 0) {
    constexpr int kSetups = 7;  // setup_s is the median of these
    std::vector<double> setup_s;
    std::unique_ptr<Setup> setup;
    for (int k = 0; k < kSetups; ++k) {
      setup.reset();
      setup = set_up(*spec, args.seed, args.seconds, nullptr);
      setup_s.push_back(setup->seconds);
    }
    drives.push_back(drive(*spec, *setup, setup->workload, args.seed, false, nullptr));
    const double rss = peak_rss_mb_self() + (setup->forked ? setup->forked->peak_rss_mb() : 0);
    metrics = end_to_end(drives[0], median(setup_s), rss);
    for (const auto& [name, value_unit] : metrics) {
      if (!(value_unit.first > 0)) drives[0].failures.push_back(name + " is not positive");
    }
    json::Array setups;
    for (double s : setup_s) setups.push_back(s);
    manifest["setup_samples_s"] = json::Value(std::move(setups));
  } else {
    {
      std::unique_ptr<Setup> setup = set_up(*spec, args.seed, args.seconds, nullptr);
      drives.push_back(drive(*spec, *setup, setup->workload, args.seed, false, nullptr));
    }
    spans = std::make_shared<SpanLog>();
    LedgerInput in;
    {
      std::unique_ptr<Setup> setup = set_up(*spec, args.seed, args.seconds, spans);
      drives.push_back(drive(*spec, *setup, setup->workload, args.seed, true, spans));
      constexpr std::size_t kLedgerTxs = 8192;
      const auto& txs = setup->workload.transactions;
      in.txs.assign(txs.begin(), txs.begin() + static_cast<std::ptrdiff_t>(
                                                    std::min(kLedgerTxs, txs.size())));
      in.accounts = setup->forked ? setup->forked->accounts()
                                  : setup->deployment->at("sut").smallbank_accounts;
    }
    const Drive& untraced = drives[0];
    const Drive& traced = drives[1];
    in.spec = spec;
    in.seed = args.seed;
    const json::Value& chain_b = spec->fork_sut ? traced.sut_before : traced.client_before;
    const json::Value& chain_a = spec->fork_sut ? traced.sut_after : traced.client_after;
    in.block_txs_mean = hist_delta(chain_b, chain_a, "hammer_chain_block_txs", false).mean();
    const std::map<std::string, double> ledger = measure_ledger(in);
    metrics = per_layer(*spec, untraced, traced, ledger, *spans);
  }

  bool correct = true;
  std::size_t attempted = 0;
  std::uint64_t failed = 0;
  json::Array drive_records;
  for (const Drive& d : drives) {
    for (const std::string& f : d.failures) {
      std::printf("GATE FAILED: %s\n", f.c_str());
      correct = false;
    }
    attempted += d.attempted;
    failed += d.instrument_failures();
    drive_records.push_back(drive_json(d));
  }
  manifest["drives"] = json::Value(std::move(drive_records));
  manifest["correct"] = correct;
  manifest["metrics"] = metrics_json(metrics);
  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + spec->name + "-seed" +
                             std::to_string(args.seed) + "-trace" + std::to_string(args.trace);
    std::ofstream(stem + ".manifest.json", std::ios::trunc) << manifest.dump(2) << "\n";
    if (spans && !spans->write_json(stem + ".spans.json")) {
      std::fprintf(stderr, "perfbench: could not write %s.spans.json\n", stem.c_str());
    }
  }
  std::printf("checks %s over %zu drives: conservation, ledger sweep of %zu ids%s\n",
              correct ? "passed" : "FAILED", drives.size(), attempted,
              spec->sql_metrics ? ", Table II rows" : "");
  std::printf("%s\n",
              result_line(correct, attempted, failed, correct ? metrics : Metrics{}).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
