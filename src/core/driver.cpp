#include "core/driver.hpp"

#include <algorithm>
#include <fstream>

#include "telemetry/registry.hpp"
#include "util/errors.hpp"
#include "util/logging.hpp"

namespace hammer::core {

namespace {
// Driver-side series: the live view of the load generator itself. The
// in-flight gauge is the difference between accepted submissions and
// completions observed in blocks, so a mid-run scrape shows backpressure.
struct DriverMetrics {
  telemetry::Counter& submitted;
  telemetry::Counter& completed;
  telemetry::Counter& rejected;
  telemetry::Counter& send_failures;
  telemetry::Gauge& inflight;
  telemetry::Gauge& offered_rate;
  telemetry::Gauge& achieved_rate;
  telemetry::StageHistogram& sign_us;
  telemetry::StageHistogram& submit_us;
  telemetry::StageHistogram& batch_txs;

  static DriverMetrics& get() {
    static DriverMetrics metrics;
    return metrics;
  }

 private:
  DriverMetrics()
      : submitted(reg().counter("hammer_driver_submitted_total",
                                "Transactions handed to the chain adapter")),
        completed(reg().counter("hammer_driver_completed_total",
                                "Transactions observed complete in blocks or receipts")),
        rejected(reg().counter("hammer_driver_rejected_total",
                               "Submissions refused by the SUT (overload)")),
        send_failures(reg().counter("hammer_driver_send_failures_total",
                                    "Transactions failed after the retry policy was exhausted")),
        inflight(reg().gauge("hammer_driver_inflight",
                             "Accepted transactions not yet observed in a block")),
        offered_rate(reg().gauge("hammer_driver_offered_rate",
                                 "Send rate the load controller released, tx/s")),
        achieved_rate(reg().gauge("hammer_driver_achieved_rate",
                                  "Commit rate observed over the run window, tx/s")),
        sign_us(reg().histogram("hammer_driver_sign_us",
                                "Per-transaction signing latency (pipelined feeder)")),
        submit_us(reg().histogram("hammer_driver_submit_us",
                                  "Submission round-trip latency per worker send")),
        batch_txs(reg().histogram("hammer_driver_batch_txs",
                                  "Transactions coalesced per worker send", "",
                                  {1, 2, 4, 8, 16, 32, 64, 128, 256})) {}

  static telemetry::MetricRegistry& reg() { return telemetry::MetricRegistry::global(); }
};

// Gauges only expose add/sub; rate gauges are set by delta so the sharded
// scrape sums land on the new value.
void set_gauge(telemetry::Gauge& gauge, std::int64_t value) {
  gauge.add(value - gauge.value());
}

// Split `total` workers over `targets`, at least one each.
std::vector<std::size_t> split_workers(std::size_t total, std::size_t targets) {
  std::vector<std::size_t> out(targets, total / targets);
  for (std::size_t i = 0; i < total % targets; ++i) ++out[i];
  for (std::size_t& n : out) n = std::max<std::size_t>(1, n);
  return out;
}
}  // namespace

namespace {

const char* const kKnownDriverOptionKeys[] = {
    "worker_threads", "submit_batch_size", "routing",       "drain_timeout_ms",
    "poll_interval_ms", "task_shards",     "pipelined_signing", "trace_every_n",
    "channels_per_target", "target_rate",  "rate_burst",    "load_seed"};

}  // namespace

bool is_known_driver_option_key(const std::string& key) {
  return std::any_of(std::begin(kKnownDriverOptionKeys), std::end(kKnownDriverOptionKeys),
                     [&](const char* k) { return key == k; });
}

DriverOptions driver_options_from_json(const json::Value& v,
                                       std::size_t* channels_per_target) {
  DriverOptions options;
  std::size_t channels = 2;
  if (!v.is_null()) {
    for (const auto& [key, value] : v.as_object()) {
      (void)value;
      if (!is_known_driver_option_key(key)) {
        throw ParseError("unknown driver option key '" + key + "'");
      }
    }
    options.worker_threads = static_cast<std::size_t>(v.get_int("worker_threads", 2));
    options.submit_batch_size = static_cast<std::size_t>(v.get_int("submit_batch_size", 1));
    options.routing = routing_kind_from_string(v.get_string("routing", "round_robin"));
    options.drain_timeout = std::chrono::milliseconds(v.get_int("drain_timeout_ms", 20000));
    options.poll_interval = std::chrono::milliseconds(v.get_int("poll_interval_ms", 25));
    options.task_processor.shards = static_cast<std::size_t>(v.get_int("task_shards", 1));
    options.pipelined_signing = v.get_bool("pipelined_signing", true);
    options.trace_every_n = static_cast<std::uint64_t>(v.get_int("trace_every_n", 0));
    channels = static_cast<std::size_t>(v.get_int("channels_per_target", 2));
    options.target_rate = v.get_double("target_rate", 0.0);
    options.rate_burst = v.get_double("rate_burst", options.rate_burst);
    options.load_seed = static_cast<std::uint64_t>(
        v.get_int("load_seed", static_cast<std::int64_t>(options.load_seed)));
    if (options.worker_threads < 1) throw ParseError("driver.worker_threads must be >= 1");
    if (options.submit_batch_size < 1) throw ParseError("driver.submit_batch_size must be >= 1");
    if (options.target_rate < 0.0) throw ParseError("driver.target_rate must be >= 0");
  }
  if (channels_per_target != nullptr) *channels_per_target = channels;
  return options;
}

HammerDriver::HammerDriver(std::shared_ptr<SutCluster> cluster,
                           std::shared_ptr<util::Clock> clock, DriverOptions options)
    : cluster_(std::move(cluster)), clock_(std::move(clock)), options_(std::move(options)) {
  HAMMER_CHECK(cluster_ != nullptr);
  HAMMER_CHECK(clock_ != nullptr);
  HAMMER_CHECK(options_.worker_threads >= 1);
  load_ = options_.load;
  HAMMER_CHECK_MSG(!load_ || options_.rate_plan.num_slices() == 0,
                   "a rate_plan paces the driver's own controller; leave DriverOptions::load null");
  if (!load_) {
    LoadOptions load_options;
    load_options.rate = options_.target_rate;
    load_options.plan = options_.rate_plan;
    load_options.burst = options_.rate_burst;
    load_options.seed = options_.load_seed;
    load_ = std::make_shared<LoadController>(load_options, clock_);
  }
  if (options_.client_vcpus > 0) {
    HAMMER_CHECK(options_.client_vcpus <= 64);
    client_cores_ = std::make_unique<std::counting_semaphore<64>>(options_.client_vcpus);
  }
}

void HammerDriver::charge_client_cpu() {
  if (!client_cores_ || options_.per_tx_client_us <= 0) return;
  // Serialize per-tx client work over the modeled cores.
  client_cores_->acquire();
  std::int64_t work = options_.per_tx_client_us;
  // Oversubscription overhead: every thread beyond the core count adds
  // context-switch cost to each transaction's client-side work.
  if (options_.worker_threads > options_.client_vcpus) {
    work += options_.switch_penalty_us *
            static_cast<std::int64_t>(options_.worker_threads - options_.client_vcpus);
  }
  clock_->sleep_for(std::chrono::microseconds(work));
  client_cores_->release();
}

bool HammerDriver::route_and_push(std::vector<std::unique_ptr<SendQueue>>& queues,
                                  RoutingPolicy& policy, SendQueueItem item) {
  std::size_t t = policy.route(item.tx, *cluster_);
  // Charged at push, not at send: least_inflight must see the queued
  // backlog, or every decision happens against an empty-looking cluster.
  cluster_->target(t).add_in_flight(1);
  if (!queues[t]->push(std::move(item))) {
    cluster_->target(t).sub_in_flight(1);
    return false;
  }
  return true;
}

void HammerDriver::worker_loop(SutTarget& target, std::size_t slot, SendQueue& queue) {
  adapters::ChainAdapter& adapter = target.worker_adapter(slot);
  const std::string& chainname = adapter.info().name;
  const std::size_t batch_limit = std::max<std::size_t>(1, options_.submit_batch_size);
  DriverMetrics& metrics = DriverMetrics::get();
  std::vector<chain::Transaction> batch;
  std::vector<std::string> tx_ids;
  std::vector<std::uint64_t> ordinals;
  batch.reserve(batch_limit);
  tx_ids.reserve(batch_limit);
  ordinals.reserve(batch_limit);

  // Counts a refusal; in-flight accounting is handled per mode because only
  // some modes remove a rejected tx from the pending set.
  auto reject = [this, &metrics](std::uint64_t count) {
    rejections_.fetch_add(count);
    metrics.rejected.add(count);
    HLOG_EVERY_N("driver", 100) << "SUT rejected a submission ("
                                << rejections_.load() << " total this run)";
  };
  // A TransportError here means the adapter's retry policy is exhausted (or
  // retries are off): the whole send is written off as failed and the run
  // keeps going — graceful degradation, never an aborted run.
  auto send_failed = [this, &metrics](std::uint64_t count, const char* what) {
    send_failures_.fetch_add(count);
    metrics.send_failures.add(count);
    HLOG_EVERY_N("driver", 100) << "send failed after retries (" << count
                                << " txs written off): " << what;
  };

  auto take = [&](SendQueueItem& item) {
    batch.push_back(std::move(item.tx));
    tx_ids.push_back(std::move(item.tx_id));
    ordinals.push_back(item.ordinal);
  };
  while (auto first = queue.pop()) {
    batch.clear();
    tx_ids.clear();
    ordinals.clear();
    take(*first);
    // Fill the batch up to the configured size — one JSON-RPC batch frame
    // instead of N round trips. Blocking until it is full (or the queue
    // closes) makes the frame count a function of the workload alone, not
    // of how far the feeder happened to be ahead, so seeded per-frame
    // fault draws replay exactly. start_us is stamped after the fill.
    while (batch.size() < batch_limit) {
      auto more = queue.pop();
      if (!more) break;
      take(*more);
    }
    // The one pacing gate: one token per transaction before the send leaves
    // (a batch leaves when its last member's token is due). Open-loop
    // controllers return immediately, but still stamp the release window so
    // offered_rate is measured on every run.
    load_->acquire(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) charge_client_cpu();

    // One trace per batch frame: if any member is sampled, the whole frame
    // carries a fresh trace id and every sampled member stitches under it.
    telemetry::TraceContext trace_ctx;
    if (merger_) {
      for (std::uint64_t ordinal : ordinals) {
        if (tracer_->sampled(ordinal)) {
          trace_ctx.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
          trace_ctx.span_id = trace_ctx.trace_id;  // synthetic client-root span
          break;
        }
      }
    }
    std::int64_t start_us = clock_->now_us();
    metrics.submitted.add(batch.size());
    metrics.inflight.add(batch.size());
    metrics.batch_txs.record(static_cast<std::int64_t>(batch.size()));

    switch (options_.mode) {
      case TrackingMode::kHammer: {
        // Register BEFORE submitting so the poller can never observe the
        // block before the index knows the id.
        std::vector<std::size_t> positions(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
          positions[i] = task_processor_->register_tx(tx_ids[i], start_us, batch[i].client_id,
                                                      batch[i].server_id, chainname,
                                                      batch[i].contract, ordinals[i]);
        }
        try {
          auto results = adapter.submit_batch(batch, tx_ids, trace_ctx);
          for (std::size_t i = 0; i < results.size(); ++i) {
            if (results[i].ok()) continue;
            reject(1);
            metrics.inflight.sub(1);
            task_processor_->mark_rejected(positions[i], clock_->now_us());
          }
        } catch (const TransportError& e) {
          send_failed(batch.size(), e.what());
          metrics.inflight.sub(batch.size());
          // Mark every registered position failed; if an in-doubt entry did
          // land, on_block's completed-guard absorbs the duplicate.
          for (std::size_t i = 0; i < batch.size(); ++i) {
            task_processor_->mark_rejected(positions[i], clock_->now_us());
          }
        }
        break;
      }
      case TrackingMode::kBatchQueue: {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          batch_processor_->register_tx(tx_ids[i], start_us);
        }
        try {
          // The baseline has no O(1) lookup; rejected ids simply rot in the
          // queue (a real Blockbench driver behaves the same way).
          for (const auto& r : adapter.submit_batch(batch, tx_ids, trace_ctx)) {
            if (!r.ok()) reject(1);
          }
        } catch (const TransportError& e) {
          // Same as rejections: the baseline's queue has no removal path, so
          // the ids rot and surface as unmatched.
          send_failed(batch.size(), e.what());
        }
        break;
      }
      case TrackingMode::kInteractive: {
        std::vector<bool> accepted(batch.size(), false);
        bool transport_failed = false;
        try {
          auto results = adapter.submit_batch(batch, tx_ids, trace_ctx);
          for (std::size_t i = 0; i < results.size(); ++i) accepted[i] = results[i].ok();
        } catch (const TransportError& e) {
          send_failed(batch.size(), e.what());
          transport_failed = true;
        }
        std::scoped_lock lock(interactive_mu_);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (transport_failed) {
            // Written off: completes immediately as invalid so the listener
            // never waits on a receipt that cannot arrive.
            metrics.inflight.sub(1);
            CompletedTx done;
            done.tx_id = tx_ids[i];
            done.start_us = start_us;
            done.end_us = clock_->now_us();
            done.status = chain::TxStatus::kInvalid;
            interactive_completed_.push_back(std::move(done));
          } else if (accepted[i]) {
            // Hand the transaction to the listener (Caliper-style response
            // monitoring); sending continues without waiting.
            interactive_pending_.push_back(InteractivePending{tx_ids[i], start_us});
          } else {
            reject(1);
            metrics.inflight.sub(1);
            CompletedTx done;
            done.tx_id = tx_ids[i];
            done.start_us = start_us;
            done.end_us = clock_->now_us();
            done.status = chain::TxStatus::kInvalid;
            interactive_completed_.push_back(std::move(done));
          }
        }
        break;
      }
    }
    // Submit stage done for this batch: the target's routed backlog shrinks
    // whether the SUT accepted, rejected, or the send was written off.
    target.count_submitted(batch.size());
    target.sub_in_flight(batch.size());
    std::int64_t send_done_us = clock_->now_us();
    metrics.submit_us.record(send_done_us - start_us);
    if (tracer_) {
      for (std::uint64_t ordinal : ordinals) {
        if (!tracer_->sampled(ordinal)) continue;
        tracer_->record(ordinal, telemetry::Stage::kSubmitted, send_done_us);
        if (merger_ && trace_ctx.sampled()) {
          merger_->note_submit(telemetry::SubmitTrace{ordinal, trace_ctx.trace_id, start_us,
                                                      send_done_us, adapter.target_index()});
        }
      }
    }
  }
}

void HammerDriver::listener_loop() {
  // Interactive testing (paper §II-C2): every transaction is monitored
  // individually. The per-transaction bookkeeping (the "significant
  // resource wastage" the paper attributes to Caliper-style frameworks)
  // remains; the wire cost is one chain.receipts RPC per poll tick — or,
  // with interactive_per_tx_poll, one RPC per pending transaction per tick
  // (the faithful modeled-Caliper baseline). Poll adapters rotate across
  // cluster targets so a multi-endpoint SUT shares the polling load.
  std::uint64_t tick = 0;
  while (!stop_polling_.load()) {
    adapters::ChainAdapter& poll_adapter =
        *cluster_->target(tick++ % cluster_->size()).poll_adapter();
    std::vector<InteractivePending> snapshot;
    {
      std::scoped_lock lock(interactive_mu_);
      snapshot.assign(interactive_pending_.begin(), interactive_pending_.end());
    }
    if (snapshot.empty()) {
      clock_->sleep_for(options_.interactive_poll);
      continue;
    }
    std::vector<std::optional<adapters::ChainAdapter::ReceiptInfo>> receipts;
    if (options_.interactive_per_tx_poll) {
      // One chain.receipts round trip PER pending transaction.
      receipts.reserve(snapshot.size());
      bool poll_failed = false;
      for (const InteractivePending& pending : snapshot) {
        try {
          receipts.push_back(poll_adapter.tx_receipt(pending.tx_id));
        } catch (const Error& e) {
          HLOG_WARN("driver") << "receipt poll failed: " << e.what();
          poll_failed = true;
          break;
        }
      }
      if (poll_failed) {
        clock_->sleep_for(options_.interactive_poll);
        continue;
      }
    } else {
      std::vector<std::string> ids;
      ids.reserve(snapshot.size());
      for (const InteractivePending& pending : snapshot) ids.push_back(pending.tx_id);
      try {
        receipts = poll_adapter.receipts(ids);
      } catch (const Error& e) {
        HLOG_WARN("driver") << "receipt poll failed: " << e.what();
        clock_->sleep_for(options_.interactive_poll);
        continue;
      }
    }
    std::vector<std::pair<std::string, CompletedTx>> done;
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
      if (!receipts[i]) continue;
      CompletedTx completed;
      completed.tx_id = snapshot[i].tx_id;
      completed.start_us = snapshot[i].start_us;
      completed.end_us = clock_->now_us();
      completed.status = receipts[i]->status;
      done.emplace_back(snapshot[i].tx_id, std::move(completed));
    }
    if (!done.empty()) {
      DriverMetrics::get().completed.add(done.size());
      DriverMetrics::get().inflight.sub(done.size());
      std::scoped_lock lock(interactive_mu_);
      for (auto& [id, completed] : done) {
        for (auto it = interactive_pending_.begin(); it != interactive_pending_.end(); ++it) {
          if (it->tx_id == id) {
            interactive_pending_.erase(it);
            break;
          }
        }
        interactive_completed_.push_back(std::move(completed));
      }
    }
    clock_->sleep_for(options_.interactive_poll);
  }
}

void HammerDriver::poll_loop(SutTarget& target) {
  // Detect stage: this target's poller scans ONLY the shards it owns, so N
  // pollers cover the chain without fetching any block twice.
  adapters::ChainAdapter& adapter = *target.poll_adapter();
  const std::vector<std::uint32_t>& shards = target.shards();
  std::vector<std::uint64_t> scanned(shards.size(), 0);
  const bool live_metrics = options_.mode == TrackingMode::kHammer &&
                            options_.metrics != nullptr && options_.metrics->write_behind();
  std::vector<TxRecord> fresh;
  while (!stop_polling_.load()) {
    for (std::size_t i = 0; i < shards.size(); ++i) {
      const std::uint32_t s = shards[i];
      std::uint64_t h;
      try {
        h = adapter.height(s);
      } catch (const Error& e) {
        HLOG_WARN("driver") << "height poll failed: " << e.what();
        continue;
      }
      for (std::uint64_t b = scanned[i] + 1; b <= h; ++b) {
        // Algorithm 1 line 11: the observation time IS the commit time,
        // recorded before the fetch so block transfer does not inflate
        // measured latency.
        std::int64_t block_time_us = clock_->now_us();
        chain::Block block;
        try {
          block = adapter.block(s, b);
        } catch (const Error& e) {
          HLOG_WARN("driver") << "block fetch failed: " << e.what();
          break;
        }
        target.count_polled_blocks(1);
        std::size_t matched = 0;
        if (options_.mode == TrackingMode::kHammer) {
          // The block's own seal timestamp feeds the included-stage trace so
          // the breakdown separates consensus latency from polling lag. The
          // header stamp is on the SUT's clock: map it onto the driver clock
          // via the channel's hello-handshake offset, or a skewed SUT clock
          // silently inflates/deflates the include stage and deflates/
          // inflates detect (they must sum to the observed window).
          const std::int64_t included_us =
              adapter.clock_offset().to_local(block.header.timestamp_us);
          matched =
              task_processor_->on_block(block_time_us, block.receipts, included_us).matched;
        } else {
          matched = batch_processor_->on_block(block_time_us, block.receipts);
        }
        if (matched > 0) {
          target.count_completed(matched);
          DriverMetrics::get().completed.add(matched);
          DriverMetrics::get().inflight.sub(matched);
        }
      }
      scanned[i] = h;
    }
    // Live streaming: hand records completed since the last sweep to the
    // metrics cache so the write-behind committer lands them in SQL while
    // the run is still going (each poller's drain is disjoint).
    if (live_metrics) {
      fresh.clear();
      task_processor_->drain_newly_completed(fresh);
      if (!fresh.empty()) options_.metrics->push_records(fresh);
    }
    // One poller (target 0's) refreshes the live offered-rate gauge so a
    // mid-run scrape shows the pacing the controller is actually granting.
    if (target.index() == 0) {
      set_gauge(DriverMetrics::get().offered_rate,
                static_cast<std::int64_t>(load_->offered_rate()));
    }
    clock_->sleep_for(options_.poll_interval);
  }
}

RunResult HammerDriver::run(const workload::WorkloadFile& workload) {
  const std::size_t total = workload.transactions.size();
  const std::size_t n_targets = cluster_->size();
  if (options_.trace_every_n > 0) {
    tracer_ = std::make_unique<telemetry::TxTracer>(options_.trace_capacity,
                                                    options_.trace_every_n);
    merger_ = std::make_unique<telemetry::TraceMerger>();
    next_trace_id_.store(1);
  } else {
    tracer_.reset();
    merger_.reset();
  }
  const bool live_metrics = options_.mode == TrackingMode::kHammer &&
                            options_.metrics != nullptr && options_.metrics->write_behind();
  if (options_.mode == TrackingMode::kHammer) {
    TaskProcessor::Options tp = options_.task_processor;
    tp.expected_txs = std::max(tp.expected_txs, total);
    tp.tracer = tracer_.get();
    // Write-behind metrics stream completed records out mid-run; the
    // processor keeps a newly-completed set for the pollers to drain.
    tp.track_completions = live_metrics;
    task_processor_ = std::make_unique<ShardedTaskProcessor>(tp);
    if (live_metrics) options_.metrics->start_committer();
  } else {
    batch_processor_ = std::make_unique<BatchQueueProcessor>();
  }
  interactive_completed_.clear();
  interactive_pending_.clear();
  rejections_.store(0);
  send_failures_.store(0);
  stop_polling_.store(false);

  // Adapters persist across runs, so RunResult::retries is a delta of the
  // lifetime counters (deduped — the poll adapter may double as a worker).
  std::vector<const adapters::ChainAdapter*> run_adapters;
  for (std::size_t t = 0; t < n_targets; ++t) {
    const SutTarget& target = cluster_->target(t);
    for (const auto& a : target.worker_adapters()) {
      if (std::find(run_adapters.begin(), run_adapters.end(), a.get()) == run_adapters.end()) {
        run_adapters.push_back(a.get());
      }
    }
    if (std::find(run_adapters.begin(), run_adapters.end(), target.poll_adapter().get()) ==
        run_adapters.end()) {
      run_adapters.push_back(target.poll_adapter().get());
    }
  }
  std::uint64_t retries_before = 0;
  for (const adapters::ChainAdapter* a : run_adapters) retries_before += a->retries();
  std::vector<std::uint64_t> submitted_before(n_targets), completed_before(n_targets);
  for (std::size_t t = 0; t < n_targets; ++t) {
    submitted_before[t] = cluster_->target(t).submitted();
    completed_before[t] = cluster_->target(t).completed();
  }

  // --- sign + route stages: one queue per target; the feeder signs, asks
  // the routing policy for a target, and pushes onto that target's queue ---
  std::vector<std::unique_ptr<SendQueue>> queues;
  queues.reserve(n_targets);
  const std::size_t per_queue_capacity =
      std::max<std::size_t>(64, options_.sign_queue_capacity / n_targets);
  for (std::size_t t = 0; t < n_targets; ++t) {
    queues.push_back(std::make_unique<SendQueue>(per_queue_capacity));
  }
  auto close_all = [&queues] {
    for (auto& q : queues) q->close();
  };
  std::unique_ptr<RoutingPolicy> policy = make_routing_policy(options_.routing);

  std::thread feeder;
  if (options_.pipelined_signing) {
    feeder = std::thread([this, &queues, &close_all, &policy, &workload] {
      DriverMetrics& metrics = DriverMetrics::get();
      std::uint64_t ordinal = 0;
      for (chain::Transaction tx : workload.transactions) {
        // The sending server stamps its id before signing (Alg. 1 line 3's
        // s_id is part of the signed payload).
        std::int64_t sign_begin_us = clock_->now_us();
        tx.server_id = options_.server_id;
        std::string tx_id = tx.sign_with(keys_->get(tx.sender));
        std::int64_t signed_us = clock_->now_us();
        metrics.sign_us.record(signed_us - sign_begin_us);
        const bool traced = tracer_ && tracer_->sampled(ordinal);
        if (traced) {
          tracer_->record(ordinal, telemetry::Stage::kStart, sign_begin_us);
          tracer_->record(ordinal, telemetry::Stage::kSigned, signed_us);
        }
        if (!route_and_push(queues, *policy,
                            SendQueueItem{std::move(tx), std::move(tx_id), ordinal})) {
          return;
        }
        if (traced) {
          tracer_->record(ordinal, telemetry::Stage::kEnqueued, clock_->now_us());
        }
        ++ordinal;
      }
      close_all();
    });
  } else {
    std::vector<chain::Transaction> txs = workload.transactions;
    for (chain::Transaction& tx : txs) tx.server_id = options_.server_id;
    std::vector<std::string> ids = sign_serial(txs, *keys_);
    feeder = std::thread([this, &queues, &close_all, &policy, txs = std::move(txs),
                          ids = std::move(ids)]() mutable {
      // Signing happened up front, so the per-tx sign/queue stages collapse
      // to the push instant; the submit/include/detect stages stay real.
      for (std::uint64_t ordinal = 0; ordinal < txs.size(); ++ordinal) {
        if (tracer_ && tracer_->sampled(ordinal)) {
          std::int64_t now_us = clock_->now_us();
          tracer_->record(ordinal, telemetry::Stage::kStart, now_us);
          tracer_->record(ordinal, telemetry::Stage::kSigned, now_us);
          tracer_->record(ordinal, telemetry::Stage::kEnqueued, now_us);
        }
        SendQueueItem item{std::move(txs[ordinal]), std::move(ids[ordinal]), ordinal};
        if (!route_and_push(queues, *policy, std::move(item))) return;
      }
      close_all();
    });
  }

  // --- submit + detect stages ---
  // Fresh bucket and offered-rate window, and the rate plan (if any)
  // anchored here — once the feeder is filling the queues, just before the
  // workers start sending. The target rate (possibly retargeted mid-flight
  // last run) carries over.
  load_->reset();
  std::vector<std::thread> pollers;
  if (options_.mode == TrackingMode::kInteractive) {
    pollers.emplace_back([this] { listener_loop(); });
  } else {
    for (std::size_t t = 0; t < n_targets; ++t) {
      pollers.emplace_back([this, t] { poll_loop(cluster_->target(t)); });
    }
  }
  std::vector<std::thread> workers;
  workers.reserve(options_.worker_threads);
  const std::vector<std::size_t> per_target = split_workers(options_.worker_threads, n_targets);
  for (std::size_t t = 0; t < n_targets; ++t) {
    for (std::size_t slot = 0; slot < per_target[t]; ++slot) {
      workers.emplace_back([this, t, slot, &queues] {
        worker_loop(cluster_->target(t), slot, *queues[t]);
      });
    }
  }
  for (auto& t : workers) t.join();
  feeder.join();

  // --- drain: wait for in-flight transactions to land in blocks ---
  {
    util::TimePoint drain_deadline = clock_->now() + options_.drain_timeout;
    auto pending = [this]() -> std::size_t {
      switch (options_.mode) {
        case TrackingMode::kHammer: return task_processor_->pending_count();
        case TrackingMode::kBatchQueue: return batch_processor_->pending_count();
        case TrackingMode::kInteractive: {
          std::scoped_lock lock(interactive_mu_);
          return interactive_pending_.size();
        }
      }
      return 0;
    };
    while (pending() > 0 && clock_->now() < drain_deadline) {
      clock_->sleep_for(options_.poll_interval);
    }
    stop_polling_.store(true);
    for (auto& t : pollers) t.join();
    // Transactions that never landed before the drain deadline are no longer
    // in flight from the driver's perspective; zero the gauge's residue so
    // back-to-back runs start clean.
    DriverMetrics::get().inflight.sub(pending());
  }

  // --- summarize ---
  RunResult result;
  if (options_.mode == TrackingMode::kHammer) {
    std::vector<TxRecord> records = task_processor_->snapshot();
    result = summarize(records);
    result.processor = task_processor_->stats_json();
    if (options_.metrics) {
      if (options_.metrics->write_behind()) {
        // The pollers streamed completed records as they landed; catch any
        // stragglers completed after the last sweep, cache the still-pending
        // ones (TTL-armed, parity with the legacy path), then drain the
        // committer so every buffered row is in SQL before we return.
        std::vector<TxRecord> fresh;
        task_processor_->drain_newly_completed(fresh);
        for (const TxRecord& record : records) {
          if (!record.completed) fresh.push_back(record);
        }
        if (!fresh.empty()) options_.metrics->push_records(fresh);
        options_.metrics->flush_and_stop();
      } else {
        options_.metrics->push_records(records);
        options_.metrics->commit_to_sql();
      }
    }
  } else {
    // Build records from the baseline's completion lists.
    std::vector<TxRecord> records;
    records.reserve(total);
    auto add_completed = [&records](const CompletedTx& done) {
      TxRecord r;
      r.tx_id = done.tx_id;
      r.start_us = done.start_us;
      r.end_us = done.end_us;
      r.status = done.status;
      r.completed = true;
      records.push_back(std::move(r));
    };
    if (options_.mode == TrackingMode::kBatchQueue) {
      for (const CompletedTx& done : batch_processor_->completed()) add_completed(done);
      for (const CompletedTx& waiting : batch_processor_->pending_snapshot()) {
        TxRecord r;
        r.tx_id = waiting.tx_id;
        r.start_us = waiting.start_us;
        r.completed = false;
        records.push_back(std::move(r));
      }
    } else {
      std::scoped_lock lock(interactive_mu_);
      for (const CompletedTx& done : interactive_completed_) add_completed(done);
      for (const InteractivePending& lost : interactive_pending_) {
        TxRecord r;
        r.tx_id = lost.tx_id;
        r.start_us = lost.start_us;
        r.completed = false;
        records.push_back(std::move(r));
      }
    }
    result = summarize(records);
  }
  result.rejected = rejections_.load();
  result.send_failures = send_failures_.load();
  result.target_rate = load_->target_rate();
  result.offered_rate = load_->offered_rate();
  result.achieved_rate = result.tps;
  set_gauge(DriverMetrics::get().offered_rate,
            static_cast<std::int64_t>(result.offered_rate));
  set_gauge(DriverMetrics::get().achieved_rate,
            static_cast<std::int64_t>(result.achieved_rate));
  std::uint64_t retries_after = 0;
  for (const adapters::ChainAdapter* a : run_adapters) retries_after += a->retries();
  result.retries = retries_after - retries_before;
  json::Array targets_json;
  targets_json.reserve(n_targets);
  for (std::size_t t = 0; t < n_targets; ++t) {
    const SutTarget& target = cluster_->target(t);
    targets_json.push_back(
        json::object({{"target", static_cast<std::int64_t>(t)},
                      {"submitted", target.submitted() - submitted_before[t]},
                      {"completed", target.completed() - completed_before[t]},
                      {"shards", static_cast<std::int64_t>(target.shards().size())}}));
  }
  result.targets = json::Value(std::move(targets_json));
  if (options_.fault_injector) {
    result.faults = options_.fault_injector->counts_json();
  }
  if (tracer_) {
    result.stages = tracer_->breakdown().to_json();
  }
  if (merger_) {
    // Stitch: drain every target's server-side span ring and map it onto
    // the driver clock. Old SUTs without telemetry.spans contribute nothing
    // (fetch_spans returns empty); in-process deployments return the same
    // global ring from every endpoint and the merger dedups by span id.
    for (std::size_t t = 0; t < n_targets; ++t) {
      adapters::ChainAdapter& poll = *cluster_->target(t).poll_adapter();
      try {
        merger_->add_server_spans(t, poll.fetch_spans(), poll.clock_offset());
      } catch (const Error& e) {
        HLOG_WARN("driver") << "span fetch for target " << t << " failed: " << e.what();
      }
    }
    if (merger_->server_span_count() > 0 && result.stages.is_object()) {
      result.stages["remote"] = merger_->remote_breakdown().to_json();
    }
    if (!options_.trace_export_path.empty()) {
      std::ofstream out(options_.trace_export_path,
                        std::ios::binary | std::ios::trunc);
      if (out) {
        out << merger_->to_trace_json(tracer_->events()).dump();
        HLOG_INFO("driver") << "wrote trace timeline to " << options_.trace_export_path;
      } else {
        HLOG_WARN("driver") << "cannot open trace export path "
                            << options_.trace_export_path;
      }
    }
  }
  return result;
}

RunResult run_peak_probe(std::shared_ptr<SutCluster> cluster, std::shared_ptr<util::Clock> clock,
                         DriverOptions options, const workload::WorkloadFile& workload) {
  HammerDriver driver(std::move(cluster), std::move(clock), std::move(options));
  return driver.run(workload);
}

}  // namespace hammer::core
