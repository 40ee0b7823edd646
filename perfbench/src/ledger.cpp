// Layer-cost ledger: each public layer call, looped on the workload's own
// transactions, timed in thread CPU after a warm-up. Every figure is the
// median of five rounds.
#include <algorithm>
#include <cmath>
#include <span>

#include "bench.hpp"
#include "core/metrics.hpp"
#include "core/signing.hpp"
#include "core/task_processor.hpp"
#include "kvstore/kvstore.hpp"
#include "minisql/database.hpp"
#include "rpc/tcp.hpp"
#include "rpc/wire/codec.hpp"
#include "util/clock.hpp"
#include "util/errors.hpp"

namespace perfbench {

namespace {

constexpr int kRounds = 5;
constexpr std::int64_t kMinRoundNs = 20'000'000;
constexpr std::size_t kBatch = 64;
const char* const kServerId = "server-0";  // DriverOptions::server_id default

// Thread-CPU microseconds per unit of `fn`, which does `units` units per
// call. A round repeats fn until it has used kMinRoundNs of CPU or
// `max_calls` calls.
template <typename Fn>
double cpu_us_per_unit(std::size_t units, Fn&& fn, std::size_t max_calls = SIZE_MAX) {
  for (int i = 0; i < 2; ++i) fn();
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    const std::int64_t t0 = thread_cpu_ns();
    std::size_t calls = 0;
    do {
      fn();
      ++calls;
    } while (thread_cpu_ns() - t0 < kMinRoundNs && calls < max_calls);
    rounds.push_back(static_cast<double>(thread_cpu_ns() - t0) / 1e3 /
                     static_cast<double>(calls * units));
  }
  return median(rounds);
}

// Wall and process-CPU microseconds per call of `fn` (for round trips that
// span threads).
template <typename Fn>
std::pair<double, double> wall_and_cpu_us(Fn&& fn) {
  for (int i = 0; i < 20; ++i) fn();
  std::vector<double> wall, cpu;
  for (int r = 0; r < kRounds; ++r) {
    const std::int64_t w0 = now_us();
    const double c0 = process_cpu_s();
    std::size_t calls = 0;
    do {
      fn();
      ++calls;
    } while (now_us() - w0 < 40'000);
    wall.push_back(static_cast<double>(now_us() - w0) / static_cast<double>(calls));
    cpu.push_back((process_cpu_s() - c0) * 1e6 / static_cast<double>(calls));
  }
  return {median(wall), median(cpu)};
}

json::Value submit_params(const chain::Transaction& tx) {
  return json::object({{"tx", tx.to_json()}});
}

// A dispatcher whose chain.submit does no chain work: round trips against
// it price the transport and codec alone.
std::shared_ptr<rpc::Dispatcher> noop_submit_dispatcher() {
  auto d = std::make_shared<rpc::Dispatcher>();
  d->register_method("chain.submit",
                     [](const json::Value&) { return json::object({{"tx_id", ""}}); });
  return d;
}

std::vector<rpc::BatchCall> submit_calls(const std::vector<chain::Transaction>& txs,
                                         std::size_t n) {
  std::vector<rpc::BatchCall> calls;
  for (std::size_t i = 0; i < n; ++i) calls.push_back({"chain.submit", submit_params(txs[i])});
  return calls;
}

std::string json_batch_text(const std::vector<chain::Transaction>& txs, std::size_t first,
                            std::uint64_t& next_id) {
  json::Array batch;
  for (std::size_t i = 0; i < kBatch; ++i) {
    batch.push_back(rpc::make_request(next_id++, "chain.submit", submit_params(txs[first + i])));
  }
  return json::Value(std::move(batch)).dump();
}

}  // namespace

std::map<std::string, double> measure_ledger(const LedgerInput& in) {
  HAMMER_CHECK_MSG(in.txs.size() >= 2 * kBatch, "ledger needs at least two batches of txs");
  std::map<std::string, double> out;
  const std::size_t n = in.txs.size();

  // --- crypto / core.signing / chain.types ---
  core::KeyCache keys;
  std::vector<chain::Transaction> signed_txs = in.txs;
  for (chain::Transaction& tx : signed_txs) {
    tx.server_id = kServerId;
    tx.sign_with(keys.get(tx.sender));
  }
  std::vector<std::string> ids;
  ids.reserve(n);
  for (const chain::Transaction& tx : signed_txs) ids.push_back(tx.compute_id());

  std::size_t i = 0;
  out["signing.keycache_get_us"] = cpu_us_per_unit(1, [&] {
    const crypto::KeyPair& k = keys.get(signed_txs[i++ % n].sender);
    asm volatile("" : : "r"(&k) : "memory");
  });
  std::vector<const crypto::KeyPair*> tx_keys;
  for (const chain::Transaction& tx : signed_txs) tx_keys.push_back(&keys.get(tx.sender));
  out["signing.sign_us"] = cpu_us_per_unit(1, [&] {
    const std::size_t k = i++ % n;
    signed_txs[k].sign_with(*tx_keys[k]);  // deterministic: same signature again
  });
  out["chain.signing_payload_us"] = cpu_us_per_unit(1, [&] {
    std::string payload = signed_txs[i++ % n].signing_payload();
    asm volatile("" : : "r"(payload.data()) : "memory");
  });
  out["chain.compute_id_us"] = cpu_us_per_unit(1, [&] {
    std::string id = signed_txs[i++ % n].compute_id();
    asm volatile("" : : "r"(id.data()) : "memory");
  });
  out["chain.verify_us"] = cpu_us_per_unit(1, [&] {
    HAMMER_CHECK(signed_txs[i++ % n].verify_signature());
  });
  out["chain.tx_to_json_us"] = cpu_us_per_unit(1, [&] {
    json::Value v = submit_params(signed_txs[i++ % n]);
    asm volatile("" : : "r"(&v) : "memory");
  });
  std::vector<json::Value> tx_json;
  for (const chain::Transaction& tx : signed_txs) tx_json.push_back(tx.to_json());
  out["chain.tx_from_json_us"] = cpu_us_per_unit(1, [&] {
    chain::Transaction tx = chain::Transaction::from_json(tx_json[i++ % n]);
    asm volatile("" : : "r"(&tx) : "memory");
  });

  // --- json: a 64-tx chain.submit batch document ---
  std::uint64_t next_id = 1;
  json::Array request_batch;
  for (std::size_t k = 0; k < kBatch; ++k) {
    request_batch.push_back(
        rpc::make_request(next_id++, "chain.submit", submit_params(signed_txs[k])));
  }
  const json::Value request_doc(std::move(request_batch));
  const std::string request_text = request_doc.dump();
  out["json.tx_encode_us"] = cpu_us_per_unit(kBatch, [&] {
    std::string text;
    request_doc.dump_into(text);
    asm volatile("" : : "r"(text.data()) : "memory");
  });
  out["json.tx_decode_us"] = cpu_us_per_unit(kBatch, [&] {
    json::Value v = json::Value::parse(request_text);
    asm volatile("" : : "r"(&v) : "memory");
  });

  // --- rpc.wire: the same batch as one binary request frame ---
  std::vector<json::Value> params;
  for (std::size_t k = 0; k < kBatch; ++k) params.push_back(submit_params(signed_txs[k]));
  std::string frame;
  auto encode_frame = [&] {
    frame.clear();
    rpc::wire::put_header(frame, rpc::wire::FrameKind::kBinaryRequest);
    rpc::wire::put_varint(frame, kBatch);
    for (std::size_t k = 0; k < kBatch; ++k) {
      rpc::wire::encode_call(frame, k + 1, "chain.submit", params[k]);
    }
  };
  out["wire.batch64_encode_us"] = cpu_us_per_unit(1, encode_frame);
  encode_frame();
  const std::string_view body = rpc::wire::parse_versioned(frame).body;
  out["wire.batch64_decode_us"] = cpu_us_per_unit(1, [&] {
    std::vector<rpc::wire::DecodedCall> calls = rpc::wire::decode_request_body(body);
    HAMMER_CHECK(calls.size() == kBatch);
  });

  // --- rpc: dispatch into a live chain of the workload's kind ---
  {
    json::Value spec = chain_spec(*in.spec, in.seed);
    spec["transport"] = "inproc";
    spec["endpoints"] = 1;
    spec.as_object().erase("rpc_workers");
    spec["pool_capacity"] = 1'000'000;
    core::Deployment ledger_sut = core::Deployment::deploy(
        json::object({{"chains", json::array({spec})}}), util::SteadyClock::shared());
    const rpc::Dispatcher& dispatcher = *ledger_sut.at("sut").dispatcher;
    // Distinct txs per batch (a resubmitted tx would be a different path).
    std::vector<std::string> texts;
    for (std::size_t first = 0; first + kBatch <= n; first += kBatch) {
      texts.push_back(json_batch_text(signed_txs, first, next_id));
    }
    std::size_t b = 0;
    out["rpc.dispatch_submit_us"] = cpu_us_per_unit(
        kBatch,
        [&] {
          std::string reply = dispatcher.dispatch_text(texts[b++ % texts.size()]);
          HAMMER_CHECK(reply.find("\"error\"") == std::string::npos);
        },
        std::max<std::size_t>(1, (texts.size() - 2) / kRounds));
  }

  // --- rpc: round trips against the no-op submit handler ---
  auto noop = noop_submit_dispatcher();
  const auto calls1 = submit_calls(signed_txs, 1);
  const auto calls64 = submit_calls(signed_txs, kBatch);
  {
    rpc::InProcChannel channel(noop);
    out["rpc.inproc_rtt_us.b1"] = cpu_us_per_unit(1, [&] { channel.call_batch(calls1); });
    out["rpc.inproc_rtt_us.b64"] = cpu_us_per_unit(1, [&] { channel.call_batch(calls64); });
  }
  {
    rpc::TcpServer server(noop, 0, 1);
    rpc::TcpChannel channel("127.0.0.1", server.port(), rpc::ClientConfig{});
    auto [w1, c1] = wall_and_cpu_us([&] { channel.call_batch(calls1); });
    auto [w64, c64] = wall_and_cpu_us([&] { channel.call_batch(calls64); });
    out["rpc.tcp_rtt_us.b1"] = w1;
    out["rpc.tcp_rtt_us.b64"] = w64;
    out["rpc.tcp_rtt_cpu_us.b1"] = c1;
    out["rpc.tcp_rtt_cpu_us.b64"] = c64;
  }

  // --- core.task_processor: Algorithm 1 on the workload's ids ---
  const core::DriverOptions options = driver_options(*in.spec, in.seed);
  core::TaskProcessor::Options tp = options.task_processor;
  tp.expected_txs = n;
  out["taskproc.register_us"] = cpu_us_per_unit(n, [&] {
    core::ShardedTaskProcessor processor(tp);
    for (std::size_t k = 0; k < n; ++k) {
      processor.register_tx(ids[k], 0, "client-0", kServerId, "sut", "smallbank", k);
    }
  });
  const auto block_size = static_cast<std::size_t>(
      std::clamp<double>(std::round(in.block_txs_mean), 1, static_cast<double>(n)));
  std::vector<chain::TxReceipt> receipts(n);
  for (std::size_t k = 0; k < n; ++k) receipts[k].tx_id = ids[k];
  {
    std::vector<double> rounds;
    for (int r = 0; r < kRounds + 1; ++r) {
      core::ShardedTaskProcessor processor(tp);
      for (std::size_t k = 0; k < n; ++k) {
        processor.register_tx(ids[k], 0, "client-0", kServerId, "sut", "smallbank", k);
      }
      const std::int64_t t0 = thread_cpu_ns();
      std::size_t matched = 0;
      for (std::size_t first = 0; first < n; first += block_size) {
        const std::size_t len = std::min(block_size, n - first);
        matched += processor.on_block(1, std::span(receipts).subspan(first, len)).matched;
      }
      HAMMER_CHECK(matched == n);
      if (r > 0) rounds.push_back(static_cast<double>(thread_cpu_ns() - t0) / 1e3 / n);
    }
    out["taskproc.on_block_us_per_receipt"] = median(rounds);
  }

  // --- core.metrics / kvstore: write-behind push of completed records ---
  {
    std::vector<core::TxRecord> records(n);
    for (std::size_t k = 0; k < n; ++k) {
      records[k].tx_id = ids[k];
      records[k].start_us = 1;
      records[k].end_us = 2;
      records[k].completed = true;
      records[k].client_id = "client-0";
      records[k].server_id = kServerId;
      records[k].chainname = "sut";
      records[k].contractname = "smallbank";
    }
    out["metrics.push_us_per_record"] = cpu_us_per_unit(n, [&] {
      core::MetricsOptions mo;
      use_write_behind(mo);
      core::MetricsPipeline pipeline(
          std::make_shared<kvstore::KvStore>(util::SteadyClock::shared()),
          std::make_shared<minisql::Database>(), mo);
      for (std::size_t first = 0; first < n; first += block_size) {
        pipeline.push_records(
            std::span(records).subspan(first, std::min(block_size, n - first)));
      }
    });
  }

  // --- workload ---
  workload::WorkloadProfile profile;
  profile.num_accounts = in.accounts.size();
  profile.seed = in.seed;
  out["workload.generate_us_per_tx"] = cpu_us_per_unit(n, [&] {
    workload::WorkloadFile wf = workload::generate_workload(profile, in.accounts, n);
    HAMMER_CHECK(wf.transactions.size() == n);
  });
  return out;
}

}  // namespace perfbench
