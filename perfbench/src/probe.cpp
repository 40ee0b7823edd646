// Clocks, the span log and the traced rpc::Channel decorator.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <fstream>

#include "bench.hpp"
#include "util/clock.hpp"

namespace perfbench {

std::int64_t now_us() { return util::SteadyClock::shared()->now_us(); }

double process_cpu_s() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const struct timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::int64_t thread_cpu_ns() {
  struct timespec ts {};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb_self() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ------------------------------------------------------------------ SpanLog

std::uint64_t SpanLog::next_id() {
  std::scoped_lock lock(mu_);
  return next_id_++;
}

void SpanLog::add(Span span) {
  std::scoped_lock lock(mu_);
  spans_.push_back(std::move(span));
}

void SpanLog::set_current(std::uint64_t id) {
  std::scoped_lock lock(mu_);
  current_ = id;
}

std::uint64_t SpanLog::current() const {
  std::scoped_lock lock(mu_);
  return current_;
}

std::vector<Span> SpanLog::spans() const {
  std::scoped_lock lock(mu_);
  return spans_;
}

std::map<std::string, double> SpanLog::total_ms_by_name() const {
  std::map<std::string, double> out;
  for (const Span& s : spans()) out[s.name] += static_cast<double>(s.end_us - s.start_us) / 1e3;
  return out;
}

std::map<std::string, double> SpanLog::self_ms_by_name() const {
  const std::vector<Span> all = spans();
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const Span& s : all) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::map<std::string, double> out;
  for (const Span& s : all) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Children run concurrently (several workers and pollers), so the
      // covered part is the union of their intervals, clipped to the parent.
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t lo = 0, hi = -1;
      for (auto [a, b] : intervals) {
        a = std::max(a, s.start_us);
        b = std::min(b, s.end_us);
        if (b <= a) continue;
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    out[s.name] += static_cast<double>(s.end_us - s.start_us - covered) / 1e3;
  }
  return out;
}

bool SpanLog::write_json(const std::string& path) const {
  json::Array rows;
  for (const Span& s : spans()) {
    rows.push_back(json::object({{"name", s.name},
                                 {"start_us", s.start_us},
                                 {"end_us", s.end_us},
                                 {"id", s.id},
                                 {"parent", s.parent},
                                 {"request", s.request},
                                 {"items", s.items}}));
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << json::Value(std::move(rows)).dump();
  return static_cast<bool>(out);
}

ScopedBoundary::ScopedBoundary(SpanLog* log, std::string name) : log_(log) {
  if (!log_) return;
  span_.name = std::move(name);
  span_.id = log_->next_id();
  span_.parent = log_->current();
  saved_parent_ = span_.parent;
  log_->set_current(span_.id);
  span_.start_us = now_us();
}

ScopedBoundary::~ScopedBoundary() {
  if (!log_) return;
  span_.end_us = now_us();
  log_->set_current(saved_parent_);
  log_->add(std::move(span_));
}

// ----------------------------------------------------------- TracingChannel

namespace {

class TracingChannel final : public rpc::Channel {
 public:
  TracingChannel(std::shared_ptr<rpc::Channel> inner, std::shared_ptr<SpanLog> log)
      : inner_(std::move(inner)), log_(std::move(log)) {}

  json::Value call(const std::string& method, json::Value params,
                   const rpc::CallOptions& opts) override {
    Recorder rec(*this, "rpc." + method, 1);
    return inner_->call(method, std::move(params), opts);
  }

  std::future<json::Value> call_async(const std::string& method, json::Value params,
                                      const rpc::CallOptions& opts) override {
    // Records only the time to send: the reply lands on another thread.
    Recorder rec(*this, "rpc." + method + ".async", 1);
    return inner_->call_async(method, std::move(params), opts);
  }

  std::vector<rpc::BatchReply> call_batch(const std::vector<rpc::BatchCall>& calls,
                                          const rpc::CallOptions& opts) override {
    Recorder rec(*this, "rpc." + (calls.empty() ? std::string("empty") : calls.front().method),
                 calls.size());
    return inner_->call_batch(calls, opts);
  }

  telemetry::ClockOffset clock_offset() const override { return inner_->clock_offset(); }

 private:
  // One span per frame; recorded on scope exit, also when the call throws.
  struct Recorder {
    Recorder(TracingChannel& channel, std::string name, std::size_t items)
        : log(*channel.log_) {
      span.name = std::move(name);
      span.items = items;
      span.id = log.next_id();
      span.request = span.id;
      span.parent = log.current();
      span.start_us = now_us();
    }
    ~Recorder() {
      span.end_us = now_us();
      log.add(std::move(span));
    }
    SpanLog& log;
    Span span;
  };

  std::shared_ptr<rpc::Channel> inner_;
  std::shared_ptr<SpanLog> log_;
};

}  // namespace

std::shared_ptr<rpc::Channel> traced_channel(std::shared_ptr<rpc::Channel> inner,
                                             std::shared_ptr<SpanLog> log) {
  return std::make_shared<TracingChannel>(std::move(inner), std::move(log));
}

}  // namespace perfbench
