#include "core/load_controller.hpp"

#include <algorithm>

#include "util/errors.hpp"

namespace hammer::core {

namespace {
// Waiters sleep at most this long per slice so a live set_rate() (or a rate
// raised from near-zero) is picked up promptly.
constexpr util::Duration kMaxSleepSlice = std::chrono::milliseconds(10);
}  // namespace

LoadController::LoadController(LoadOptions options, std::shared_ptr<util::Clock> clock)
    : clock_(std::move(clock)),
      rate_(options.rate > 0.0 ? options.rate : 0.0),
      plan_(std::move(options.plan)),
      burst_(std::max(1.0, options.burst)),
      jitter_(std::clamp(options.jitter, 0.0, 1.0)),
      rng_(options.seed, 0x6c0ad5c4c3a2d1e0ULL) {
  HAMMER_CHECK(clock_ != nullptr);
  HAMMER_CHECK_MSG(rate_ == 0.0 || plan_.num_slices() == 0,
                   "a rate plan replaces the constant rate; set one or the other");
  reset();
}

std::ptrdiff_t LoadController::slice_at_locked(util::TimePoint t) const {
  if (plan_.num_slices() == 0 || t < plan_start_) return -1;
  const auto i = static_cast<std::ptrdiff_t>((t - plan_start_) / plan_.slice());
  return i < static_cast<std::ptrdiff_t>(plan_.num_slices()) ? i : -1;
}

double LoadController::slice_rate(std::ptrdiff_t i) const {
  return plan_.counts()[static_cast<std::size_t>(i)] /
         std::chrono::duration<double>(plan_.slice()).count();
}

util::TimePoint LoadController::slice_end(std::ptrdiff_t i) const {
  return plan_start_ + plan_.slice() * (i + 1);
}

bool LoadController::open_loop() const {
  std::scoped_lock lock(mu_);
  return rate_ <= 0.0 && slice_at_locked(clock_->now()) < 0;
}

double LoadController::target_rate() const {
  std::scoped_lock lock(mu_);
  const std::ptrdiff_t slice = slice_at_locked(clock_->now());
  return slice >= 0 ? slice_rate(slice) : rate_;
}

void LoadController::set_rate(double rate) {
  std::scoped_lock lock(mu_);
  // Refill at the OLD rate first so tokens accrued up to this instant are
  // honest, then switch.
  refill_locked(clock_->now());
  plan_ = {};
  rate_ = rate > 0.0 ? rate : 0.0;
}

void LoadController::refill_locked(util::TimePoint now) {
  // Integrate the rate over (last_refill_, now], one plan slice at a time.
  while (last_refill_ < now) {
    util::TimePoint until = now;
    double rate = rate_;
    if (const std::ptrdiff_t slice = slice_at_locked(last_refill_); slice >= 0) {
      until = std::min(now, slice_end(slice));
      rate = slice_rate(slice);
    }
    const double elapsed_s = std::chrono::duration<double>(until - last_refill_).count();
    tokens_ = std::min(burst_, tokens_ + elapsed_s * rate);
    last_refill_ = until;
  }
}

bool LoadController::try_acquire(std::size_t n, util::Duration* wait) {
  if (n == 0) return true;
  std::scoped_lock lock(mu_);
  const util::TimePoint now = clock_->now();
  refill_locked(now);
  const std::ptrdiff_t slice = slice_at_locked(now);
  const double rate = slice >= 0 ? slice_rate(slice) : rate_;
  const bool open = slice < 0 && rate <= 0.0;
  // A batch bigger than the bucket can never see `want` tokens at once; let
  // it leave at burst-full and drive the balance negative (debt) — later
  // acquirers absorb the debt, keeping the average rate exact. The epsilon
  // absorbs float drift from refilling in many small steps.
  const double want = static_cast<double>(n);
  const double need = std::min(want, burst_);
  if (open || tokens_ + 1e-9 >= need) {
    if (!open) tokens_ -= want;
    const std::int64_t now_us =
        std::chrono::duration_cast<std::chrono::microseconds>(now.time_since_epoch()).count();
    if (released_ == 0) first_release_us_ = now_us;
    last_release_us_ = now_us;
    released_ += n;
    return true;
  }
  // A zero-count plan slice pauses: wait for the slice to end, never divide
  // by its zero rate.
  double wait_s = rate > 0.0 ? (need - tokens_) / rate
                             : std::chrono::duration<double>(slice_end(slice) - now).count();
  if (jitter_ > 0.0) {
    // Deterministic roughening: scale the wait by 1 ± jitter using the
    // seeded stream (pure function of seed and draw index).
    wait_s *= 1.0 + jitter_ * (2.0 * rng_.uniform01() - 1.0);
  }
  if (wait != nullptr) {
    *wait = std::chrono::ceil<util::Duration>(std::chrono::duration<double>(std::max(0.0, wait_s)));
  }
  return false;
}

void LoadController::acquire(std::size_t n) {
  util::Duration wait{};
  while (!try_acquire(n, &wait)) clock_->sleep_for(std::min(wait, kMaxSleepSlice));
}

void LoadController::reset() {
  std::scoped_lock lock(mu_);
  tokens_ = plan_.num_slices() > 0 ? 0.5 : burst_;
  last_refill_ = plan_start_ = clock_->now();
  released_ = 0;
  first_release_us_ = 0;
  last_release_us_ = 0;
}

std::uint64_t LoadController::released() const {
  std::scoped_lock lock(mu_);
  return released_;
}

double LoadController::offered_rate() const {
  std::scoped_lock lock(mu_);
  if (released_ < 2 || last_release_us_ <= first_release_us_) return 0.0;
  return static_cast<double>(released_) /
         (static_cast<double>(last_release_us_ - first_release_us_) / 1e6);
}

}  // namespace hammer::core
