// Closed-loop load control (DESIGN.md §14).
//
// A LoadController turns the driving path from "fixed count, best effort"
// into a rate-paced pipeline: worker threads acquire() one token per
// transaction before a send leaves, and the controller refills tokens at
// the target rate with a bounded burst allowance — the classic token
// bucket. rate = 0 is the degenerate open-loop case (acquire returns
// immediately), so paced and best-effort runs share one code path and one
// accounting surface.
//
// The rate may also follow a temporal control sequence (paper §III-B1):
// slice i of the plan refills at counts[i] / slice, so the bucket replays
// the sequence as a piecewise-constant rate. The plan is anchored at
// construction and at every reset(); a zero-count slice pauses sending;
// once the last slice has passed the controller is open loop. A planned
// bucket starts half a token full instead of burst-full, so the plan gets
// no initial burst and each send sits mid-way through its 1/rate interval
// (a whole-number plan releases exactly its total before it ends).
//
// The controller is live-retargetable: set_rate() takes effect on the next
// refill (and cancels a plan), and waiting acquirers sleep in short slices
// so a mid-run control.set_rate never strands a worker in a stale long
// sleep. All state sits behind one mutex — acquire is called once per
// coalesced batch, not per transaction, so the lock is cold next to the
// send round trip it gates.
//
// Offered-rate accounting: the controller stamps the first and last token
// release of the run; offered_rate() is releases per second of that
// window. Because workers acquire at the send site, "offered" measures
// what actually left the client — under contention (CPU-burn faults, a
// saturated pipeline) it sags below the target, and that gap is itself a
// saturation signal (see core::SaturationSearch).
//
// Determinism: with jitter = 0 (default) the controller adds no
// randomness. A seeded jitter fraction perturbs each computed wait by a
// deterministic Pcg32 draw — arrival-process roughening that replays
// exactly from (seed, draw index).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "util/clock.hpp"
#include "util/random.hpp"
#include "workload/control_sequence.hpp"

namespace hammer::core {

struct LoadOptions {
  // Target aggregate send rate in tx/s. 0 = open loop (unlimited).
  double rate = 0.0;
  // Or a control sequence to replay instead of a constant rate (empty = no
  // plan). The two are one setting: a plan with rate > 0 is rejected.
  workload::ControlSequence plan;
  // Token-bucket capacity: how many sends may leave back-to-back after an
  // idle spell before pacing kicks in.
  double burst = 64.0;
  // Fraction of each computed wait perturbed by the seeded jitter stream
  // (0 = fully deterministic pacing).
  double jitter = 0.0;
  std::uint64_t seed = 1;
};

class LoadController {
 public:
  LoadController(LoadOptions options, std::shared_ptr<util::Clock> clock);

  LoadController(const LoadController&) = delete;
  LoadController& operator=(const LoadController&) = delete;

  // Open loop: no constant rate and no plan slice in force. A paused (zero-
  // count) plan slice is not open loop.
  bool open_loop() const;
  // The rate in force now: the current plan slice's while a plan runs.
  double target_rate() const;

  // Live retarget; <= 0 switches to open loop. Cancels a plan. Takes effect
  // within one sleep slice (~10 ms) for already-waiting acquirers.
  void set_rate(double rate);

  // Blocks until n tokens are available (immediately in open loop). A batch
  // larger than the burst runs the bucket into debt rather than waiting for
  // a fill that can never come, so the long-run rate stays exact for any
  // batch size.
  void acquire(std::size_t n);

  // Non-blocking acquire: releases n tokens and returns true, or returns
  // false and stores in *wait how long until it could succeed.
  bool try_acquire(std::size_t n, util::Duration* wait = nullptr);

  // Clears the bucket and the offered-rate window for a fresh run, and
  // re-anchors the plan at now. The target rate and plan are kept —
  // reset() is per-run, set_rate() is per-plan.
  void reset();

  std::uint64_t released() const;

  // Tokens released per second between the first and last release of the
  // current window; 0 until two distinct release instants exist.
  double offered_rate() const;

 private:
  void refill_locked(util::TimePoint now);
  // Index of the plan slice in force at `t`, or -1 when no plan slice is.
  std::ptrdiff_t slice_at_locked(util::TimePoint t) const;
  double slice_rate(std::ptrdiff_t i) const;
  util::TimePoint slice_end(std::ptrdiff_t i) const;

  std::shared_ptr<util::Clock> clock_;
  mutable std::mutex mu_;
  double rate_;
  workload::ControlSequence plan_;
  util::TimePoint plan_start_;
  double burst_;
  double jitter_;
  util::Pcg32 rng_;
  double tokens_ = 0.0;
  util::TimePoint last_refill_;
  std::uint64_t released_ = 0;
  std::int64_t first_release_us_ = 0;
  std::int64_t last_release_us_ = 0;
};

}  // namespace hammer::core
