// Temporal control sequences: "a time sequence to control the number of
// concurrent transactions within a time period. It simulates the timing
// features of real-world blockchain applications" (paper §III-B1).
//
// A sequence holds one transaction count per time slice. The forecast
// module (src/forecast) produces extended sequences from learned models;
// core::LoadController replays a sequence as a piecewise-constant send rate
// (DriverOptions::rate_plan), so planned and constant-rate runs share the
// driver's one pacing gate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "util/clock.hpp"

namespace hammer::workload {

class ControlSequence {
 public:
  ControlSequence() = default;
  ControlSequence(std::vector<double> counts, util::Duration slice);

  static ControlSequence constant(double rate_per_second, util::Duration total,
                                  util::Duration slice);

  const std::vector<double>& counts() const { return counts_; }
  util::Duration slice() const { return slice_; }
  std::size_t num_slices() const { return counts_.size(); }
  double total() const;
  double peak() const;
  util::Duration duration() const { return slice_ * static_cast<std::int64_t>(counts_.size()); }

  // Rescales so the busiest slice issues `peak` transactions (lets one
  // learned shape be replayed at different load levels).
  ControlSequence scaled_to_peak(double peak) const;
  // Rescales so the sum of all slices is `total`.
  ControlSequence scaled_to_total(double total) const;

  json::Value to_json() const;
  static ControlSequence from_json(const json::Value& v);

  void save(const std::string& path) const;
  static ControlSequence load(const std::string& path);

 private:
  std::vector<double> counts_;
  util::Duration slice_{std::chrono::seconds(1)};
};

}  // namespace hammer::workload
