#include "workload/control_sequence.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/errors.hpp"

namespace hammer::workload {

ControlSequence::ControlSequence(std::vector<double> counts, util::Duration slice)
    : counts_(std::move(counts)), slice_(slice) {
  HAMMER_CHECK(slice_.count() > 0);
  for (double c : counts_) HAMMER_CHECK_MSG(c >= 0, "negative slice count");
}

ControlSequence ControlSequence::constant(double rate_per_second, util::Duration total,
                                          util::Duration slice) {
  HAMMER_CHECK(rate_per_second >= 0);
  HAMMER_CHECK(slice.count() > 0);
  auto num_slices = static_cast<std::size_t>(
      (total + slice - util::Duration(1)) / slice);
  double per_slice = rate_per_second * std::chrono::duration<double>(slice).count();
  return ControlSequence(std::vector<double>(num_slices, per_slice), slice);
}

double ControlSequence::total() const {
  double sum = 0;
  for (double c : counts_) sum += c;
  return sum;
}

double ControlSequence::peak() const {
  double best = 0;
  for (double c : counts_) best = std::max(best, c);
  return best;
}

ControlSequence ControlSequence::scaled_to_peak(double peak_target) const {
  double p = peak();
  HAMMER_CHECK_MSG(p > 0, "cannot scale an all-zero sequence");
  std::vector<double> scaled = counts_;
  for (double& c : scaled) c *= peak_target / p;
  return ControlSequence(std::move(scaled), slice_);
}

ControlSequence ControlSequence::scaled_to_total(double total_target) const {
  double t = total();
  HAMMER_CHECK_MSG(t > 0, "cannot scale an all-zero sequence");
  std::vector<double> scaled = counts_;
  for (double& c : scaled) c *= total_target / t;
  return ControlSequence(std::move(scaled), slice_);
}

json::Value ControlSequence::to_json() const {
  json::Array arr;
  arr.reserve(counts_.size());
  for (double c : counts_) arr.emplace_back(c);
  return json::object(
      {{"slice_ms",
        std::chrono::duration_cast<std::chrono::milliseconds>(slice_).count()},
       {"counts", json::Value(std::move(arr))}});
}

ControlSequence ControlSequence::from_json(const json::Value& v) {
  std::vector<double> counts;
  for (const json::Value& c : v.at("counts").as_array()) counts.push_back(c.as_double());
  return ControlSequence(std::move(counts),
                         std::chrono::milliseconds(v.at("slice_ms").as_int()));
}

void ControlSequence::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw Error("cannot write control sequence to " + path);
  out << to_json().dump(2);
}

ControlSequence ControlSequence::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot read control sequence from " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_json(json::Value::parse(buffer.str()));
}

}  // namespace hammer::workload
