#include "workload/control_sequence.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "util/errors.hpp"

namespace hammer::workload {
namespace {

using namespace std::chrono_literals;

TEST(ControlSequenceTest, ConstantRate) {
  ControlSequence cs = ControlSequence::constant(100.0, 5s, 1s);
  EXPECT_EQ(cs.num_slices(), 5u);
  EXPECT_DOUBLE_EQ(cs.total(), 500.0);
  EXPECT_DOUBLE_EQ(cs.peak(), 100.0);
  EXPECT_EQ(cs.duration(), 5s);
}

TEST(ControlSequenceTest, ConstantRateRoundsSliceCountUp) {
  ControlSequence cs = ControlSequence::constant(10.0, 2500ms, 1s);
  EXPECT_EQ(cs.num_slices(), 3u);
}

TEST(ControlSequenceTest, ScaledToPeak) {
  ControlSequence cs({1.0, 4.0, 2.0}, 1s);
  ControlSequence scaled = cs.scaled_to_peak(100.0);
  EXPECT_DOUBLE_EQ(scaled.counts()[0], 25.0);
  EXPECT_DOUBLE_EQ(scaled.counts()[1], 100.0);
  EXPECT_DOUBLE_EQ(scaled.counts()[2], 50.0);
}

TEST(ControlSequenceTest, ScaledToTotal) {
  ControlSequence cs({1.0, 1.0, 2.0}, 1s);
  ControlSequence scaled = cs.scaled_to_total(400.0);
  EXPECT_DOUBLE_EQ(scaled.total(), 400.0);
  EXPECT_DOUBLE_EQ(scaled.counts()[2], 200.0);
}

TEST(ControlSequenceTest, ScalingZeroSequenceThrows) {
  ControlSequence cs({0.0, 0.0}, 1s);
  EXPECT_THROW(cs.scaled_to_peak(10), LogicError);
  EXPECT_THROW(cs.scaled_to_total(10), LogicError);
}

TEST(ControlSequenceTest, NegativeCountsRejected) {
  EXPECT_THROW(ControlSequence({1.0, -1.0}, 1s), LogicError);
}

TEST(ControlSequenceTest, JsonRoundTrip) {
  ControlSequence cs({3.0, 1.5, 0.0, 7.0}, 250ms);
  ControlSequence back = ControlSequence::from_json(cs.to_json());
  EXPECT_EQ(back.counts(), cs.counts());
  EXPECT_EQ(back.slice(), cs.slice());
}

TEST(ControlSequenceTest, FileRoundTrip) {
  ControlSequence cs({2.0, 5.0}, 1s);
  std::string path = ::testing::TempDir() + "/cs_test.json";
  cs.save(path);
  ControlSequence back = ControlSequence::load(path);
  EXPECT_EQ(back.counts(), cs.counts());
  std::remove(path.c_str());
}

TEST(ControlSequenceTest, LoadMissingFileThrows) {
  EXPECT_THROW(ControlSequence::load("/nonexistent/cs.json"), Error);
}

}  // namespace
}  // namespace hammer::workload
