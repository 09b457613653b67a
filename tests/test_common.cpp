// Tests for src/common: contracts, aligned memory, PARMVN_NUM_THREADS, timer.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <utility>

#include "common/aligned.hpp"
#include "common/contracts.hpp"
#include "common/env.hpp"
#include "common/timer.hpp"

namespace {

using namespace parmvn;

TEST(Contracts, ExpectsThrowsOnViolation) {
  EXPECT_THROW(PARMVN_EXPECTS(1 == 2), Error);
  EXPECT_NO_THROW(PARMVN_EXPECTS(1 == 1));
}

TEST(Contracts, EnsuresThrowsOnViolation) {
  EXPECT_THROW(PARMVN_ENSURES(false), Error);
  EXPECT_NO_THROW(PARMVN_ENSURES(true));
}

TEST(Contracts, MessageMentionsExpressionAndLocation) {
  try {
    PARMVN_EXPECTS(2 + 2 == 5);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(Aligned, VectorDataIs64ByteAligned) {
  for (int n : {1, 3, 17, 1024, 100000}) {
    aligned_vector<double> v(static_cast<std::size_t>(n), 1.0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kSimdAlign, 0u);
    EXPECT_DOUBLE_EQ(v.front(), 1.0);
    EXPECT_DOUBLE_EQ(v.back(), 1.0);
  }
}

TEST(Aligned, AllocatorEquality) {
  AlignedAllocator<double> a;
  AlignedAllocator<float> b;
  EXPECT_TRUE(a == b);
}

// Sets PARMVN_NUM_THREADS, or unsets it for nullptr.
void set_num_threads_env(const char* value) {
  if (value == nullptr) {
    ::unsetenv("PARMVN_NUM_THREADS");
  } else {
    ::setenv("PARMVN_NUM_THREADS", value, 1);
  }
}

TEST(Env, FallbacksWhenUnset) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int expected = hw == 0 ? 1 : static_cast<int>(hw);
  for (const char* v : {static_cast<const char*>(nullptr), ""}) {
    set_num_threads_env(v);
    EXPECT_EQ(default_num_threads(), expected);
  }
  set_num_threads_env(nullptr);
}

TEST(Env, ReadsValuesWhenSet) {
  const std::pair<const char*, int> cases[] = {
      {"1", 1}, {"7", 7}, {"007", 7}, {"2147483647", 2147483647}};
  for (const auto& [v, n] : cases) {
    set_num_threads_env(v);
    EXPECT_EQ(default_num_threads(), n) << v;
  }
  set_num_threads_env(nullptr);
}

TEST(Env, DefaultThreadsPositive) {
  EXPECT_GE(default_num_threads(), 1);
  set_num_threads_env("3");
  EXPECT_EQ(default_num_threads(), 3);
  // Only default_num_threads() sees these values: a Runtime built from a
  // value that slipped through would start that many threads.
  for (const char* v : {"abc", "4x", "4294967297", "2147483648", "-3", "0x10",
                        "0", "+4", " 4", "4 "}) {
    set_num_threads_env(v);
    try {
      (void)default_num_threads();
      ADD_FAILURE() << "accepted PARMVN_NUM_THREADS=\"" << v << "\"";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("PARMVN_NUM_THREADS"),
                std::string::npos)
          << e.what();
    }
  }
  set_num_threads_env(nullptr);
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = t.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 5.0);
  t.reset();
  EXPECT_LT(t.seconds(), 0.015);
}

TEST(Timer, GlobalTimeMonotone) {
  const double a = global_time_s();
  const double b = global_time_s();
  EXPECT_LE(a, b);
}

}  // namespace
