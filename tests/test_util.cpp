#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "src/util/cli.hpp"
#include "src/util/env_config.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"
#include "src/util/table.hpp"
#include "src/util/threadpool.hpp"
#include "src/util/timer.hpp"

namespace {

using namespace vcgt::util;

/// Spin (not sleep) so the measured interval is genuinely elapsed steady
/// time even on heavily loaded CI machines.
void BusyWait(double seconds) {
  Timer t;
  while (t.elapsed() < seconds) {}
}

TEST(Accumulator, BasicMoments) {
  Accumulator a;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) a.add(x);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  EXPECT_DOUBLE_EQ(a.sum(), 10.0);
  EXPECT_NEAR(a.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(Quantile, InterpolatesLinearly) {
  std::vector<double> s{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile(s, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(s, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(s, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(s, 0.25), 2.0);
}

TEST(Quantile, EmptyReturnsZero) { EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0); }

TEST(Quantile, ClampsQOutsideUnitInterval) {
  std::vector<double> s{1, 2, 3};
  EXPECT_DOUBLE_EQ(quantile(s, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(quantile(s, 2.0), 3.0);
}

TEST(Quantile, IgnoresNanSamples) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // NaN samples poison std::sort's ordering (NaN compares false both ways),
  // so they are filtered before sorting instead of propagating garbage.
  EXPECT_DOUBLE_EQ(quantile({nan, 3.0, 1.0, nan, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile({nan, nan}, 0.5), 0.0);  // all-NaN == empty
}

TEST(Quantile, NanQThrows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(quantile({1.0, 2.0}, nan), std::invalid_argument);
}

TEST(Stopwatch, RestartWhileRunningBanksTheOpenInterval) {
  // Regression: start() used to discard the in-flight interval, silently
  // under-reporting any meter whose call sites don't pair start/stop exactly.
  Stopwatch sw;
  sw.start();
  BusyWait(0.002);
  sw.start();  // must bank the ~2ms already elapsed, not drop it
  BusyWait(0.002);
  sw.stop();
  sw.stop();
  EXPECT_GE(sw.total(), 0.004);
}

TEST(Stopwatch, NestedScopedTimersCountTheOuterIntervalOnce) {
  // Nested ScopedTimers on one stopwatch (outer phase calls a helper that
  // meters the same stopwatch) must not double-count the overlap.
  Stopwatch sw;
  Timer wall;
  {
    ScopedTimer outer(sw);
    BusyWait(0.002);
    {
      ScopedTimer inner(sw);
      BusyWait(0.002);
    }
    BusyWait(0.002);
  }
  const double w = wall.elapsed();
  EXPECT_GE(sw.total(), 0.006);
  // Counted once, the total cannot exceed the enclosing wall interval; a
  // double-counted inner interval would add >= 2ms on top of it. Comparing
  // against wall (not an absolute bound) stays robust under CI load: both
  // measurements stretch together.
  EXPECT_LE(sw.total(), w + 1e-4);
  EXPECT_FALSE(sw.running());
}

TEST(Stopwatch, TotalReadableWhileRunningAndClearResets) {
  Stopwatch sw;
  sw.start();
  BusyWait(0.001);
  EXPECT_GT(sw.total(), 0.0);  // live read includes the open interval
  EXPECT_TRUE(sw.running());
  sw.clear();
  EXPECT_DOUBLE_EQ(sw.total(), 0.0);
  EXPECT_FALSE(sw.running());
  sw.stop();  // stop without start stays a no-op after clear
  EXPECT_DOUBLE_EQ(sw.total(), 0.0);
}

TEST(RelDiff, Symmetric) {
  EXPECT_DOUBLE_EQ(rel_diff(2.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(rel_diff(1.0, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(rel_diff(0.0, 0.0), 0.0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, SplitStreamsDiffer) {
  Rng r(9);
  Rng s0 = r.split(0), s1 = r.split(1);
  EXPECT_NE(s0.next_u64(), s1.next_u64());
}

TEST(Table, TextAndCsvRoundTrip) {
  Table t({"a", "b"});
  t.add_row({"1", "x,y"});
  t.add_row({"2", "z"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "a,b\n1,\"x,y\"\n2,z\n");
  std::ostringstream txt;
  t.print_text(txt, "title");
  EXPECT_NE(txt.str().find("title"), std::string::npos);
  EXPECT_NE(txt.str().find("x,y"), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta=4.5", "--flag", "pos1"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("beta", 0.0), 4.5);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_FALSE(cli.get_bool("missing", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(EnvConfig, UnknownVcgtVariableWarnsKnownOneDoesNot) {
  // A script still exporting a retired knob must hear about it.
  ::setenv("VCGT_OP2_RETIRED_KNOB", "0", 1);
  ::setenv("VCGT_OP2_CHAIN_TILE", "64", 1);
  const EnvConfig env = env_config();
  ::unsetenv("VCGT_OP2_RETIRED_KNOB");
  ::unsetenv("VCGT_OP2_CHAIN_TILE");
  int unknown = 0;
  for (const auto& w : env.warnings) {
    if (w == "VCGT_OP2_RETIRED_KNOB: unknown variable, ignored") ++unknown;
    EXPECT_EQ(w.find("VCGT_OP2_CHAIN_TILE"), std::string::npos) << w;
  }
  EXPECT_EQ(unknown, 1);
  EXPECT_EQ(env.op2_chain_tile, 64);
  const std::string text = env.describe();
  EXPECT_NE(text.find("warning: VCGT_OP2_RETIRED_KNOB: unknown variable"), std::string::npos);
  EXPECT_NE(text.find("VCGT_OP2_CHAIN_TILE"), std::string::npos);
  // Unset again: nothing left to report.
  for (const auto& w : env_config().warnings) {
    EXPECT_EQ(w.find("VCGT_OP2_RETIRED_KNOB"), std::string::npos) << w;
  }
}

TEST(ThreadPool, CoversAllIndices) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(hits.size(), [&](int, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i]++;
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, SingleThreadInline) {
  ThreadPool pool(1);
  int calls = 0;
  pool.parallel_for(10, [&](int tid, std::size_t b, std::size_t e) {
    EXPECT_EQ(tid, 0);
    calls += static_cast<int>(e - b);
  });
  EXPECT_EQ(calls, 10);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for(100, [&](int, std::size_t b, std::size_t e) {
      sum += static_cast<int>(e - b);
    });
    EXPECT_EQ(sum.load(), 100);
  }
}

}  // namespace
