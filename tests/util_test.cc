#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/network.h"
#include "util/csv.h"
#include "util/fixed_point.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/units.h"

namespace mpcc {
namespace {

// ------------------------------------------------------------------ units

TEST(Units, TimeConstructors) {
  EXPECT_EQ(seconds(1), kSecond);
  EXPECT_EQ(ms(1), kMillisecond);
  EXPECT_EQ(us(1), kMicrosecond);
  EXPECT_EQ(ms(1.5), 1'500'000);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_ms(kMillisecond), 1.0);
}

TEST(Units, RateConstructors) {
  EXPECT_DOUBLE_EQ(mbps(100), 1e8);
  EXPECT_DOUBLE_EQ(gbps(1), 1e9);
  EXPECT_DOUBLE_EQ(to_mbps(mbps(42)), 42.0);
}

TEST(Units, TransmissionTime) {
  // 1500 bytes at 100 Mbps = 120 microseconds.
  EXPECT_EQ(transmission_time(1500, mbps(100)), 120 * kMicrosecond);
  // 1 byte at 8 bps = 1 second.
  EXPECT_EQ(transmission_time(1, bps(8)), kSecond);
}

TEST(Units, Throughput) {
  EXPECT_DOUBLE_EQ(throughput(1'000'000, kSecond), 8e6);
  EXPECT_DOUBLE_EQ(throughput(100, 0), 0.0);  // degenerate interval
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, ForkDecorrelates) {
  Rng root(7);
  Rng a = root.fork(1);
  Rng b = root.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1000) == b.uniform_int(0, 1000)) ++equal;
  }
  EXPECT_LT(equal, 10);
}

// substream() is the determinism backbone of the fleet engine: flow k's
// stream must depend only on (root seed, stream id), never on how much of
// the root engine has been consumed or in which order other substreams
// were drawn. Distribution outputs are implementation-defined by the
// standard library, so the table asserts properties (purity, order and
// consumption independence, decorrelation) rather than pinned values.
TEST(Rng, SubstreamTableDrivenDeterminism) {
  struct Case {
    std::uint64_t seed;
    std::uint64_t stream;
  };
  const Case cases[] = {
      {1, 0},   {1, 1},       {1, 2},          {42, 0},
      {42, 7},  {42, 1'000'000}, {0xDEADBEEF, 3}, {0xDEADBEEF, 4},
  };
  for (const Case& c : cases) {
    Rng root(c.seed);
    // Purity: two derivations of the same stream are bit-identical.
    Rng a = root.substream(c.stream);
    Rng b = root.substream(c.stream);
    for (int i = 0; i < 32; ++i) {
      ASSERT_DOUBLE_EQ(a.uniform(), b.uniform())
          << "seed=" << c.seed << " stream=" << c.stream << " draw " << i;
    }
    // Consumption independence: draining the root engine must not change
    // what a later substream() derivation produces.
    Rng dirty(c.seed);
    for (int i = 0; i < 100; ++i) dirty.uniform();
    Rng c1 = root.substream(c.stream);
    Rng c2 = dirty.substream(c.stream);
    for (int i = 0; i < 32; ++i) {
      ASSERT_DOUBLE_EQ(c1.uniform(), c2.uniform())
          << "seed=" << c.seed << " stream=" << c.stream;
    }
  }
  // Order independence: deriving streams 0..7 forward vs backward yields
  // the same eight sequences.
  Rng root(99);
  double forward[8], backward[8];
  for (int s = 0; s < 8; ++s) forward[s] = root.substream(s).uniform();
  for (int s = 7; s >= 0; --s) backward[s] = root.substream(s).uniform();
  for (int s = 0; s < 8; ++s) EXPECT_DOUBLE_EQ(forward[s], backward[s]);
  // Decorrelation: adjacent stream ids (the fleet engine uses 2k, 2k+1)
  // must not produce correlated integer draws.
  Rng x = root.substream(2);
  Rng y = root.substream(3);
  int equal = 0;
  for (int i = 0; i < 200; ++i) {
    if (x.uniform_int(0, 1000) == y.uniform_int(0, 1000)) ++equal;
  }
  EXPECT_LT(equal, 10);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(Rng, ParetoMeanAndTail) {
  Rng rng(13);
  double sum = 0;
  const int n = 50000;
  double max_sample = 0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.pareto(2.5, 5.0);
    sum += v;
    max_sample = std::max(max_sample, v);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.5);
  // Heavy tail: the max should far exceed the mean.
  EXPECT_GT(max_sample, 20.0);
  // Scale: minimum possible sample is mean*(alpha-1)/alpha.
  EXPECT_GT(sum / n, 5.0 * 1.5 / 2.5);
}

TEST(Rng, PermutationNoFixedPoint) {
  Rng rng(17);
  for (std::size_t n : {2u, 3u, 10u, 100u}) {
    const auto perm = rng.permutation_no_fixed_point(n);
    ASSERT_EQ(perm.size(), n);
    std::vector<bool> seen(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NE(perm[i], i) << "fixed point at " << i;
      EXPECT_FALSE(seen[perm[i]]);
      seen[perm[i]] = true;
    }
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// ------------------------------------------------------------ fixed point

TEST(FixedPoint, BasicArithmetic) {
  const Fixed a = Fixed::from_double(1.5);
  const Fixed b = Fixed::from_double(2.25);
  EXPECT_DOUBLE_EQ((a + b).to_double(), 3.75);
  EXPECT_DOUBLE_EQ((b - a).to_double(), 0.75);
  EXPECT_NEAR((a * b).to_double(), 3.375, 1e-4);
  EXPECT_NEAR((b / a).to_double(), 1.5, 1e-4);
  EXPECT_EQ(Fixed::from_int(7).to_int(), 7);
  EXPECT_EQ((-Fixed::from_int(3)).to_int(), -3);
}

TEST(FixedPoint, DivisionByZeroSaturates) {
  const Fixed x = Fixed::from_int(5) / Fixed::from_int(0);
  EXPECT_GT(x.to_double(), 1e9);
}

TEST(FixedPoint, ExpAccuracy) {
  // Tolerance: 0.2% relative, floored at two Q16.16 quanta (quantisation
  // dominates once exp(x) ~ 2^-16, i.e. for very negative x).
  for (double x = -8.0; x <= 8.0; x += 0.37) {
    const double got = fixed_exp(Fixed::from_double(x)).to_double();
    const double want = std::exp(x);
    const double tol = std::max(2e-3 * want, 2.0 / Fixed::kOne);
    EXPECT_NEAR(got, want, tol) << "x=" << x;
  }
}

TEST(FixedPoint, ExpSaturation) {
  EXPECT_GT(fixed_exp(Fixed::from_int(100)).to_double(), 1e11);
  EXPECT_EQ(fixed_exp(Fixed::from_int(-100)).raw(), 0);
}

TEST(FixedPoint, SigmoidProperties) {
  EXPECT_NEAR(fixed_sigmoid(Fixed::from_int(0)).to_double(), 0.5, 1e-3);
  // Symmetry: s(x) + s(-x) == 1.
  for (double x : {0.5, 1.0, 2.0, 5.0}) {
    const double p = fixed_sigmoid(Fixed::from_double(x)).to_double();
    const double n = fixed_sigmoid(Fixed::from_double(-x)).to_double();
    EXPECT_NEAR(p + n, 1.0, 2e-3) << "x=" << x;
    EXPECT_GT(p, 0.5);
    EXPECT_LT(n, 0.5);
  }
  EXPECT_NEAR(fixed_sigmoid(Fixed::from_int(5)).to_double(), 1.0 / (1 + std::exp(-5.0)),
              1e-3);
}

TEST(FixedPoint, Taylor3AccurateNearZeroOnly) {
  // Near 0 the 3-term series is fine...
  EXPECT_NEAR(fixed_exp_taylor3(Fixed::from_double(0.2)).to_double(), std::exp(0.2),
              1e-3);
  // ...but far from 0 it diverges badly (the ablation's point).
  const double far = fixed_exp_taylor3(Fixed::from_double(4.0)).to_double();
  EXPECT_GT(std::fabs(far - std::exp(4.0)) / std::exp(4.0), 0.3);
}

// ---------------------------------------------------------------- logging

TEST(Logging, NoClockMeansLevelTagOnly) {
  const std::string line = format_log_line(LogLevel::kWarn, "plain");
  EXPECT_EQ(line, "[WARN ] plain");
}

TEST(Logging, InstalledClockPrefixesSimTime) {
  std::string line;
  {
    LogClock clock([] { return ms(1500); });
    line = format_log_line(LogLevel::kInfo, "hello");
  }
  EXPECT_NE(line.find("[INFO ]"), std::string::npos);
  EXPECT_NE(line.find("1.500s]"), std::string::npos);
  EXPECT_NE(line.find("hello"), std::string::npos);
  // Destruction restores the bare format.
  EXPECT_EQ(format_log_line(LogLevel::kInfo, "hello"), "[INFO ] hello");
}

TEST(Logging, ClocksNestMostRecentWins) {
  LogClock outer([] { return kSecond; });
  {
    LogClock inner([] { return 2 * kSecond; });
    EXPECT_NE(format_log_line(LogLevel::kDebug, "x").find("2.000s]"),
              std::string::npos);
  }
  // Inner clock gone: the outer one is visible again.
  EXPECT_NE(format_log_line(LogLevel::kDebug, "x").find("1.000s]"),
            std::string::npos);
}

TEST(Logging, NonLifoClockDestructionUnlinksTheRightEntry) {
  // Two clocks destroyed out of construction order: destroying the OLDER
  // one must keep the newer one active (the per-context replacement for the
  // removed id-fallback scheme).
  auto older = std::make_unique<LogClock>([] { return kSecond; });
  auto newer = std::make_unique<LogClock>([] { return 2 * kSecond; });
  older.reset();
  EXPECT_NE(format_log_line(LogLevel::kDebug, "x").find("2.000s]"),
            std::string::npos);
  newer.reset();
  EXPECT_EQ(format_log_line(LogLevel::kDebug, "x"), "[DEBUG] x");
}

TEST(Logging, ClockIsPerThread) {
  // A clock installed on this thread must not prefix lines on another
  // thread, and vice versa — workers running concurrent simulations keep
  // their own sim-time prefixes.
  LogClock clock([] { return ms(1500); });
  std::string other_thread_line;
  std::thread([&] {
    other_thread_line = format_log_line(LogLevel::kInfo, "t");
  }).join();
  EXPECT_EQ(other_thread_line, "[INFO ] t");
  EXPECT_NE(format_log_line(LogLevel::kInfo, "t").find("1.500s]"),
            std::string::npos);
}

TEST(Logging, NetworkInstallsItsEventListAsClock) {
  {
    Network net(1);
    EXPECT_EQ(format_log_line(LogLevel::kInfo, "t").find("[INFO ]["), 0u);
  }
  // Network destruction uninstalls the clock again.
  EXPECT_EQ(format_log_line(LogLevel::kInfo, "t"), "[INFO ] t");
}

// -------------------------------------------------------------------- csv

TEST(Table, PrintAndCsv) {
  Table t({"name", "value", "count"});
  t.add_row({std::string("alpha"), 1.5, std::int64_t{10}});
  t.add_row({std::string("beta"), 2.25, std::int64_t{20}});
  EXPECT_EQ(t.rows(), 2u);

  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("2.25"), std::string::npos);

  const std::string path = ::testing::TempDir() + "/mpcc_table_test.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "name,value,count");
  std::string row1;
  std::getline(in, row1);
  EXPECT_EQ(row1, "alpha,1.5,10");
}

// ------------------------------------------------------------------- json

TEST(Json, ObjectsRoundTripStringsAndDoublesExactly) {
  const std::map<std::string, std::string> strings = {
      {"plain", "abc"}, {"quote\"d", "a \"b\" \\c"}, {"ctl", "tab\tnl\nbell\a"}};
  const std::map<std::string, double> numbers = {
      {"third", 1.0 / 3.0}, {"tiny", 5e-324}, {"neg", -17979.921690389816}};
  std::ostringstream os;
  json::write_object(os, strings);
  os << ' ';
  json::write_object(os, numbers);
  const std::string text = os.str();
  EXPECT_EQ(text.find('\a'), std::string::npos);  // control chars escaped

  json::Cursor cur(text, "test");
  EXPECT_EQ(cur.string_object(), strings);
  const std::map<std::string, double> back = cur.number_object();
  ASSERT_EQ(back.size(), numbers.size());
  for (const auto& [key, value] : numbers) EXPECT_EQ(back.at(key), value) << key;
}

TEST(Json, WriterMatchesTheGoldenBankLayout) {
  std::ostringstream os;
  json::write_object(os, std::map<std::string, std::string>{{"cc", "lia"}, {"seed", "1"}});
  json::write_object(os, std::map<std::string, double>{{"x", 0.1}});
  json::write_object(os, std::map<std::string, double>{});
  EXPECT_EQ(os.str(), "{\"cc\": \"lia\", \"seed\": \"1\"}{\"x\": 0.10000000000000001}{}");
  EXPECT_EQ(json::number(std::uint64_t{18446744073709551615u}), "18446744073709551615");
}

TEST(Json, CursorWalksFieldsAndItemsAndSkipsUnknownValues) {
  const std::string text =
      "{\"n\": 2, \"skip_obj\": {\"a\": [1, {\"b\": null}], \"c\": \"}\"},\n"
      " \"list\": [\"x\", \"y\"], \"flag\": false, \"skip_null\": null}";
  json::Cursor cur(text, "test");
  double n = 0;
  std::vector<std::string> list;
  bool flag = true;
  cur.fields([&](const std::string& key) {
    if (key == "n") {
      n = cur.number();
    } else if (key == "list") {
      cur.items([&] { list.push_back(cur.string()); });
    } else if (key == "flag") {
      flag = cur.boolean();
    } else {
      cur.skip();
    }
  });
  EXPECT_EQ(n, 2.0);
  EXPECT_EQ(list, (std::vector<std::string>{"x", "y"}));
  EXPECT_FALSE(flag);
}

TEST(Json, CursorErrorsNameWhereAndOffset) {
  const std::string torn = "{\"index\": 1, \"ok\": tr";
  json::Cursor cur(torn, "checkpoint line 7");
  try {
    cur.skip();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("checkpoint line 7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("offset"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace mpcc
