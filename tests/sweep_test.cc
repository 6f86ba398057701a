// Sweep engine + SimContext isolation: plan expansion, registry, parallel
// execution, and — the property the whole refactor exists for — bit-exact
// determinism of results regardless of worker count or invocation order.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/scenarios.h"
#include "harness/sweep.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/context.h"

namespace mpcc::harness {
namespace {

// ------------------------------------------------------------ plan/axes

TEST(SweepAxis, ParsesCommaList) {
  const auto v = parse_axis_values("lia,olia,dts");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "lia");
  EXPECT_EQ(v[2], "dts");
}

TEST(SweepAxis, ParsesNumericRange) {
  const auto v = parse_axis_values("2:8:2");
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], "2");
  EXPECT_EQ(v[3], "8");
}

TEST(SweepAxis, FractionalRangeIncludesEndpoint) {
  const auto v = parse_axis_values("0.1:0.5:0.1");
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[0], "0.1");
  EXPECT_EQ(v[4], "0.5");
}

TEST(SweepAxis, NonNumericColonsFallBackToSingleValue) {
  const auto v = parse_axis_values("a:b:c");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], "a:b:c");
}

// Whitespace handling and empty-expression rejection, table-driven: every
// accepted expression lists its expected values; every rejected one names a
// substring the std::invalid_argument message must carry.
TEST(SweepAxis, TrimsWhitespaceAroundItemsAndRangeParts) {
  struct Case {
    const char* expr;
    std::vector<std::string> expect;
  };
  const Case cases[] = {
      {" lia , olia ", {"lia", "olia"}},
      {"lia,  dts-ep  ,balia", {"lia", "dts-ep", "balia"}},
      {"lia,,olia", {"lia", "olia"}},      // empty items are dropped
      {" lia ,", {"lia"}},                 // trailing comma
      {"\tlia\t", {"lia"}},                // lone padded value
      {" 1:5:2 ", {"1", "3", "5"}},        // padded numeric range
      {"1 : 5 : 2", {"1", "3", "5"}},      // padded range parts
      {" a:b:c ", {"a:b:c"}},              // non-numeric fallback, trimmed
  };
  for (const Case& c : cases) {
    const auto v = parse_axis_values(c.expr);
    ASSERT_EQ(v.size(), c.expect.size()) << "expr: \"" << c.expr << "\"";
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_EQ(v[i], c.expect[i]) << "expr: \"" << c.expr << "\" item " << i;
    }
  }
}

TEST(SweepAxis, RejectsExpressionsWithNoValues) {
  struct Case {
    const char* expr;
    const char* expect_in_message;
  };
  const Case cases[] = {
      {"", "has no values"},
      {"   ", "has no values"},
      {",", "has no values"},
      {",,", "has no values"},
      {" , , ", "has no values"},
      {"5:1:1", "is empty (lo > hi?)"},   // descending range, positive step
      {"5:1:0.5", "is empty (lo > hi?)"},
  };
  for (const Case& c : cases) {
    try {
      parse_axis_values(c.expr);
      FAIL() << "expected std::invalid_argument for: \"" << c.expr << "\"";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect_in_message),
                std::string::npos)
          << "expr: \"" << c.expr << "\"\nmessage: " << e.what();
    }
  }
}

TEST(SweepPlan, CartesianProductWithSeedReplicates) {
  SweepPlan plan;
  plan.scenario = "two_path";
  plan.axes = {{"cc", {"lia", "olia"}}, {"rate0_mbps", {"50", "100", "200"}}};
  plan.seeds = 4;
  plan.seed_base = 10;
  const auto points = plan.points();
  ASSERT_EQ(points.size(), 2u * 3u * 4u);
  // Rightmost-fastest: first four points are cc=lia rate0=50 seeds 10..13.
  EXPECT_EQ(points[0].at("cc"), "lia");
  EXPECT_EQ(points[0].at("rate0_mbps"), "50");
  EXPECT_EQ(points[0].at("seed"), "10");
  EXPECT_EQ(points[3].at("seed"), "13");
  EXPECT_EQ(points[4].at("rate0_mbps"), "100");
  EXPECT_EQ(points.back().at("cc"), "olia");
  EXPECT_EQ(points.back().at("rate0_mbps"), "200");
  EXPECT_EQ(points.back().at("seed"), "13");
}

TEST(SweepPlan, ExplicitSeedAxisSuppressesReplication) {
  SweepPlan plan;
  plan.scenario = "two_path";
  plan.axes = {{"seed", {"3", "5"}}};
  plan.seeds = 8;  // ignored: the axis wins
  const auto points = plan.points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].at("seed"), "3");
  EXPECT_EQ(points[1].at("seed"), "5");
}

// ------------------------------------------------------------- registry

TEST(ScenarioRegistry, BuiltinsAreRegistered) {
  register_builtin_scenarios();
  for (const char* name : {"two_path", "dumbbell", "datacenter", "wireless"}) {
    const ScenarioSpec* spec = ScenarioRegistry::instance().find(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_TRUE(spec->run != nullptr) << name;
    EXPECT_FALSE(spec->params.empty()) << name;
    EXPECT_TRUE(spec->has_param("seed"));
    EXPECT_FALSE(spec->has_param("no_such_param"));
  }
}

TEST(Sweep, UnknownScenarioThrows) {
  SweepPlan plan;
  plan.scenario = "no_such_scenario";
  EXPECT_THROW(run_sweep(plan), std::invalid_argument);
}

TEST(Sweep, UnknownAxisParameterThrows) {
  SweepPlan plan;
  plan.scenario = "two_path";
  plan.axes = {{"bogus_param", {"1"}}};
  EXPECT_THROW(run_sweep(plan), std::invalid_argument);
}

// ------------------------------------------------------------- parallel

TEST(ParallelFor, VisitsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), 8,
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, InlineWhenSingleJob) {
  const auto main_id = std::this_thread::get_id();
  parallel_for(4, 1, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), main_id);
  });
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(parallel_for(16, 4,
                            [&](std::size_t i) {
                              if (i == 7) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

// -------------------------------------------- determinism (the big one)

SweepReport small_two_path_sweep(int jobs) {
  SweepPlan plan;
  plan.scenario = "two_path";
  plan.axes = {{"cc", {"lia", "dts"}}, {"duration_s", {"2"}}};
  plan.seeds = 2;
  SweepOptions options;
  options.jobs = jobs;
  return run_sweep(plan, options);
}

void expect_identical_reports(const SweepReport& a, const SweepReport& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_TRUE(a.points[i].ok) << a.points[i].error;
    EXPECT_EQ(a.points[i].params, b.points[i].params) << "point " << i;
    // Bit-exact double equality, not EXPECT_NEAR: identical seeds must give
    // identical simulations whatever thread ran them.
    EXPECT_EQ(a.points[i].values, b.points[i].values) << "point " << i;
  }
}

TEST(SweepDeterminism, SameSeedSameResultAcrossJobCounts) {
  const SweepReport serial = small_two_path_sweep(1);
  const SweepReport parallel8 = small_two_path_sweep(8);
  expect_identical_reports(serial, parallel8);
}

TEST(SweepDeterminism, RepeatedInvocationsAreIdentical) {
  const SweepReport first = small_two_path_sweep(4);
  const SweepReport second = small_two_path_sweep(4);
  expect_identical_reports(first, second);
}

TEST(SweepDeterminism, DistinctSeedsGiveDistinctResults) {
  // Long enough for the seeded Pareto cross-traffic to actually differ
  // (burst on/off periods are seconds-scale).
  SweepPlan plan;
  plan.scenario = "two_path";
  plan.axes = {{"cc", {"lia"}}, {"duration_s", {"5"}}};
  plan.seeds = 2;
  SweepOptions options;
  options.jobs = 2;
  const SweepReport report = run_sweep(plan, options);
  ASSERT_EQ(report.points.size(), 2u);
  EXPECT_NE(report.points[0].values, report.points[1].values);
}

// RunResult-level equality through the direct ctx runner (not just the
// flattened sweep rows): two isolated contexts with the same seed produce
// the same simulation byte for byte.
TEST(SweepDeterminism, CtxRunnerBitIdenticalAcrossContexts) {
  TwoPathOptions options;
  options.cc = "olia";
  options.duration = seconds(2);
  options.seed = 42;

  auto once = [&] {
    SimContext::Options copt;
    copt.seed = options.seed;
    copt.isolate_obs = true;
    SimContext ctx(copt);
    SimContext::Scope scope(ctx);
    return run_two_path(ctx, options);
  };
  const TwoPathResult a = once();
  const TwoPathResult b = once();
  EXPECT_EQ(a.run.energy_j, b.run.energy_j);
  EXPECT_EQ(a.run.avg_power_w, b.run.avg_power_w);
  EXPECT_EQ(a.run.bytes_delivered, b.run.bytes_delivered);
  EXPECT_EQ(a.run.duration, b.run.duration);
  EXPECT_EQ(a.run.retransmit_rate, b.run.retransmit_rate);
  EXPECT_EQ(a.subflow_bytes, b.subflow_bytes);
}

// Metric snapshots: isolated contexts collect identical metrics for
// identical seeds, and runs never leak metrics into each other's registry.
TEST(SweepDeterminism, MetricSnapshotsIdenticalAndIsolated) {
  auto snapshot_csv = [](std::uint64_t seed) {
    SimContext::Options copt;
    copt.seed = seed;
    copt.isolate_obs = true;
    SimContext ctx(copt);
    std::string csv;
    {
      SimContext::Scope scope(ctx);
      // Hot-path metrics (queue occupancy, RTT) ride the trace-enable bit.
      ctx.tracer().enable(obs::kAllTraceCategories);
      TwoPathOptions options;
      options.cc = "lia";
      options.duration = seconds(5);
      options.seed = seed;
      run_two_path(ctx, options);
      std::ostringstream os;
      ctx.metrics().snapshot().print(os);
      csv = os.str();
    }
    return csv;
  };

  const std::string a = snapshot_csv(7);
  const std::string b = snapshot_csv(7);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  // A different seed must actually change the collected metrics (guards
  // against the snapshot accidentally being empty/static).
  EXPECT_NE(snapshot_csv(8), a);
}

// Concurrent isolated runs do not interfere: run the same seed on many
// threads at once; every thread must see the bit-identical result.
TEST(SweepDeterminism, ConcurrentSameSeedRunsAgree) {
  constexpr int kThreads = 8;
  std::vector<double> energy(kThreads, 0);
  std::vector<Bytes> bytes(kThreads, 0);
  parallel_for(kThreads, kThreads, [&](std::size_t i) {
    SimContext::Options copt;
    copt.seed = 99;
    copt.isolate_obs = true;
    SimContext ctx(copt);
    SimContext::Scope scope(ctx);
    TwoPathOptions options;
    options.cc = "dts";
    options.duration = seconds(1);
    options.seed = 99;
    const TwoPathResult r = run_two_path(ctx, options);
    energy[i] = r.run.energy_j;
    bytes[i] = r.run.bytes_delivered;
  });
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(energy[i], energy[0]) << "thread " << i;
    EXPECT_EQ(bytes[i], bytes[0]) << "thread " << i;
  }
}

// ------------------------------------------------------------- reporting

TEST(SweepReport, TableMergesParamAndValueColumns) {
  const SweepReport report = small_two_path_sweep(2);
  const Table t = report.table();
  ASSERT_EQ(t.rows(), report.points.size());
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("cc"), std::string::npos);
  EXPECT_NE(out.find("energy_j"), std::string::npos);
  EXPECT_NE(out.find("lia"), std::string::npos);
}

TEST(SweepReport, JsonRoundTripsPointCount) {
  const SweepReport report = small_two_path_sweep(2);
  const std::string path = ::testing::TempDir() + "/mpcc_sweep_test.json";
  ASSERT_TRUE(report.write_json(path));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"scenario\": \"two_path\""), std::string::npos);
  std::size_t runs = 0;
  for (std::size_t pos = 0; (pos = content.find("\"run\":", pos)) != std::string::npos;
       ++pos) {
    ++runs;
  }
  EXPECT_EQ(runs, report.points.size());
}

// A chaos_heal sweep is the healing baseline (docs/CHAOS.md): perf_total()
// folds the rows into worst recovery (max), MTBF (min) and total faults
// (sum), and summary() prints the fault-injection lines only when a
// campaign touched the sweep.
TEST(SweepReport, PerfTotalFoldsChaosRowsAndSummaryPrintsThemOnlyIfFaulted) {
  SweepPlan plan;
  plan.scenario = "chaos_heal";
  plan.axes = {{"duration_s", {"6"}}};
  plan.seeds = 2;
  const SweepReport chaos = run_sweep(plan);
  ASSERT_EQ(chaos.points.size(), 2u);
  double worst_recovery = -1;
  double min_mtbf = 0;
  std::uint64_t faults = 0;
  for (const SweepPointResult& p : chaos.points) {
    ASSERT_TRUE(p.ok) << p.error;
    worst_recovery = std::max(worst_recovery, p.values.at("recovery_s"));
    const double mtbf = p.values.at("mtbf_s");
    if (mtbf > 0 && (min_mtbf == 0 || mtbf < min_mtbf)) min_mtbf = mtbf;
    faults += static_cast<std::uint64_t>(p.values.at("faults"));
  }
  const obs::PerfStats total = chaos.perf_total();
  EXPECT_EQ(total.recovery_s, worst_recovery);
  EXPECT_EQ(total.mtbf_s, min_mtbf);
  EXPECT_EQ(total.chaos_faults, faults);
  EXPECT_GT(faults, 0u);
  const std::string faulted = chaos.summary();
  EXPECT_NE(faulted.find("\n  chaos "), std::string::npos) << faulted;
  EXPECT_NE(faulted.find("\n  faults "), std::string::npos) << faulted;
  EXPECT_NE(faulted.find("\n  healing    worst recovery"), std::string::npos)
      << faulted;

  const std::string calm = small_two_path_sweep(1).summary();
  for (const char* line : {"\n  chaos ", "\n  faults ", "\n  healing "}) {
    EXPECT_EQ(calm.find(line), std::string::npos) << line << "\n" << calm;
  }
}

TEST(Sweep, PointFailureIsRecordedNotThrown) {
  SweepPlan plan;
  plan.scenario = "datacenter";
  plan.axes = {{"topo", {"no_such_fabric"}}, {"duration_s", {"0.01"}}};
  const SweepReport report = run_sweep(plan);
  ASSERT_EQ(report.points.size(), 1u);
  EXPECT_FALSE(report.points[0].ok);
  EXPECT_NE(report.points[0].error.find("no_such_fabric"), std::string::npos);
  EXPECT_EQ(report.failed(), 1u);
}

}  // namespace
}  // namespace mpcc::harness
