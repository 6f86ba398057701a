#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/checkpoint.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/trace.h"
#include "sim/context.h"
#include "sim/timer.h"
#include "util/units.h"

namespace mpcc {
namespace {

using obs::TraceCategory;
using obs::TraceEvent;

// The tracer and registry are process-wide singletons (like the logger), so
// each test starts from a known state: tracing off, ring empty, metric
// values zeroed. Registered metric *names* survive across tests by design
// (entries have stable addresses for the process lifetime), so assertions
// probe specific entries rather than whole-registry equality.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::tracer().disable();
    obs::tracer().clear();
    obs::set_sim_profiling(false);
    obs::metrics().reset();
  }
  void TearDown() override {
    obs::tracer().disable();
    obs::set_sim_profiling(false);
  }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ----------------------------------------------------------------- tracer

TEST_F(ObsTest, DisabledTracerRecordsNothing) {
  const obs::SourceId src = obs::tracer().intern("t/src");
  MPCC_TRACE(TraceCategory::kCwnd, TraceEvent::kCwnd, src, kSecond, 100.0);
  EXPECT_EQ(obs::tracer().total_recorded(), 0u);
  EXPECT_EQ(obs::tracer().size(), 0u);
}

TEST_F(ObsTest, CategoryFilteringDropsDisabledCategories) {
  obs::tracer().enable(obs::category_bit(TraceCategory::kCwnd), 1024);
  const obs::SourceId src = obs::tracer().intern("t/filter");
  MPCC_TRACE(TraceCategory::kCwnd, TraceEvent::kCwnd, src, kSecond, 1.0);
  MPCC_TRACE(TraceCategory::kQueue, TraceEvent::kEnqueue, src, kSecond, 2.0);
  MPCC_TRACE(TraceCategory::kCc, TraceEvent::kEpsilon, src, kSecond, 3.0);
  ASSERT_EQ(obs::tracer().size(), 1u);
  EXPECT_EQ(obs::tracer().snapshot()[0].event, TraceEvent::kCwnd);
}

TEST_F(ObsTest, MacroDoesNotEvaluateArgsWhenCategoryDisabled) {
  obs::tracer().enable(obs::category_bit(TraceCategory::kCwnd), 64);
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return 1.0;
  };
  const obs::SourceId src = obs::tracer().intern("t/lazy");
  MPCC_TRACE(TraceCategory::kQueue, TraceEvent::kEnqueue, src, kSecond,
             expensive());
  EXPECT_EQ(evaluations, 0);
  MPCC_TRACE(TraceCategory::kCwnd, TraceEvent::kCwnd, src, kSecond, expensive());
  EXPECT_EQ(evaluations, 1);
}

TEST_F(ObsTest, RingWrapsOverwritingOldest) {
  obs::tracer().enable(obs::kAllTraceCategories, 8);
  const obs::SourceId src = obs::tracer().intern("t/wrap");
  for (int i = 0; i < 20; ++i) {
    obs::tracer().record(TraceCategory::kCwnd, TraceEvent::kCwnd, src,
                         i * kMillisecond, static_cast<double>(i));
  }
  EXPECT_EQ(obs::tracer().total_recorded(), 20u);
  EXPECT_EQ(obs::tracer().size(), 8u);
  EXPECT_EQ(obs::tracer().capacity(), 8u);

  const auto records = obs::tracer().snapshot();
  ASSERT_EQ(records.size(), 8u);
  // Oldest first: records 12..19 survive.
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(records[i].v0, 12.0 + i);
    EXPECT_EQ(records[i].time, (12 + i) * kMillisecond);
  }
}

TEST_F(ObsTest, SamplingKeepsOneInN) {
  obs::tracer().enable(obs::kAllTraceCategories, 1024);
  obs::tracer().set_sampling(TraceCategory::kQueue, 4);
  const obs::SourceId src = obs::tracer().intern("t/sample");
  for (int i = 0; i < 40; ++i) {
    obs::tracer().record(TraceCategory::kQueue, TraceEvent::kEnqueue, src,
                         i * kMicrosecond, static_cast<double>(i));
  }
  EXPECT_EQ(obs::tracer().total_recorded(), 10u);
  // Other categories stay unsampled.
  obs::tracer().record(TraceCategory::kCwnd, TraceEvent::kCwnd, src, kSecond);
  EXPECT_EQ(obs::tracer().total_recorded(), 11u);
}

TEST_F(ObsTest, InternDeduplicatesNames) {
  const obs::SourceId a = obs::tracer().intern("t/dedup-A");
  const obs::SourceId b = obs::tracer().intern("t/dedup-B");
  EXPECT_NE(a, b);
  EXPECT_EQ(obs::tracer().intern("t/dedup-A"), a);
  EXPECT_EQ(obs::tracer().source_name(a), "t/dedup-A");
  // clear() keeps interned names (components hold ids across runs).
  obs::tracer().clear();
  EXPECT_EQ(obs::tracer().intern("t/dedup-B"), b);
}

TEST_F(ObsTest, ParseTraceCategories) {
  EXPECT_EQ(obs::parse_trace_categories("all"), obs::kAllTraceCategories);
  EXPECT_EQ(obs::parse_trace_categories(""), obs::kAllTraceCategories);
  EXPECT_EQ(obs::parse_trace_categories("queue"),
            obs::category_bit(TraceCategory::kQueue));
  EXPECT_EQ(obs::parse_trace_categories("cwnd,energy"),
            obs::category_bit(TraceCategory::kCwnd) |
                obs::category_bit(TraceCategory::kEnergy));
  // Unknown names are skipped (warned), known ones still apply.
  EXPECT_EQ(obs::parse_trace_categories("bogus,cc"),
            obs::category_bit(TraceCategory::kCc));
}

// ---------------------------------------------------------------- metrics

TEST_F(ObsTest, CounterAndGaugeIdentityIsStable) {
  obs::Counter& c1 = obs::metrics().counter("test.obs.counter");
  obs::Counter& c2 = obs::metrics().counter("test.obs.counter");
  EXPECT_EQ(&c1, &c2);
  c1.inc();
  c1.inc(4);
  EXPECT_EQ(c2.value(), 5u);

  obs::Gauge& g = obs::metrics().gauge("test.obs.gauge");
  EXPECT_FALSE(g.has_value());
  g.set(2.5);
  EXPECT_TRUE(obs::metrics().gauge("test.obs.gauge").has_value());
  EXPECT_DOUBLE_EQ(obs::metrics().gauge("test.obs.gauge").value(), 2.5);
}

TEST_F(ObsTest, TypeMismatchReturnsScratchMetric) {
  obs::Counter& c = obs::metrics().counter("test.obs.typed");
  c.inc();
  // Same name as a gauge: warns and hands back scratch storage, without
  // corrupting the counter.
  obs::Gauge& scratch = obs::metrics().gauge("test.obs.typed");
  scratch.set(9.0);
  EXPECT_EQ(obs::metrics().counter("test.obs.typed").value(), 1u);
}

TEST_F(ObsTest, RegistryResetZeroesValuesKeepsEntries) {
  obs::metrics().counter("test.obs.reset").inc(7);
  obs::metrics().histogram("test.obs.reset_h").record(3);
  const std::size_t before = obs::metrics().size();
  obs::metrics().reset();
  EXPECT_EQ(obs::metrics().size(), before);
  EXPECT_EQ(obs::metrics().counter("test.obs.reset").value(), 0u);
  EXPECT_EQ(obs::metrics().histogram("test.obs.reset_h").count(), 0u);
}

TEST_F(ObsTest, SnapshotCsvGoldenHeaderAndRow) {
  obs::metrics().counter("test.obs.csv_counter").inc(3);

  const std::string path = ::testing::TempDir() + "/mpcc_obs_metrics.csv";
  obs::metrics().write_csv(path);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "name,type,count,sum,mean,min,max,p50,p90,p99");
  bool found = false;
  for (std::string row; std::getline(in, row);) {
    if (row.rfind("test.obs.csv_counter,counter,3,", 0) == 0) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, JsonExportContainsMetric) {
  obs::metrics().gauge("test.obs.json_gauge").set(1.25);
  const std::string path = ::testing::TempDir() + "/mpcc_obs_metrics.json";
  obs::metrics().write_json(path);
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.obs.json_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("1.25"), std::string::npos);
}

// -------------------------------------------------------------- exporters

TEST_F(ObsTest, ChromeTraceGoldenCounterEvent) {
  obs::tracer().enable(obs::kAllTraceCategories, 64);
  const obs::SourceId src = obs::tracer().intern("conn0:sf0");
  obs::tracer().record(TraceCategory::kCwnd, TraceEvent::kCwnd, src,
                       1500 * kMicrosecond, 20000.0, 64000.0);

  std::ostringstream os;
  obs::write_chrome_trace(obs::tracer(), os);
  const std::string json = os.str();
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"conn0:sf0/cwnd\",\"ph\":\"C\",\"pid\":1,"
                      "\"tid\":0,\"ts\":1500"),
            std::string::npos);
  EXPECT_NE(json.find("\"cwnd_bytes\":20000"), std::string::npos);
  EXPECT_NE(json.find("\"ssthresh_bytes\":64000"), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceGoldenInstantEventAndThreadTrack) {
  obs::tracer().enable(obs::kAllTraceCategories, 64);
  const obs::SourceId src = obs::tracer().intern("t/instant \"q\"");
  obs::tracer().record(TraceCategory::kSubflow, TraceEvent::kFastRetransmit,
                       src, 2 * kMillisecond, 10000.0, 5000.0, 3, 42);

  std::ostringstream os;
  obs::write_chrome_trace(obs::tracer(), os);
  const std::string json = os.str();
  // Source names are escaped in thread_name metadata.
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("t/instant \\\"q\\\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fast_retransmit\",\"ph\":\"i\",\"s\":\"t\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"subflow\""), std::string::npos);
  EXPECT_NE(json.find("\"i1\":42"), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceFileRoundtrip) {
  obs::tracer().enable(obs::kAllTraceCategories, 64);
  const obs::SourceId src = obs::tracer().intern("t/file");
  obs::tracer().record(TraceCategory::kEnergy, TraceEvent::kMeterSample, src,
                       kSecond, 3.5, 12.0);
  const std::string path = ::testing::TempDir() + "/mpcc_obs.trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(obs::tracer(), path));
  const std::string json = slurp(path);
  EXPECT_NE(json.find("t/file/power_w"), std::string::npos);
  EXPECT_NE(json.find("\"watts\":3.5"), std::string::npos);
  // Unwritable path reports failure instead of silently dropping the trace.
  EXPECT_FALSE(obs::write_chrome_trace(obs::tracer(),
                                       "/nonexistent-dir/trace.json"));
}

// ------------------------------------------------- event-loop profiling

TEST_F(ObsTest, EventListProfilingAggregatesPerSource) {
  obs::set_sim_profiling(true);
  {
    EventList events;
    int fired = 0;
    Timer fast(events, "prof-fast", [&] { ++fired; });
    Timer slow(events, "prof-slow", [&] { ++fired; });
    fast.arm(kMillisecond);
    slow.arm(2 * kMillisecond);
    events.run_all();
    ASSERT_EQ(fired, 2);

    const auto profile = events.profile();
    ASSERT_EQ(profile.size(), 2u);
    for (const auto& p : profile) {
      EXPECT_TRUE(p.name == "prof-fast" || p.name == "prof-slow");
      EXPECT_EQ(p.dispatches, 1u);
    }
  }
  // Destruction flushed the aggregate into the registry.
  EXPECT_EQ(obs::metrics().counter("sim.profiled_events").value(), 2u);
  EXPECT_EQ(obs::metrics().histogram("sim.event_wall_ns").count(), 2u);
}

TEST_F(ObsTest, ProfilingOffCollectsNothing) {
  EventList events;
  int fired = 0;
  Timer t(events, "prof-off", [&] { ++fired; });
  t.arm(kMillisecond);
  events.run_all();
  ASSERT_EQ(fired, 1);
  EXPECT_TRUE(events.profile().empty());
}

// --------------------------------------------------------- harness wiring

TEST_F(ObsTest, ArgHelpersRejectMalformedValues) {
  const char* argv[] = {"prog",        "--seconds=6Os", "--count",
                        "12x",         "--rate=2.5",    "--n=42",
                        "--empty=",    nullptr};
  const int argc = 7;
  char** av = const_cast<char**>(argv);
  // Malformed values fall back (with a warning naming the flag).
  EXPECT_DOUBLE_EQ(harness::arg_double(argc, av, "--seconds", 60.0), 60.0);
  EXPECT_EQ(harness::arg_int(argc, av, "--count", 7), 7);
  EXPECT_DOUBLE_EQ(harness::arg_double(argc, av, "--empty", 1.5), 1.5);
  // Well-formed values parse exactly.
  EXPECT_DOUBLE_EQ(harness::arg_double(argc, av, "--rate", 0.0), 2.5);
  EXPECT_EQ(harness::arg_int(argc, av, "--n", 0), 42);
  // Absent flags fall back silently.
  EXPECT_EQ(harness::arg_int(argc, av, "--missing", 3), 3);
}

TEST_F(ObsTest, ParseObsOptionsReadsAllFlags) {
  const char* argv[] = {"prog",
                        "--trace=/tmp/t.json",
                        "--metrics=/tmp/m.csv",
                        "--trace-categories=queue,cwnd",
                        "--trace-capacity=512",
                        "--trace-sample=8",
                        "--profile-sim",
                        nullptr};
  const auto opts = harness::parse_obs_options(7, const_cast<char**>(argv));
  EXPECT_EQ(opts.trace_path, "/tmp/t.json");
  EXPECT_EQ(opts.metrics_path, "/tmp/m.csv");
  EXPECT_EQ(opts.categories, "queue,cwnd");
  EXPECT_EQ(opts.trace_capacity, 512u);
  EXPECT_EQ(opts.sample_every, 8u);
  EXPECT_TRUE(opts.profile_sim);
}

TEST_F(ObsTest, ObsSessionEndToEnd) {
  harness::ObsOptions opts;
  opts.trace_path = ::testing::TempDir() + "/mpcc_obs_session.trace.json";
  opts.metrics_path = ::testing::TempDir() + "/mpcc_obs_session.metrics.json";
  opts.categories = "cwnd";
  opts.trace_capacity = 256;
  {
    harness::ObsSession session(opts);
    EXPECT_TRUE(session.tracing());
    EXPECT_TRUE(obs::tracer().enabled(TraceCategory::kCwnd));
    EXPECT_FALSE(obs::tracer().enabled(TraceCategory::kQueue));

    const obs::SourceId src = obs::tracer().intern("t/session");
    MPCC_TRACE(TraceCategory::kCwnd, TraceEvent::kCwnd, src, kSecond, 1000.0);
    obs::metrics().counter("test.obs.session").inc(2);
  }
  // Destruction exported both files and disabled tracing again.
  EXPECT_FALSE(obs::tracer().enabled(TraceCategory::kCwnd));
  const std::string trace = slurp(opts.trace_path);
  EXPECT_NE(trace.find("t/session/cwnd"), std::string::npos);
  const std::string metrics_json = slurp(opts.metrics_path);
  EXPECT_NE(metrics_json.find("\"name\":\"test.obs.session\""),
            std::string::npos);
  EXPECT_NE(metrics_json.find("\"type\":\"counter\""), std::string::npos);
}

// ------------------------------------------------- perf counters (perf.h)

TEST_F(ObsTest, HdrHistogramEmptyPercentilesAreZero) {
  obs::HdrHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.999), 0.0);
}

TEST_F(ObsTest, HdrHistogramSingleSampleIsEveryPercentile) {
  obs::HdrHistogram h;
  h.record(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 42u);
  EXPECT_EQ(h.min(), 42u);
  EXPECT_EQ(h.max(), 42u);
  // Every percentile of a single sample is that sample (the bucket midpoint
  // is clamped to [min, max]).
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.999), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 42.0);
}

TEST_F(ObsTest, HdrHistogramLinearRangeIsExact) {
  obs::HdrHistogram h;
  for (std::uint64_t v = 0; v < obs::HdrHistogram::kLinearMax; ++v) {
    EXPECT_EQ(obs::HdrHistogram::bucket_index(v), v) << "v=" << v;
  }
  // Above the linear range resolution is ~6%, monotone non-decreasing.
  std::size_t prev = 0;
  for (std::uint64_t v = 1; v < (std::uint64_t{1} << 40); v = v * 2 + 1) {
    const std::size_t idx = obs::HdrHistogram::bucket_index(v);
    EXPECT_GE(idx, prev);
    EXPECT_LT(idx, obs::HdrHistogram::kNumBuckets);
    EXPECT_LE(obs::HdrHistogram::bucket_lower(idx), v);
    prev = idx;
  }
}

TEST_F(ObsTest, HdrHistogramOverflowClampsToLastBucket) {
  obs::HdrHistogram h;
  const std::uint64_t huge = ~std::uint64_t{0};  // 2^64 - 1
  h.record(huge);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), huge);
  EXPECT_EQ(obs::HdrHistogram::bucket_index(huge),
            obs::HdrHistogram::kNumBuckets - 1);
  // Percentile stays finite and clamped to the observed max.
  EXPECT_DOUBLE_EQ(h.percentile(0.999), static_cast<double>(huge));
}

TEST_F(ObsTest, HdrHistogramMergeIsAssociativeAndExact) {
  obs::HdrHistogram a, b, c;
  for (std::uint64_t v = 0; v < 100; ++v) a.record(v * 3);
  for (std::uint64_t v = 0; v < 50; ++v) b.record(v * v);
  c.record(7);
  c.record(1'000'000);

  obs::HdrHistogram left = a;  // (a + b) + c
  left.merge(b);
  left.merge(c);
  obs::HdrHistogram bc = b;  // a + (b + c)
  bc.merge(c);
  obs::HdrHistogram right = a;
  right.merge(bc);

  EXPECT_TRUE(left == right);
  EXPECT_EQ(left.count(), a.count() + b.count() + c.count());
  EXPECT_EQ(left.sum(), a.sum() + b.sum() + c.sum());
  EXPECT_EQ(left.min(), 0u);
  EXPECT_EQ(left.max(), 1'000'000u);
  // Merging an empty histogram is the identity.
  obs::HdrHistogram empty;
  obs::HdrHistogram copy = left;
  copy.merge(empty);
  EXPECT_TRUE(copy == left);
}

TEST_F(ObsTest, PerfKillSwitchStopsCounting) {
  SimContext ctx;
  SimContext::Scope scope(ctx);
  const bool was_enabled = obs::perf_enabled();
  obs::set_perf_enabled(false);
  MPCC_PERF_COUNT(events_dispatched);
  MPCC_PERF_RECORD(rtt_us, 123);
  obs::set_perf_enabled(true);
  MPCC_PERF_COUNT(events_dispatched);
  MPCC_PERF_RECORD(rtt_us, 123);
  obs::set_perf_enabled(was_enabled);
  EXPECT_EQ(ctx.perf().events_dispatched, 1u);
  EXPECT_EQ(ctx.perf().rtt_us.count(), 1u);
}

TEST_F(ObsTest, PerfCountersAttributeToScopedContext) {
  SimContext ctx;
  {
    SimContext::Scope scope(ctx);
    MPCC_PERF_COUNT(packets_enqueued);
    MPCC_PERF_COUNT(packets_enqueued);
    MPCC_PERF_RECORD(queue_depth_pkts, 5);
  }
  EXPECT_EQ(ctx.perf().packets_enqueued, 2u);
  EXPECT_EQ(ctx.perf().queue_depth_pkts.count(), 1u);
  // Outside the scope, counts go to the thread default, not this context.
  MPCC_PERF_COUNT(packets_enqueued);
  EXPECT_EQ(ctx.perf().packets_enqueued, 2u);
}

// The sim-deterministic ledger fields (DELTA, SET and GUARD in the field
// table) of every sweep point must be bit-identical no matter how many
// worker threads executed the sweep — that's the isolation contract
// SimContext exists to provide (HOST costs like wall/allocs are exempt).
TEST_F(ObsTest, SweepPerfCountersIdenticalAcrossJobs) {
  harness::SweepPlan plan;
  plan.scenario = "two_path";
  plan.axes.push_back({"cc", {"lia", "dts"}});
  plan.axes.push_back({"duration_s", {"1"}});
  plan.axes.push_back({"cross_traffic", {"0"}});
  plan.seeds = 2;

  harness::SweepOptions serial;
  serial.jobs = 1;
  const harness::SweepReport r1 = harness::run_sweep(plan, serial);
  harness::SweepOptions parallel;
  parallel.jobs = 8;
  const harness::SweepReport r8 = harness::run_sweep(plan, parallel);

  ASSERT_EQ(r1.points.size(), 4u);
  ASSERT_EQ(r8.points.size(), r1.points.size());
  for (std::size_t i = 0; i < r1.points.size(); ++i) {
    const obs::PerfStats& a = r1.points[i].perf;
    const obs::PerfStats& b = r8.points[i].perf;
    ASSERT_TRUE(r1.points[i].ok) << r1.points[i].error;
    ASSERT_TRUE(r8.points[i].ok) << r8.points[i].error;
#define MPCC_SAME(name, type, init, merge) \
  EXPECT_EQ(a.name, b.name) << #name << ", point " << i;
    MPCC_PERF_FIELDS(MPCC_SAME, MPCC_SAME, MPCC_SAME, MPCC_PERF_SKIP)
#undef MPCC_SAME
    // A real run does real work; zero everywhere would mean the counters
    // are not wired, not that the run was identical.
    EXPECT_GT(a.events_dispatched, 0u) << "point " << i;
    EXPECT_GT(a.packets_forwarded, 0u) << "point " << i;
  }
}

// PoolArena hit/miss deltas are stamped per point by guarded_run from the
// point's own SimContext arena, so they describe that run alone and must
// merge bit-identically across worker counts — the fleet flow-rig recycler
// depends on this to make its reuse counters golden-checkable.
TEST_F(ObsTest, SweepPoolCountersIdenticalAcrossJobs) {
  harness::SweepPlan plan;
  plan.scenario = "two_path";
  plan.axes.push_back({"cc", {"lia", "dts"}});
  plan.axes.push_back({"duration_s", {"1"}});
  plan.axes.push_back({"cross_traffic", {"0"}});
  plan.seeds = 2;

  harness::SweepOptions serial;
  serial.jobs = 1;
  const harness::SweepReport r1 = harness::run_sweep(plan, serial);
  harness::SweepOptions parallel;
  parallel.jobs = 4;
  const harness::SweepReport r4 = harness::run_sweep(plan, parallel);

  ASSERT_EQ(r1.points.size(), 4u);
  ASSERT_EQ(r4.points.size(), r1.points.size());
  std::uint64_t total_hits = 0;
  for (std::size_t i = 0; i < r1.points.size(); ++i) {
    ASSERT_TRUE(r1.points[i].ok) << r1.points[i].error;
    ASSERT_TRUE(r4.points[i].ok) << r4.points[i].error;
    const obs::PerfStats& a = r1.points[i].perf;
    const obs::PerfStats& b = r4.points[i].perf;
    EXPECT_EQ(a.pool_hits, b.pool_hits) << "point " << i;
    EXPECT_EQ(a.pool_misses, b.pool_misses) << "point " << i;
    EXPECT_EQ(a.pool_outstanding, b.pool_outstanding) << "point " << i;
    total_hits += a.pool_hits;
    // Every point allocates events, so the arena must have seen traffic.
    EXPECT_GT(a.pool_hits + a.pool_misses, 0u) << "point " << i;
  }
  EXPECT_GT(total_hits, 0u);
}

TEST_F(ObsTest, PerfStatsJsonRoundTripsThroughCheckpoint) {
  harness::CheckpointEntry entry;
  entry.index = 3;
  entry.ok = true;
  entry.perf.events_dispatched = 123'456'789;
  entry.perf.timers_fired = 42;
  entry.perf.packets_enqueued = 1'000'000;
  entry.perf.packets_forwarded = 999'999;
  entry.perf.packets_dropped = 1;
  entry.perf.allocs = 77;
  entry.perf.alloc_bytes = 4096;
  entry.perf.wall_s = 1.25;
  entry.perf.cpu_s = 1.125;
  entry.perf.peak_rss = 64 << 20;

  const std::string path = ::testing::TempDir() + "/mpcc_perf_ckpt.jsonl";
  {
    harness::CheckpointWriter writer(path, "two_path", 4, false);
    writer.append(entry);
  }
  const harness::CheckpointData data = harness::load_checkpoint(path);
  ASSERT_EQ(data.entries.count(3), 1u);
  const obs::PerfStats& pf = data.entries.at(3).perf;
  EXPECT_EQ(pf.events_dispatched, 123'456'789u);
  EXPECT_EQ(pf.timers_fired, 42u);
  EXPECT_EQ(pf.packets_enqueued, 1'000'000u);
  EXPECT_EQ(pf.packets_forwarded, 999'999u);
  EXPECT_EQ(pf.packets_dropped, 1u);
  EXPECT_EQ(pf.allocs, 77u);
  EXPECT_EQ(pf.alloc_bytes, 4096u);
  EXPECT_DOUBLE_EQ(pf.wall_s, 1.25);
  EXPECT_DOUBLE_EQ(pf.cpu_s, 1.125);
  EXPECT_EQ(pf.peak_rss, std::uint64_t{64} << 20);
}

// Linux keeps getrusage's ru_maxrss across execve, so the reported peak
// must come from the process image itself: a sweep launched from a large
// process reports its own footprint, not its launcher's.
TEST_F(ObsTest, PeakRssIsTheSweepsOwnNotItsLaunchers) {
  std::vector<char> ballast(std::size_t{256} << 20);
  for (std::size_t i = 0; i < ballast.size(); i += 4096) ballast[i] = 1;
  std::FILE* pipe =
      popen("\"" MPCC_SWEEP_BIN "\" --scenario=selftest --quiet 2>&1", "r");
  ASSERT_NE(pipe, nullptr);
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  ASSERT_EQ(pclose(pipe), 0) << out;
  const std::size_t at = out.find("peak rss ");
  ASSERT_NE(at, std::string::npos) << out;
  const double mb = std::strtod(out.c_str() + at + 9, nullptr);
  EXPECT_GT(mb, 0.0) << out;
  EXPECT_LT(mb, 64.0) << out;
  EXPECT_EQ(ballast[ballast.size() / 2], 1);  // held until the child exited
}

TEST_F(ObsTest, BenchEnvJsonHasProvenanceFields) {
  const std::string env = obs::bench_env_json();
  EXPECT_NE(env.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(env.find("\"compiler\""), std::string::npos);
  EXPECT_NE(env.find("\"build_type\""), std::string::npos);
  EXPECT_NE(env.find("\"hardware_threads\""), std::string::npos);
}

}  // namespace
}  // namespace mpcc
