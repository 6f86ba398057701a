// Tests for the robustness layer (docs/ROBUSTNESS.md): the always-on
// invariant checker (sim/invariants.h), the EventList watchdog, RunGuard
// failure containment (harness/guard.h), sweep run isolation + fail-fast,
// the JSONL checkpoint format, and --resume bit-identity. Also proves the
// paper-level Condition-1 invariant actually fires: a deliberately broken
// CC whose decrease is weaker than beta = 1/2 on the best path must trip
// core.condition1.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "cc/multipath_cc.h"
#include "cc/registry.h"
#include "harness/checkpoint.h"
#include "harness/guard.h"
#include "harness/sweep.h"
#include "mptcp/connection.h"
#include "net/network.h"
#include "obs/perf.h"
#include "sim/context.h"
#include "sim/event_list.h"
#include "sim/invariants.h"
#include "topo/two_path.h"

namespace mpcc {
namespace {

using harness::CheckpointData;
using harness::CheckpointEntry;
using harness::CheckpointWriter;
using harness::GuardOptions;
using harness::RunErrorKind;
using harness::RunReport;
using harness::SweepAxis;
using harness::SweepOptions;
using harness::SweepPlan;
using harness::SweepReport;

// RAII guard: tests that flip the process-wide invariant switch must
// restore it, or they would silently disable checking for the whole binary.
struct InvariantSwitch {
  bool saved = invariants_enabled();
  ~InvariantSwitch() { set_invariants_enabled(saved); }
};

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "/" + leaf;
}

// ------------------------------------------------------- invariant macros

TEST(Invariants, CheckThrowsTypedViolationWithDomain) {
  try {
    MPCC_CHECK(1 + 1 == 3, "test.domain");
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(e.domain(), "test.domain");
    EXPECT_NE(std::string(e.what()).find("1 + 1 == 3"), std::string::npos);
  }
}

TEST(Invariants, CheckInvariantCarriesDetail) {
  const int queued = -7;
  try {
    MPCC_CHECK_INVARIANT(queued >= 0, "test.detail", "queued=" << queued);
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("queued=-7"), std::string::npos);
  }
}

TEST(Invariants, KillSwitchDisablesChecksProcessWide) {
  InvariantSwitch restore;
  set_invariants_enabled(false);
  EXPECT_NO_THROW(MPCC_CHECK(false, "test.disabled"));
  EXPECT_NO_THROW(MPCC_CHECK_INVARIANT(false, "test.disabled", "ignored"));
  set_invariants_enabled(true);
  EXPECT_THROW(MPCC_CHECK(false, "test.reenabled"), InvariantViolation);
}

TEST(Invariants, PassingChecksEvaluateDetailLazily) {
  // The detail stream must not be built when the condition holds: this
  // would be both a perf bug and a crash hazard. Count evaluations.
  int evaluations = 0;
  const auto observe = [&evaluations]() {
    ++evaluations;
    return 0;
  };
  MPCC_CHECK_INVARIANT(true, "test.lazy", "x=" << observe());
  EXPECT_EQ(evaluations, 0);
}

// ------------------------------------------------------ EventList watchdog

/// Schedules itself forever: a synthetic runaway simulation.
class ForeverTicker final : public EventSource {
 public:
  explicit ForeverTicker(EventList& events) : EventSource("forever"), events_(events) {
    events_.schedule_in(this, 1);
  }
  void do_next_event() override { events_.schedule_in(this, 1); }

 private:
  EventList& events_;
};

TEST(Watchdog, EventBudgetStopsRunawayRun) {
  EventList events;
  ForeverTicker ticker(events);
  events.set_event_budget(1000);
  EXPECT_THROW(events.run_all(), RunTimeout);
  EXPECT_EQ(events.dispatched(), 1000u);  // exactly the budget, no overshoot
}

TEST(Watchdog, WallDeadlineStopsRunawayRun) {
  EventList events;
  ForeverTicker ticker(events);
  events.set_wall_deadline(std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(50));
  EXPECT_THROW(events.run_all(), RunTimeout);
  EXPECT_GT(events.dispatched(), 0u);
}

TEST(Watchdog, ClearedDeadlineAndZeroBudgetAreUnlimited) {
  EventList events;
  events.set_event_budget(1);
  events.set_event_budget(0);  // 0 clears the cap
  events.set_wall_deadline(std::chrono::steady_clock::now() -
                           std::chrono::seconds(1));
  events.clear_wall_deadline();
  ForeverTicker ticker(events);
  events.run_until(seconds(1));  // must not throw
  EXPECT_GT(events.dispatched(), 0u);
}

// ------------------------------------------------------------- guarded_run

TEST(Guard, ClassifiesEveryFailureKind) {
  SimContext ctx(1);
  const GuardOptions opts;

  RunReport ok = harness::guarded_run(ctx, opts, [] {});
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.kind, RunErrorKind::kNone);

  RunReport inv = harness::guarded_run(ctx, opts, [] {
    MPCC_CHECK_INVARIANT(false, "test.guard", "detail");
  });
  EXPECT_FALSE(inv.ok);
  EXPECT_EQ(inv.kind, RunErrorKind::kInvariantViolation);
  EXPECT_EQ(inv.domain, "test.guard");

  RunReport bad_arg = harness::guarded_run(
      ctx, opts, [] { throw std::invalid_argument("bad cc name"); });
  EXPECT_EQ(bad_arg.kind, RunErrorKind::kInvalidArgument);
  EXPECT_EQ(bad_arg.message, "bad cc name");

  RunReport runtime = harness::guarded_run(
      ctx, opts, [] { throw std::runtime_error("boom"); });
  EXPECT_EQ(runtime.kind, RunErrorKind::kRuntimeError);

  RunReport unknown = harness::guarded_run(ctx, opts, [] { throw 42; });
  EXPECT_EQ(unknown.kind, RunErrorKind::kUnknownException);
}

TEST(Guard, EventBudgetProducesTimedOutKind) {
  SimContext ctx(1);
  GuardOptions opts;
  opts.event_budget = 500;
  RunReport report = harness::guarded_run(ctx, opts, [&ctx] {
    ForeverTicker ticker(ctx.events());
    ctx.events().run_all();
  });
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.kind, RunErrorKind::kTimedOut);
}

TEST(Guard, WatchdogDisarmsAfterTheRun) {
  SimContext ctx(1);
  GuardOptions opts;
  opts.event_budget = 500;
  opts.run_timeout_s = 0.05;
  RunReport first = harness::guarded_run(ctx, opts, [&ctx] {
    ForeverTicker ticker(ctx.events());
    ctx.events().run_all();
  });
  EXPECT_EQ(first.kind, RunErrorKind::kTimedOut);
  // The same EventList must be usable afterwards with no armed watchdog
  // (the budget is relative to dispatched(), the deadline cleared).
  EXPECT_EQ(ctx.events().event_budget(), 0u);
  ctx.events().run_until(ctx.events().now() + seconds(1));
}

TEST(Guard, KindNamesRoundTrip) {
  const RunErrorKind kinds[] = {
      RunErrorKind::kNone,          RunErrorKind::kInvariantViolation,
      RunErrorKind::kTimedOut,      RunErrorKind::kInvalidArgument,
      RunErrorKind::kRuntimeError,  RunErrorKind::kUnknownException,
  };
  for (RunErrorKind k : kinds) {
    EXPECT_EQ(harness::run_error_kind_from_name(harness::run_error_kind_name(k)), k);
  }
  // Unrecognized names degrade to the generic runtime error kind.
  EXPECT_EQ(harness::run_error_kind_from_name("???"),
            RunErrorKind::kRuntimeError);
}

// ------------------------------------------------- sweep failure isolation

SweepPlan selftest_plan(std::vector<std::string> modes, int seeds = 1) {
  harness::register_builtin_scenarios();
  SweepPlan plan;
  plan.scenario = "selftest";
  plan.axes.push_back(SweepAxis{"mode", std::move(modes)});
  plan.seeds = seeds;
  return plan;
}

TEST(SweepGuard, OneCrashingAndOneHangingRunCannotSinkTheSweep) {
  SweepPlan plan = selftest_plan({"ok", "throw", "invariant", "hang", "ok"});
  SweepOptions options;
  options.jobs = 2;
  options.event_budget = 200'000;  // contains mode=hang deterministically
  const SweepReport report = harness::run_sweep(plan, options);

  ASSERT_EQ(report.points.size(), 5u);
  EXPECT_EQ(report.failed(), 3u);
  EXPECT_EQ(report.timed_out(), 1u);
  // The healthy runs completed with real results despite their neighbours.
  EXPECT_TRUE(report.points[0].ok);
  EXPECT_TRUE(report.points[4].ok);
  EXPECT_EQ(report.points[0].values.at("ticks"), 1000.0);

  EXPECT_EQ(report.points[1].error_kind, RunErrorKind::kRuntimeError);
  EXPECT_NE(report.points[1].error.find("injected"), std::string::npos);
  EXPECT_EQ(report.points[2].error_kind, RunErrorKind::kInvariantViolation);
  EXPECT_EQ(report.points[2].error_domain, "selftest");
  EXPECT_EQ(report.points[2].fail_sim_time, seconds(0.5));
  EXPECT_EQ(report.points[3].error_kind, RunErrorKind::kTimedOut);

  const std::string summary = report.failure_summary();
  EXPECT_NE(summary.find("mode=throw"), std::string::npos);
  EXPECT_NE(summary.find("[invariant]"), std::string::npos);
  EXPECT_NE(summary.find("[timeout]"), std::string::npos);
}

TEST(SweepGuard, FailFastSkipsLaterPointsButMarksThem) {
  SweepPlan plan = selftest_plan({"throw", "ok", "ok", "ok"});
  SweepOptions options;
  options.jobs = 1;
  options.fail_fast = true;
  const SweepReport report = harness::run_sweep(plan, options);
  ASSERT_EQ(report.points.size(), 4u);
  EXPECT_EQ(report.points[0].error_kind, RunErrorKind::kRuntimeError);
  for (std::size_t i = 1; i < report.points.size(); ++i) {
    EXPECT_FALSE(report.points[i].ok);
    EXPECT_TRUE(report.points[i].skipped);
  }
  EXPECT_EQ(report.failed(), 4u);
}

// --------------------------------------------------- checkpoint read/write

// Bit pattern of a perf-ledger field, so doubles compare bit for bit.
std::uint64_t bits(std::uint64_t v) { return v; }
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// A ledger whose fields all differ from each other and from their initial
// values; every double needs all 17 significant digits to round-trip.
obs::PerfStats distinct_perf(int first) {
  obs::PerfStats perf;
  int n = first;
#define MPCC_DISTINCT(name, type, init, merge) \
  perf.name = static_cast<type>(++n * 1'000'003) + static_cast<type>(1.0 / 3.0);
  MPCC_PERF_EACH(MPCC_DISTINCT)
#undef MPCC_DISTINCT
  return perf;
}

void expect_same_perf(const obs::PerfStats& got, const obs::PerfStats& want) {
#define MPCC_SAME(name, type, init, merge) \
  EXPECT_EQ(bits(got.name), bits(want.name)) << #name;
  MPCC_PERF_EACH(MPCC_SAME)
#undef MPCC_SAME
}

TEST(Checkpoint, RoundTripsEntriesExactly) {
  const std::string path = temp_path("guard_ck_roundtrip.jsonl");
  obs::PerfStats e_perf = distinct_perf(0);  // recovery_s > 0
  obs::PerfStats f_perf = distinct_perf(100);
  f_perf.recovery_s = -1.0;  // no healing check ran
  {
    CheckpointWriter writer(path, "selftest", 3, /*append_mode=*/false);
    CheckpointEntry e;
    e.index = 1;
    e.ok = true;
    e.kind = RunErrorKind::kNone;
    e.wall_ms = 12.5;
    e.params = {{"mode", "ok"}, {"seed", "1"}};
    e.values = {{"signature", 17979.921690389816}, {"ticks", 1000.0}};
    e.perf = e_perf;
    writer.append(e);
    CheckpointEntry f;
    f.index = 2;
    f.ok = false;
    f.kind = RunErrorKind::kInvariantViolation;
    f.sim_time = seconds(0.5);
    f.error = "invariant violated \"quoted\"\nwith newline";
    f.domain = "selftest";
    f.params = {{"mode", "invariant"}, {"seed", "1"}};
    f.perf = f_perf;
    writer.append(f);
  }
  const CheckpointData data = harness::load_checkpoint(path);
  EXPECT_EQ(data.scenario, "selftest");
  EXPECT_EQ(data.total_points, 3u);
  ASSERT_EQ(data.entries.size(), 2u);
  const CheckpointEntry& e = data.entries.at(1);
  EXPECT_TRUE(e.ok);
  EXPECT_EQ(e.params.at("mode"), "ok");
  EXPECT_EQ(e.values.at("signature"), 17979.921690389816);  // bit-exact
  expect_same_perf(e.perf, e_perf);
  const CheckpointEntry& f = data.entries.at(2);
  EXPECT_EQ(f.kind, RunErrorKind::kInvariantViolation);
  EXPECT_EQ(f.sim_time, seconds(0.5));
  EXPECT_EQ(f.error, "invariant violated \"quoted\"\nwith newline");
  expect_same_perf(f.perf, f_perf);

  // A line in the compact format of earlier releases (perf fields in a
  // different order, no derived rates) still loads, so --resume works on a
  // checkpoint written before the upgrade.
  const std::string old_path = temp_path("guard_ck_compact.jsonl");
  {
    std::FILE* file = std::fopen(old_path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fputs(
        R"({"mpcc_sweep_checkpoint":1,"scenario":"chaos_heal","points":1})" "\n"
        R"({"index":0,"ok":true,"kind":"none","wall_ms":138.617389,)"
        R"("sim_time_ns":-1,"error":"","domain":"",)"
        R"("params":{"duration_s":"10","seed":"1"},)"
        R"("values":{"bytes_mb":196.05756,"epb_err":0.13737921766104985},)"
        R"("perf":{"events_dispatched":539606,"timers_fired":1003,)"
        R"("packets_enqueued":269477,"packets_forwarded":269453,)"
        R"("packets_dropped":114,"down_drops":0,"flight_drops":0,)"
        R"("flows_dead":0,"chaos_corrupted":0,"chaos_reordered":137,)"
        R"("chaos_duplicated":0,"chaos_blackholed":110,"chaos_faults":2,)"
        R"("recovery_s":0,"mtbf_s":2,"allocs":269447,"alloc_bytes":13818117,)"
        R"("pool_hits":45941,"pool_misses":8286,"pool_outstanding":0,)"
        R"("wall_s":0.13855157300000001,"cpu_s":0.13767395000000002,)"
        R"("peak_rss":5570560}})" "\n",
        file);
    std::fclose(file);
  }
  const CheckpointData old = harness::load_checkpoint(old_path);
  EXPECT_EQ(old.scenario, "chaos_heal");
  ASSERT_EQ(old.entries.count(0), 1u);
  const CheckpointEntry& o = old.entries.at(0);
  EXPECT_TRUE(o.ok);
  EXPECT_EQ(o.params.at("duration_s"), "10");
  EXPECT_EQ(o.values.at("epb_err"), 0.13737921766104985);
  obs::PerfStats want;
  want.events_dispatched = 539606;
  want.timers_fired = 1003;
  want.packets_enqueued = 269477;
  want.packets_forwarded = 269453;
  want.packets_dropped = 114;
  want.chaos_reordered = 137;
  want.chaos_blackholed = 110;
  want.chaos_faults = 2;
  want.recovery_s = 0;
  want.mtbf_s = 2;
  want.allocs = 269447;
  want.alloc_bytes = 13818117;
  want.pool_hits = 45941;
  want.pool_misses = 8286;
  want.wall_s = 0.13855157300000001;
  want.cpu_s = 0.13767395000000002;
  want.peak_rss = 5570560;
  expect_same_perf(o.perf, want);
}

TEST(Checkpoint, ToleratesTornTrailingLine) {
  const std::string path = temp_path("guard_ck_torn.jsonl");
  {
    CheckpointWriter writer(path, "selftest", 2, false);
    CheckpointEntry e;
    e.index = 0;
    e.ok = true;
    e.params = {{"seed", "1"}};
    writer.append(e);
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"index\":1,\"ok\":tr", f);  // crash mid-write
    std::fclose(f);
  }
  const CheckpointData data = harness::load_checkpoint(path);
  ASSERT_EQ(data.entries.size(), 1u);
  EXPECT_TRUE(data.entries.count(0));
}

TEST(Checkpoint, RejectsMissingFileAndBadHeader) {
  EXPECT_THROW(harness::load_checkpoint(temp_path("guard_ck_nonexistent.jsonl")),
               std::invalid_argument);
  const std::string path = temp_path("guard_ck_badheader.jsonl");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"something_else\":true}\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(harness::load_checkpoint(path), std::invalid_argument);
}

// --------------------------------------------------------- resume semantics

void expect_same_results(const SweepReport& a, const SweepReport& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].params, b.points[i].params);
    EXPECT_EQ(a.points[i].ok, b.points[i].ok);
    ASSERT_EQ(a.points[i].values.size(), b.points[i].values.size()) << i;
    for (const auto& [key, value] : a.points[i].values) {
      const auto it = b.points[i].values.find(key);
      ASSERT_NE(it, b.points[i].values.end()) << key;
      EXPECT_EQ(value, it->second) << key;  // bit-identical, not approximate
    }
  }
}

TEST(Resume, RestoredSweepIsBitIdenticalToFreshRun) {
  const std::string path = temp_path("guard_resume_identity.jsonl");
  SweepPlan plan = selftest_plan({"ok"}, /*seeds=*/4);

  SweepOptions fresh_opts;
  fresh_opts.checkpoint_path = path;
  const SweepReport fresh = harness::run_sweep(plan, fresh_opts);
  ASSERT_EQ(fresh.failed(), 0u);

  // Simulate an interrupted sweep: keep the header + first two entries.
  const CheckpointData full = harness::load_checkpoint(path);
  ASSERT_EQ(full.entries.size(), 4u);
  {
    CheckpointWriter writer(path, "selftest", 4, false);
    writer.append(full.entries.at(0));
    writer.append(full.entries.at(1));
  }

  SweepOptions resume_opts;
  resume_opts.checkpoint_path = path;
  resume_opts.resume = true;
  const SweepReport resumed = harness::run_sweep(plan, resume_opts);
  EXPECT_EQ(resumed.restored(), 2u);
  EXPECT_TRUE(resumed.points[0].restored);
  EXPECT_TRUE(resumed.points[1].restored);
  EXPECT_FALSE(resumed.points[2].restored);
  expect_same_results(fresh, resumed);

  // The re-run points were appended, so a second resume restores all four.
  const SweepReport again = harness::run_sweep(plan, resume_opts);
  EXPECT_EQ(again.restored(), 4u);
  expect_same_results(fresh, again);
}

TEST(Resume, ReRunsOnlyFailedAndTimedOutPoints) {
  const std::string path = temp_path("guard_resume_failed.jsonl");
  SweepPlan plan = selftest_plan({"ok", "throw", "ok"});
  SweepOptions opts;
  opts.checkpoint_path = path;
  const SweepReport first = harness::run_sweep(plan, opts);
  EXPECT_EQ(first.failed(), 1u);

  SweepOptions resume_opts = opts;
  resume_opts.resume = true;
  const SweepReport resumed = harness::run_sweep(plan, resume_opts);
  // The two ok points are restored, the failed one is re-run (and, being
  // deterministic, fails again the same way).
  EXPECT_EQ(resumed.restored(), 2u);
  EXPECT_EQ(resumed.failed(), 1u);
  EXPECT_FALSE(resumed.points[1].restored);
  EXPECT_EQ(resumed.points[1].error_kind, RunErrorKind::kRuntimeError);
}

TEST(Resume, RejectsMismatchedCheckpoints) {
  const std::string path = temp_path("guard_resume_mismatch.jsonl");
  {
    const SweepPlan plan = selftest_plan({"ok"}, 2);
    SweepOptions opts;
    opts.checkpoint_path = path;
    harness::run_sweep(plan, opts);
  }
  // Different grid size.
  SweepPlan bigger = selftest_plan({"ok"}, 3);
  SweepOptions resume_opts;
  resume_opts.checkpoint_path = path;
  resume_opts.resume = true;
  EXPECT_THROW(harness::run_sweep(bigger, resume_opts), std::invalid_argument);
  // Same size, different axis point.
  SweepPlan different = selftest_plan({"hang"}, 2);
  EXPECT_THROW(harness::run_sweep(different, resume_opts), std::invalid_argument);
}

// ------------------------------------- scenarios are invariant-clean + fast

// Every registered scenario must run to completion with the invariant
// checker live (it always is) — the conservation, cwnd, energy, and
// Condition-1 checks ride along on every packet of every test. Quick
// parameter overrides keep this suite affordable.
TEST(ScenarioInvariants, EveryRegisteredScenarioRunsClean) {
  harness::register_builtin_scenarios();
  ASSERT_TRUE(invariants_enabled());
  const std::map<std::string, harness::ParamMap> overrides = {
      {"two_path", {{"duration_s", "2"}}},
      {"dumbbell", {{"n_users", "2"}, {"flow_mb", "1"}, {"max_time_s", "60"}}},
      {"datacenter", {{"duration_s", "0.1"}, {"fattree_k", "4"}, {"subflows", "2"}}},
      {"fleet",
       {{"duration_s", "0.5"}, {"fattree_k", "4"}, {"rate_fps", "200"},
        {"size_b", "20000"}}},
      {"wireless", {{"duration_s", "3"}}},
      {"handover", {{"duration_s", "12"}}},
      {"flaky_wifi", {{"duration_s", "4"}}},
      {"chaos_heal", {{"duration_s", "6"}, {"window_ms", "500"}}},
      {"selftest", {}},
  };
  for (const harness::ScenarioSpec* spec : harness::ScenarioRegistry::instance().all()) {
    const auto it = overrides.find(spec->name);
    ASSERT_NE(it, overrides.end())
        << "new scenario \"" << spec->name
        << "\" needs a quick-params entry in this test";
    harness::ParamMap params = it->second;
    params.emplace("seed", "1");
    SimContext ctx(1);
    const RunReport report = harness::guarded_run(
        ctx, GuardOptions{}, [&] { spec->run(ctx, params); });
    EXPECT_TRUE(report.ok) << spec->name << " failed ["
                           << harness::run_error_kind_name(report.kind)
                           << "]: " << report.message;
  }
}

// ------------------------------------------- Condition 1 catches a bad CC

/// Deliberately broken multipath CC: Reno-style increase but a decrease of
/// only 5% on loss. On the best path this violates the paper's Condition 1
/// (beta_h = 1/2, phi_h = 0), so the runtime probe must fire.
class WeakDecreaseCc final : public MultipathCc {
 public:
  const char* name() const override { return "weak-decrease"; }
  void on_ca_increase(MptcpConnection&, Subflow& sf, Bytes newly_acked) override {
    apply_increase(sf, 1.0 / window_mss(sf), newly_acked);
  }
  void on_loss(MptcpConnection&, Subflow& sf) override {
    sf.set_cwnd(0.95 * sf.cwnd());  // beta = 0.05 << 1/2
  }
};

TEST(Condition1, WeakDecreaseOnBestPathTripsTheInvariant) {
  ASSERT_TRUE(invariants_enabled());
  Network net(1);
  TwoPathConfig topo_cfg;
  topo_cfg.cross_traffic = false;
  topo_cfg.buffer[0] = 30'000;  // small buffers force losses quickly
  topo_cfg.buffer[1] = 30'000;
  TwoPath topo(net, topo_cfg);
  MptcpConfig cfg;
  auto* conn = net.emplace<MptcpConnection>(net, "conn", cfg,
                                            std::make_unique<WeakDecreaseCc>());
  for (const PathSpec& p : topo.paths()) conn->add_subflow(p);
  conn->start(0);
  try {
    net.events().run_until(seconds(30));
    FAIL() << "expected core.condition1 to fire";
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(e.domain(), "core.condition1");
    EXPECT_NE(std::string(e.what()).find("weak-decrease"), std::string::npos);
  }
}

// A compliant CC (beta = 1/2) must never trip the probe — the default LIA
// run in the same loss-heavy setup is the negative control.
TEST(Condition1, HalvingCcPassesInTheSameLossySetup) {
  Network net(1);
  TwoPathConfig topo_cfg;
  topo_cfg.cross_traffic = false;
  topo_cfg.buffer[0] = 30'000;
  topo_cfg.buffer[1] = 30'000;
  TwoPath topo(net, topo_cfg);
  MptcpConfig cfg;
  auto* conn =
      net.emplace<MptcpConnection>(net, "conn", cfg, make_multipath_cc("lia"));
  for (const PathSpec& p : topo.paths()) conn->add_subflow(p);
  conn->start(0);
  EXPECT_NO_THROW(net.events().run_until(seconds(30)));
  EXPECT_GT(conn->bytes_delivered(), 0);
}

}  // namespace
}  // namespace mpcc
