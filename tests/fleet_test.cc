#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "cc/registry.h"
#include "core/fluid_model.h"
#include "fleet/arrival_engine.h"
#include "fleet/fct_recorder.h"
#include "fleet/flow_factory.h"
#include "fleet/fluid_background.h"
#include "fleet/runner.h"
#include "fleet/workload.h"
#include "harness/checkpoint.h"
#include "harness/sweep.h"
#include "mptcp/path_manager.h"
#include "obs/perf.h"
#include "sim/context.h"
#include "test_util.h"
#include "topo/two_path.h"

namespace mpcc::fleet {
namespace {

// ---------------------------------------------------------------- workload

TEST(ArrivalProcess, PoissonIsStrictlyIncreasingAndDeterministic) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalConfig::Kind::kPoisson;
  cfg.rate_fps = 500.0;
  ArrivalProcess a(cfg, Rng(42));
  ArrivalProcess b(cfg, Rng(42));
  double t = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double next = a.next_arrival(t);
    EXPECT_GT(next, t);
    EXPECT_DOUBLE_EQ(next, b.next_arrival(t));
    t = next;
  }
  // Mean gap within a loose factor of 1/rate over 200 samples.
  EXPECT_GT(t, 200.0 / cfg.rate_fps * 0.5);
  EXPECT_LT(t, 200.0 / cfg.rate_fps * 2.0);
}

TEST(ArrivalProcess, OnOffNeverLandsInOffPhase) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalConfig::Kind::kOnOff;
  cfg.rate_fps = 1000.0;
  cfg.on_s = 0.05;
  cfg.off_s = 0.15;
  ArrivalProcess p(cfg, Rng(7));
  const double cycle = cfg.on_s + cfg.off_s;
  double t = 0.0;
  for (int i = 0; i < 500; ++i) {
    t = p.next_arrival(t);
    const double phase = t - std::floor(t / cycle) * cycle;
    EXPECT_LE(phase, cfg.on_s + 1e-9) << "arrival " << i << " at t=" << t;
  }
}

TEST(ArrivalProcess, DiurnalPreservesMeanRateRoughly) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalConfig::Kind::kDiurnal;
  cfg.rate_fps = 2000.0;
  cfg.period_s = 0.5;
  cfg.depth = 0.8;
  ArrivalProcess p(cfg, Rng(3));
  double t = 0.0;
  const int n = 4000;  // two full periods' worth
  for (int i = 0; i < n; ++i) t = p.next_arrival(t);
  const double achieved = n / t;
  EXPECT_GT(achieved, cfg.rate_fps * 0.8);
  EXPECT_LT(achieved, cfg.rate_fps * 1.2);
}

TEST(SizeDistribution, FixedAndClasses) {
  SizeConfig cfg;
  cfg.kind = SizeConfig::Kind::kFixed;
  cfg.fixed_bytes = 50 * 1000;
  SizeDistribution d(cfg);
  Rng rng(1);
  EXPECT_EQ(d.sample(rng), 50 * 1000);
  EXPECT_EQ(classify_size(50 * 1000), SizeClass::kSmall);
  EXPECT_EQ(classify_size(500 * 1000), SizeClass::kMedium);
  EXPECT_EQ(classify_size(5 * 1000 * 1000), SizeClass::kLarge);
}

TEST(SizeDistribution, WebSearchIsHeavyTailedWithinTableBounds) {
  SizeConfig cfg;
  cfg.kind = SizeConfig::Kind::kWebSearch;
  SizeDistribution d(cfg);
  Rng root(11);
  Bytes lo = INT64_MAX, hi = 0;
  double mean = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    Rng sub = root.substream(static_cast<std::uint64_t>(i));
    const Bytes s = d.sample(sub);
    lo = std::min(lo, s);
    hi = std::max(hi, s);
    mean += static_cast<double>(s) / n;
  }
  EXPECT_GE(lo, 1);
  EXPECT_LE(hi, 30 * 1000 * 1000);
  EXPECT_GT(hi, 2 * 1000 * 1000);    // the tail was actually sampled
  EXPECT_GT(mean, 100e3);            // heavy tail dominates the mean
}

TEST(TrafficMatrix, PermutationHasNoSelfFlowsAndIsStable) {
  TrafficMatrix m({MatrixConfig::Kind::kPermutation, 0}, 16, Rng(5));
  Rng flow_rng(0);
  std::set<std::size_t> dsts;
  for (std::uint64_t k = 0; k < 16; ++k) {
    auto [src, dst] = m.pick(k, flow_rng);
    EXPECT_NE(src, dst);
    EXPECT_LT(dst, 16u);
    dsts.insert(dst);
    // Same k -> same pair, independent of flow_rng state.
    Rng other(99);
    EXPECT_EQ(m.pick(k, other), std::make_pair(src, dst));
  }
  EXPECT_EQ(dsts.size(), 16u);  // a permutation covers every destination
}

TEST(TrafficMatrix, IncastTargetsHostZero) {
  MatrixConfig cfg;
  cfg.kind = MatrixConfig::Kind::kIncast;
  cfg.incast_fanin = 8;
  TrafficMatrix m(cfg, 32, Rng(5));
  Rng flow_rng(0);
  for (std::uint64_t k = 0; k < 64; ++k) {
    auto [src, dst] = m.pick(k, flow_rng);
    EXPECT_EQ(dst, 0u);
    EXPECT_GE(src, 1u);
    EXPECT_LE(src, 8u);
  }
}

TEST(TrafficMatrix, UniformAvoidsDiagonal) {
  MatrixConfig cfg;
  cfg.kind = MatrixConfig::Kind::kUniform;
  TrafficMatrix m(cfg, 8, Rng(5));
  Rng root(17);
  for (std::uint64_t k = 0; k < 500; ++k) {
    Rng sub = root.substream(k);
    auto [src, dst] = m.pick(k, sub);
    EXPECT_NE(src, dst);
    EXPECT_LT(src, 8u);
    EXPECT_LT(dst, 8u);
  }
}

// ------------------------------------------------------------- fct recorder

TEST(FctRecorder, PercentilesAndRollups) {
  FctRecorder fct;
  // 99 fast small flows and one slow large flow.
  for (int i = 0; i < 99; ++i) fct.record(10 * 1000, ms(2), 0.01);
  fct.record(5 * 1000 * 1000, ms(200), 1.0);
  EXPECT_EQ(fct.completed(), 100u);
  EXPECT_NEAR(fct.percentile_ms(0.50), 2.0, 0.3);
  EXPECT_GT(fct.percentile_ms(0.999), 100.0);
  EXPECT_NEAR(fct.percentile_ms(SizeClass::kSmall, 0.99), 2.0, 0.3);
  EXPECT_GT(fct.percentile_ms(SizeClass::kLarge, 0.50), 100.0);
  EXPECT_EQ(fct.bytes(), 99 * 10 * 1000 + 5 * 1000 * 1000);
  EXPECT_GT(fct.joules_per_gigabyte(), 0.0);
}

// ------------------------------------------------------------ fleet runner

FleetOptions small_fleet() {
  FleetOptions o;
  o.topo = harness::DcTopo::kFatTree;
  o.fat_tree.k = 4;  // 16 hosts
  o.cc = "lia";
  o.subflows = 2;
  o.duration = seconds(2);
  o.seed = 1;
  o.arrivals.kind = ArrivalConfig::Kind::kPoisson;
  o.arrivals.rate_fps = 200.0;
  o.sizes.kind = SizeConfig::Kind::kFixed;
  o.sizes.fixed_bytes = 30 * 1000;
  o.matrix.kind = MatrixConfig::Kind::kPermutation;
  return o;
}

TEST(FleetRunner, SmallFleetCompletesFlowsAndRecyclesRigs) {
  const FleetResult r = run_fleet(small_fleet());
  EXPECT_GT(r.flows_started, 200u);
  EXPECT_GT(r.flows_completed, 100u);
  EXPECT_GT(r.bytes_delivered, 0);
  EXPECT_GT(r.fct_p50_ms, 0.0);
  EXPECT_GE(r.fct_p99_ms, r.fct_p50_ms);
  EXPECT_GT(r.total_energy_j, 0.0);
  EXPECT_GT(r.joules_per_gigabyte, 0.0);
  // The whole point of the factory: far fewer rigs than flows.
  EXPECT_LT(r.rigs_created, r.flows_completed / 2);
  EXPECT_GT(r.rigs_reused, 0u);
}

TEST(FleetRunner, ResultsAreDeterministic) {
  const FleetResult a = run_fleet(small_fleet());
  const FleetResult b = run_fleet(small_fleet());
  EXPECT_EQ(a.flows_started, b.flows_started);
  EXPECT_EQ(a.flows_completed, b.flows_completed);
  EXPECT_EQ(a.bytes_delivered, b.bytes_delivered);
  EXPECT_DOUBLE_EQ(a.fct_p50_ms, b.fct_p50_ms);
  EXPECT_DOUBLE_EQ(a.fct_p999_ms, b.fct_p999_ms);
  EXPECT_DOUBLE_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.fabric_drops, b.fabric_drops);
  EXPECT_EQ(a.rigs_created, b.rigs_created);
  EXPECT_EQ(a.rigs_rebound, b.rigs_rebound);
}

TEST(FleetRunner, UniformMatrixExercisesRebinding) {
  FleetOptions o = small_fleet();
  o.matrix.kind = MatrixConfig::Kind::kUniform;
  o.arrivals.rate_fps = 100.0;
  o.duration = seconds(4);
  const FleetResult r = run_fleet(o);
  EXPECT_GT(r.flows_completed, 50u);
  // Uniform pairs rarely repeat within the cooldown, so recycling must go
  // through rebind_paths.
  EXPECT_GT(r.rigs_rebound, 0u);
  EXPECT_LT(r.rigs_created, r.flows_started);
}

TEST(FleetRunner, HybridFidelityImposesBackgroundPressure) {
  FleetOptions packet = small_fleet();
  FleetOptions hybrid = small_fleet();
  hybrid.fidelity = "hybrid";
  hybrid.background.share = 0.6;
  const FleetResult rp = run_fleet(packet);
  const FleetResult rh = run_fleet(hybrid);
  EXPECT_EQ(rh.background_ticks, 0u + (2 * kSecond) / hybrid.background.cadence);
  EXPECT_EQ(rp.background_ticks, 0u);
  // Background load slows the foreground: median FCT can only get worse.
  EXPECT_GE(rh.fct_p50_ms, rp.fct_p50_ms);
  EXPECT_GT(rh.flows_completed, 0u);
}

TEST(FleetRunner, HybridRequiresFabricTopology) {
  FleetOptions o = small_fleet();
  o.topo = harness::DcTopo::kVirtualCloud;
  o.fidelity = "hybrid";
  EXPECT_THROW(run_fleet(o), std::invalid_argument);
}

TEST(FleetRunner, RejectsUnknownFidelity) {
  FleetOptions o = small_fleet();
  o.fidelity = "quantum";
  EXPECT_THROW(run_fleet(o), std::invalid_argument);
}

// ------------------------------------------------------ fluid background

TEST(FluidBackground, DriverReachesPositiveSaturationAndRestoresOnStop) {
  SimContext ctx(9);
  SimContext::Scope scope(ctx);
  Network net(ctx);
  FatTreeConfig cfg;
  cfg.k = 4;
  FatTree topo(net, cfg);
  std::vector<Queue*> fabric = topo.fabric_queues();
  ASSERT_FALSE(fabric.empty());
  const Rate base = fabric[0]->rate();

  FluidBackgroundConfig bg;
  bg.share = 0.5;
  FluidBackgroundDriver driver(net, fabric, bg);
  driver.start();
  net.events().run_until(seconds(2));
  EXPECT_GT(driver.ticks(), 0u);
  // The single-link fluid users saturate their share: rate must be reduced.
  EXPECT_GT(driver.saturation(0), 0.5);
  EXPECT_LT(fabric[0]->rate(), base);
  driver.stop();
  EXPECT_DOUBLE_EQ(fabric[0]->rate(), base);
  EXPECT_EQ(fabric[0]->background_drop_every(), 0u);
}

// The driver integrates one fluid link per distinct capacity. What it
// imposes must be bit-equal to the straightforward model with one fluid
// link (and its users) per queue, and its per-tick cost must scale with the
// capacity classes, not with the queues.
TEST(FluidBackground, DedupedDriverMatchesOneLinkPerQueueModel) {
  SimContext ctx(9);
  SimContext::Scope scope(ctx);
  Network net(ctx);
  std::vector<Queue*> queues;
  for (int i = 0; i < 64; ++i) {
    queues.push_back(net.make_queue("q" + std::to_string(i),
                                    i % 3 == 0 ? mbps(40) : mbps(100), 150'000));
  }
  std::vector<Rate> base;
  for (const Queue* q : queues) base.push_back(q->rate());

  FluidBackgroundConfig bg;
  bg.share = 0.5;
  bg.users_per_link = 2;
  FluidBackgroundDriver driver(net, queues, bg);
  EXPECT_EQ(driver.num_links(), queues.size());
  EXPECT_EQ(driver.num_classes(), 2u);

  core::FluidNetwork reference_net;
  for (std::size_t l = 0; l < queues.size(); ++l) {
    reference_net.links.push_back({std::max(bg.share * base[l] / 8.0 / 1460.0, 1.0)});
    for (int u = 0; u < bg.users_per_link; ++u) {
      core::FluidUser user;
      user.paths.push_back(core::FluidPath{{l}, bg.rtt_s});
      reference_net.users.push_back(user);
    }
  }
  const core::FluidModel reference(reference_net, bg.algorithm);
  core::FluidState x = reference.initial_state(1.0);

  const int ticks = 40;
  driver.start();
  const std::uint64_t allocs0 = obs::thread_alloc_count();
  net.events().run_until(ticks * bg.cadence);
  const std::uint64_t allocs = obs::thread_alloc_count() - allocs0;
  ASSERT_EQ(driver.ticks(), static_cast<std::uint64_t>(ticks));

  const double cadence_s = to_seconds(bg.cadence);
  for (int t = 0; t < ticks; ++t) {
    x = reference.integrate(std::move(x), cadence_s / 8.0, cadence_s);
  }
  const std::vector<double> loads = reference.link_loads(x);
  for (std::size_t i = 0; i < queues.size(); ++i) {
    const double sat =
        std::clamp(loads[i] / reference_net.links[i].capacity, 0.0, 1.0);
    EXPECT_EQ(driver.saturation(i), sat) << "queue " << i;
    EXPECT_EQ(queues[i]->rate(), base[i] * std::max(1.0 - bg.share * sat, 0.05))
        << "queue " << i;
    const double p = reference_net.loss_scale *
                     std::pow(sat, reference_net.loss_exponent) * bg.loss_to_drop_scale;
    const std::uint32_t every =
        p > 1e-9 ? static_cast<std::uint32_t>(std::clamp(1.0 / p, 2.0, 1e9)) : 0;
    EXPECT_EQ(queues[i]->background_drop_every(), every) << "queue " << i;
  }
  // The two classes really differ, so the mapping is exercised.
  EXPECT_NE(driver.saturation(0), driver.saturation(1));
  EXPECT_GT(queues[0]->background_drop_every(), 0u);

  // Two fluid links with two users each cost ~550 allocations a tick; one
  // link per queue would cost ~16k.
  EXPECT_LT(allocs / ticks, 1000u);
}

// ------------------------------------------- fluid vs packet equilibrium

// The hybrid mode is only honest if the fluid model it borrows background
// rates from agrees with the packet simulator about steady state. Same
// setup as bench/ablation_fluid_vs_packet.cc: two asymmetric paths (100 vs
// 50 Mbps, equal delay), compare the per-path *rate split* — absolute
// rates differ because the fluid abstraction replaces DropTail loss with a
// smooth utilisation price, but the split is the quantity both levels must
// agree on.
double packet_share(const std::string& cc, SimTime duration) {
  Network net(5);
  TwoPathConfig cfg;
  cfg.cross_traffic = false;
  cfg.rate[0] = mbps(100);
  cfg.rate[1] = mbps(50);
  cfg.delay[0] = 10 * kMillisecond;
  cfg.delay[1] = 10 * kMillisecond;
  TwoPath topo(net, cfg);
  MptcpConfig mcfg;
  auto* conn =
      net.emplace<MptcpConnection>(net, "c", mcfg, make_multipath_cc(cc));
  PathManager::fullmesh(*conn, topo.paths());
  conn->start(0);
  net.events().run_until(duration);
  const double a = static_cast<double>(conn->subflow(0).bytes_acked_total());
  const double b = static_cast<double>(conn->subflow(1).bytes_acked_total());
  return a / (a + b);
}

double fluid_share(core::Algorithm alg) {
  core::FluidNetwork net;
  net.links = {{100e6 / 8 / 1460}, {50e6 / 8 / 1460}};
  core::FluidUser user;
  user.paths = {{{0}, 0.02}, {{1}, 0.02}};
  net.users = {user};
  core::FluidModel model(net, alg);
  const auto eq = model.equilibrium();
  return eq[0][0] / (eq[0][0] + eq[0][1]);
}

TEST(FluidVsPacket, DumbbellEquilibriumSharesAgree) {
  const struct {
    const char* cc;
    core::Algorithm alg;
  } cases[] = {{"lia", core::Algorithm::kLia}, {"olia", core::Algorithm::kOlia}};
  for (const auto& c : cases) {
    const double fluid = fluid_share(c.alg);
    const double packet = packet_share(c.cc, seconds(20));
    // The fast path carries ~2/3 of the traffic at both fidelity levels.
    EXPECT_GT(fluid, 0.55) << c.cc;
    EXPECT_LT(fluid, 0.80) << c.cc;
    EXPECT_GT(packet, 0.55) << c.cc;
    EXPECT_LT(packet, 0.80) << c.cc;
    EXPECT_NEAR(packet, fluid, 0.08) << c.cc;
  }
}

// --------------------------------------------- hybrid sweep bit-identity

harness::SweepPlan small_hybrid_plan() {
  harness::SweepPlan plan;
  plan.scenario = "fleet";
  plan.axes.push_back({"cc", {"lia", "olia"}});
  plan.axes.push_back({"fattree_k", {"4"}});
  plan.axes.push_back({"duration_s", {"0.5"}});
  plan.axes.push_back({"rate_fps", {"500"}});
  plan.axes.push_back({"size_b", {"20000"}});
  plan.axes.push_back({"fidelity", {"hybrid"}});
  plan.seeds = 2;
  return plan;
}

void expect_bit_identical(const harness::SweepReport& a,
                          const harness::SweepReport& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    ASSERT_TRUE(a.points[i].ok) << a.points[i].error;
    ASSERT_TRUE(b.points[i].ok) << b.points[i].error;
    EXPECT_EQ(a.points[i].params, b.points[i].params);
    ASSERT_EQ(a.points[i].values.size(), b.points[i].values.size()) << i;
    for (const auto& [column, value] : a.points[i].values) {
      const auto it = b.points[i].values.find(column);
      ASSERT_NE(it, b.points[i].values.end()) << column;
      EXPECT_EQ(value, it->second) << "point " << i << " column " << column;
    }
  }
}

// Hybrid fidelity shares nothing across points (per-flow substreams, pure
// fluid arithmetic), so results must be bit-identical no matter how many
// sweep workers ran them.
TEST(FleetSweep, HybridBitIdenticalAcrossJobs) {
  harness::SweepOptions serial;
  serial.jobs = 1;
  const harness::SweepReport r1 = harness::run_sweep(small_hybrid_plan(), serial);
  harness::SweepOptions parallel;
  parallel.jobs = 8;
  const harness::SweepReport r8 =
      harness::run_sweep(small_hybrid_plan(), parallel);
  ASSERT_EQ(r1.points.size(), 4u);
  expect_bit_identical(r1, r8);
  // Hybrid mode actually ran: every point completed flows.
  for (const auto& p : r1.points) {
    EXPECT_GT(p.values.at("completed"), 0.0);
  }
}

// A hybrid sweep interrupted mid-flight and resumed from its checkpoint
// restores the finished points and re-runs the rest to the same bits.
TEST(FleetSweep, HybridBitIdenticalUnderResume) {
  const std::string path =
      ::testing::TempDir() + "/fleet_hybrid_resume.jsonl";
  std::remove(path.c_str());

  harness::SweepOptions fresh_opts;
  fresh_opts.checkpoint_path = path;
  const harness::SweepReport fresh =
      harness::run_sweep(small_hybrid_plan(), fresh_opts);
  ASSERT_EQ(fresh.failed(), 0u) << fresh.failure_summary();
  ASSERT_EQ(fresh.points.size(), 4u);

  // Simulate the interruption: keep the header and the first two entries.
  const harness::CheckpointData full = harness::load_checkpoint(path);
  ASSERT_EQ(full.entries.size(), 4u);
  {
    harness::CheckpointWriter writer(path, "fleet", 4, false);
    writer.append(full.entries.at(0));
    writer.append(full.entries.at(1));
  }

  harness::SweepOptions resume_opts;
  resume_opts.checkpoint_path = path;
  resume_opts.resume = true;
  const harness::SweepReport resumed =
      harness::run_sweep(small_hybrid_plan(), resume_opts);
  EXPECT_EQ(resumed.restored(), 2u);
  EXPECT_TRUE(resumed.points[0].restored);
  EXPECT_TRUE(resumed.points[1].restored);
  EXPECT_FALSE(resumed.points[2].restored);
  expect_bit_identical(fresh, resumed);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mpcc::fleet
