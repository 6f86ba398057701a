// mpcc_bench: the repo's performance baseline instrument.
//
// Runs named micro- and macro-benchmarks over the simulator hot paths and
// emits machine-readable BENCH_core.json: per-op ns latency, events/sec,
// packets/sec, allocs/op per benchmark, stamped with git SHA / compiler /
// build type / hardware_threads so trajectories are comparable across
// commits. CI gates the micro tier against this file; end-to-end speed is
// perfbench's job — see docs/BENCHMARKS.md for which instrument to read.
//
//   mpcc_bench                      # full iterations, BENCH_core.json
//   mpcc_bench --smoke              # reduced iterations (quick check)
//   mpcc_bench --list               # names + help, no run
//   mpcc_bench --bench=tcp_second,psi_eval
//   mpcc_bench --json=FILE          # output path  (default BENCH_core.json)
//   mpcc_bench --reps=N             # A/B rep pairs (default 96, smoke 48)
//   mpcc_bench --no-ab              # skip the MPCC_NO_PERF A/B measurement
//
// The MPCC_NO_PERF A/B measures the overhead of the always-on perf counters
// themselves (obs/perf.h): the same short benchmark body is run with
// counting enabled and disabled back-to-back, many times, and the median
// of the per-pair CPU-time ratios is reported. CI asserts the overhead
// stays < 2%.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cc/registry.h"
#include "core/dts_factor.h"
#include "core/psi.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "mptcp/connection.h"
#include "mptcp/path_manager.h"
#include "net/network.h"
#include "obs/perf.h"
#include "sim/context.h"
#include "sim/pool.h"
#include "topo/two_path.h"
#include "traffic/bulk_flow.h"

namespace {

using namespace mpcc;

// ------------------------------------------------------------- harness core

/// What one benchmark body reports back: how many unit operations it
/// performed, and (for bodies whose inner runs use their own scoped
/// SimContexts, invisible to the outer collector) an override for the five
/// sim counters.
struct BenchRun {
  std::uint64_t ops = 0;
  std::optional<obs::PerfStats> counter_override;
};

struct BenchSpec {
  const char* name;
  const char* help;
  std::function<BenchRun(bool smoke)> fn;
};

/// One measured benchmark: the body's op count plus the perf ledger of the
/// run (counters from the bench's own SimContext, host costs from the
/// calling thread).
struct BenchResult {
  std::string name;
  std::uint64_t ops = 0;
  obs::PerfStats perf;

  double ns_per_op() const {
    return ops > 0 ? perf.wall_s * 1e9 / double(ops) : 0.0;
  }
  double ops_per_sec() const {
    return perf.wall_s > 0 ? double(ops) / perf.wall_s : 0.0;
  }
  double allocs_per_op() const {
    return ops > 0 ? double(perf.allocs) / double(ops) : 0.0;
  }
};

BenchResult run_bench(const BenchSpec& spec, bool smoke) {
  // Fresh isolated context per benchmark: counters start at zero and
  // nothing leaks between benchmarks (run order never matters).
  SimContext::Options copt;
  copt.seed = 1;
  copt.isolate_obs = true;
  SimContext ctx(copt);
  SimContext::Scope scope(ctx);
  const obs::PerfStatsCollector collector(ctx.perf());
  const BenchRun run = spec.fn(smoke);
  BenchResult result;
  result.name = spec.name;
  result.ops = run.ops;
  result.perf = collector.finish();
  if (run.counter_override.has_value()) {
    // Keep this thread's host costs (wall, cpu, allocs, rss); take the sim
    // counters from the inner runs' own ledgers.
    const obs::PerfStats& inner = *run.counter_override;
    result.perf.events_dispatched = inner.events_dispatched;
    result.perf.timers_fired = inner.timers_fired;
    result.perf.packets_enqueued = inner.packets_enqueued;
    result.perf.packets_forwarded = inner.packets_forwarded;
    result.perf.packets_dropped = inner.packets_dropped;
  }
  return result;
}

// -------------------------------------------------------------- the benches

class Noop final : public EventSource {
 public:
  Noop() : EventSource("noop") {}
  void do_next_event() override {}
};

BenchRun bench_event_schedule_dispatch(bool smoke) {
  const std::uint64_t iters = smoke ? 200'000 : 2'000'000;
  EventList events;
  Noop noop;
  SimTime t = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    events.schedule_at(&noop, t += 10);
    events.run_next();
  }
  return {iters, std::nullopt};
}

BenchRun bench_event_deep_heap(bool smoke) {
  const std::uint64_t iters = smoke ? 100'000 : 1'000'000;
  EventList events;
  Noop noop;
  // Keep a heap of 10k pending events while churning.
  for (int i = 0; i < 10'000; ++i) events.schedule_in(&noop, 1'000'000 + i);
  SimTime t = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    events.schedule_at(&noop, t += 1);
    events.run_next();
  }
  return {iters, std::nullopt};
}

BenchRun bench_event_cancel(bool smoke) {
  // RTO-style churn: every iteration arms a far-future event (lands in the
  // overflow heap), cancels it, and fires a near-term event. Exercises the
  // token/generation cancel path, dead-entry pruning, and the amortized
  // overflow compaction — the raw cost the lazy Timer rearm avoids paying
  // per ACK.
  const std::uint64_t iters = smoke ? 100'000 : 1'000'000;
  EventList events;
  Noop noop;
  SimTime t = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const EventToken rto = events.schedule_at(&noop, t + 200 * kMillisecond);
    events.schedule_at(&noop, t += 10);
    events.cancel(rto);
    events.run_next();
  }
  return {iters, std::nullopt};
}

BenchRun bench_pool_churn(bool smoke) {
  // Steady-state PoolArena recycling across the size classes the TCP/MPTCP
  // node containers actually hit (map nodes of in-flight records and
  // reassembly entries, 48-160B). Holds a sliding window of live nodes so
  // frees interleave with allocations like a real run; after warmup every
  // allocate is a free-list pop. Dispatches no events by design (listed in
  // scripts/check_bench_json.py NO_EVENTS_OK).
  const std::uint64_t iters = smoke ? 500'000 : 5'000'000;
  PoolArena arena;
  constexpr std::size_t kSizes[] = {48, 72, 96, 160};
  constexpr std::size_t kWindow = 1024;  // live nodes held at any moment
  void* live[kWindow] = {};
  std::size_t live_size[kWindow] = {};
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::size_t slot = i % kWindow;
    if (live[slot] != nullptr) arena.deallocate(live[slot], live_size[slot]);
    const std::size_t bytes = kSizes[i & 3];
    live[slot] = arena.allocate(bytes);
    live_size[slot] = bytes;
  }
  for (std::size_t s = 0; s < kWindow; ++s) {
    if (live[s] != nullptr) arena.deallocate(live[s], live_size[s]);
  }
  if (arena.reused() == 0) std::fputs("pool_churn: no reuse?\n", stderr);
  return {iters, std::nullopt};
}

BenchRun bench_queue_pipe_packet(bool smoke) {
  const std::uint64_t iters = smoke ? 20'000 : 200'000;
  Network net(1);
  Link link = net.make_link("l", gbps(10), 10 * kMicrosecond, 10'000'000);
  auto* sink = net.emplace<CountingSink>();
  Route* route = net.make_route();
  link.append_to(*route);
  route->push_back(sink);
  std::int64_t seq = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    route->inject(make_data_packet(1, seq, 1460, net.now()));
    seq += 1460;
    net.events().run_all();
  }
  return {iters, std::nullopt};
}

BenchRun bench_psi_eval(bool smoke) {
  const std::uint64_t iters = smoke ? 100'000 : 1'000'000;
  const std::vector<core::PathState> paths = {
      {10, 0.01, 0.008}, {25, 0.04, 0.03}, {8, 0.1, 0.09}, {40, 0.02, 0.02}};
  // Cycle through every algorithm and path so the mean covers the whole
  // dispatcher.
  double acc = 0;
  std::size_t r = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const auto alg = static_cast<core::Algorithm>(i & 7);
    acc += core::psi(alg, paths, r);
    r = (r + 1) % paths.size();
  }
  // Defeat dead-code elimination: the (never-taken) branch reads acc.
  if (acc == 0.12345) std::fputs("", stderr);
  return {iters, std::nullopt};
}

// The three eps_r evaluation paths of bench/ablation_fixed_point (which
// reports their accuracy). Like psi_eval they dispatch no events (listed in
// scripts/check_bench_json.py NO_EVENTS_OK).
BenchRun bench_eps_exact(bool smoke) {
  const std::uint64_t iters = smoke ? 100'000 : 1'000'000;
  double acc = 0;
  double ratio = 0.1;
  for (std::uint64_t i = 0; i < iters; ++i) {
    acc += core::dts_epsilon_from_ratio(ratio);
    ratio += 1e-6;
    if (ratio > 1.0) ratio = 0.1;
  }
  if (acc == 0.12345) std::fputs("", stderr);
  return {iters, std::nullopt};
}

template <Fixed (*Eps)(Fixed, Fixed)>
BenchRun bench_eps_q16(bool smoke) {
  const std::uint64_t iters = smoke ? 100'000 : 1'000'000;
  const Fixed rtt = Fixed::from_int(100'000);
  std::int64_t acc = 0;
  int base = 10'000;
  for (std::uint64_t i = 0; i < iters; ++i) {
    acc += Eps(Fixed::from_int(base), rtt).raw();
    base = base >= 100'000 ? 10'000 : base + 1;
  }
  if (acc == 12345) std::fputs("", stderr);
  return {iters, std::nullopt};
}

BenchRun bench_tcp_second(bool smoke) {
  // Cost of simulating one second of a saturated 100 Mbps TCP flow.
  const std::uint64_t iters = smoke ? 1 : 5;
  std::uint64_t acked = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    Network net(1);
    Link fwd = net.make_link("f", mbps(100), 5 * kMillisecond, 150'000);
    Link rev = net.make_link("r", mbps(100), 5 * kMillisecond, 150'000);
    TcpFlowHandles flow = make_tcp_flow(net, "f", {fwd.queue, fwd.pipe},
                                        {rev.queue, rev.pipe});
    flow.src->start(0);
    net.events().run_until(seconds(1));
    acked += flow.src->bytes_acked_total();
  }
  if (acked == 1) std::fputs("", stderr);
  return {iters, std::nullopt};
}

BenchRun bench_mptcp_second(bool smoke) {
  // One second of a two-path MPTCP connection under DTS.
  const std::uint64_t iters = smoke ? 1 : 3;
  std::uint64_t delivered = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    Network net(1);
    TwoPathConfig cfg;
    cfg.cross_traffic = false;
    TwoPath topo(net, cfg);
    MptcpConfig mcfg;
    auto* conn =
        net.emplace<MptcpConnection>(net, "c", mcfg, make_multipath_cc("dts"));
    PathManager::fullmesh(*conn, topo.paths());
    conn->start(0);
    net.events().run_until(seconds(1));
    delivered += conn->bytes_delivered();
  }
  if (delivered == 1) std::fputs("", stderr);
  return {iters, std::nullopt};
}

// Macro benches through the real sweep engine (jobs=1 so thread-level host
// costs stay on this thread). The inner runs own isolated contexts, so the
// sim counters come back via the report's perf ledger.
BenchRun bench_sweep_point(bool smoke) {
  harness::SweepPlan plan;
  plan.scenario = "two_path";
  plan.axes.push_back({"cc", {"lia", "dts"}});
  plan.axes.push_back({"duration_s", {smoke ? "1" : "2"}});
  plan.axes.push_back({"cross_traffic", {"0"}});
  plan.seeds = smoke ? 1 : 2;
  harness::SweepOptions options;
  options.jobs = 1;
  const harness::SweepReport report = harness::run_sweep(plan, options);
  return {report.points.size(), report.perf_total()};
}

BenchRun bench_handover_point(bool smoke) {
  harness::SweepPlan plan;
  plan.scenario = "handover";
  plan.axes.push_back({"cc", {"lia", "dts"}});
  plan.axes.push_back({"duration_s", {smoke ? "2" : "5"}});
  plan.seeds = 1;
  harness::SweepOptions options;
  options.jobs = 1;
  const harness::SweepReport report = harness::run_sweep(plan, options);
  return {report.points.size(), report.perf_total()};
}

const std::vector<BenchSpec>& all_benches() {
  static const std::vector<BenchSpec> benches = {
      {"event_schedule_dispatch", "schedule + dispatch one noop event",
       bench_event_schedule_dispatch},
      {"event_deep_heap", "schedule + dispatch against a 10k-event heap",
       bench_event_deep_heap},
      {"event_cancel", "far-future schedule + cancel + near dispatch (RTO churn)",
       bench_event_cancel},
      {"pool_churn", "PoolArena allocate/free cycling, 1k-node live window",
       bench_pool_churn},
      {"queue_pipe_packet", "one 1460B packet through a 10G queue+pipe link",
       bench_queue_pipe_packet},
      {"psi_eval", "core::psi dispatcher over all 8 algorithms, 4 paths",
       bench_psi_eval},
      {"eps_exact", "DTS eps_r, double-precision reference",
       bench_eps_exact},
      {"eps_fixed", "DTS eps_r, Q16.16 shift-based exp (kernel path)",
       bench_eps_q16<core::dts_epsilon_fixed>},
      {"eps_taylor3", "DTS eps_r, Algorithm 1's 3-term Taylor series",
       bench_eps_q16<core::dts_epsilon_taylor3>},
      {"tcp_second", "one simulated second of a saturated 100 Mbps TCP flow",
       bench_tcp_second},
      {"mptcp_second", "one simulated second of two-path MPTCP under dts",
       bench_mptcp_second},
      {"sweep_point", "two_path sweep points through the real sweep engine",
       bench_sweep_point},
      {"handover_point", "handover scenario points (dyn script + reactive PM)",
       bench_handover_point},
  };
  return benches;
}

// ---------------------------------------------------- MPCC_NO_PERF A/B test

struct AbResult {
  double cpu_on_s = 0;         ///< min-of-reps with counters enabled
  double cpu_off_s = 0;        ///< min-of-reps with MPCC_NO_PERF semantics
  double pair_median = 0;      ///< median of per-pair on/off ratios - 1
  int reps = 0;
  /// The gate estimator: median of per-pair on/off CPU-time ratios.
  double overhead_pct() const { return pair_median * 100.0; }
  /// Secondary: the two arms' minima compared directly.
  double min_pct() const {
    return cpu_off_s > 0 ? (cpu_on_s - cpu_off_s) / cpu_off_s * 100.0 : 0.0;
  }
};

// Interleaved on/off repetitions of ONE simulated TCP second (~5 ms of
// host CPU). Each repetition times both arms back-to-back and contributes
// one on/off CPU-time ratio; the estimator is the MEDIAN of those paired
// ratios. Pairing matters: host drift (frequency ramps, steal, cache
// pressure) moves both halves of a pair together and cancels in the
// ratio, while comparing two independently-taken minima — the obvious
// alternative — inherits the noise floor of each arm separately, which
// measures ±1.5% on a 1-vCPU host where the signal itself is ~1.5%. The
// body is deliberately SHORT: a preemption lands inside a ~20 ms body on
// most reps of a busy host, but a ~5 ms body usually runs clean, so the
// median sharpens with rep count instead of saturating. The min-of-reps
// comparison is still reported alongside as a sanity check.
AbResult measure_perf_overhead(int reps, bool smoke) {
  (void)smoke;  // same body both modes; only the rep count differs
  const bool was_enabled = obs::perf_enabled();
  AbResult ab;
  ab.reps = reps;
  ab.cpu_on_s = 1e300;
  ab.cpu_off_s = 1e300;
  std::vector<double> ratios;
  ratios.reserve(static_cast<std::size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    // Alternate which arm goes first: the first body after a pause runs
    // with cold caches and a ramping clock, and that position bias is the
    // same order of magnitude as the effect being measured.
    const bool on_first = (rep & 1) == 0;
    double pair_on = 0;
    double pair_off = 0;
    for (const bool enabled : {on_first, !on_first}) {
      obs::set_perf_enabled(enabled);
      SimContext::Options copt;
      copt.isolate_obs = true;
      SimContext ctx(copt);
      SimContext::Scope scope(ctx);
      // Thread-CPU time, not wall clock: the A/B difference is a few
      // percent, and on a shared/loaded host scheduler preemption adds
      // wall-clock noise an order of magnitude larger than the signal.
      const double c0 = obs::thread_cpu_seconds();
      bench_tcp_second(/*smoke=*/true);  // one simulated second
      const double cpu = obs::thread_cpu_seconds() - c0;
      (enabled ? pair_on : pair_off) = cpu;
      double& slot = enabled ? ab.cpu_on_s : ab.cpu_off_s;
      slot = std::min(slot, cpu);
    }
    if (pair_off > 0) ratios.push_back(pair_on / pair_off);
  }
  obs::set_perf_enabled(was_enabled);
  if (!ratios.empty()) {
    std::sort(ratios.begin(), ratios.end());
    const std::size_t n = ratios.size();
    const double median = (n % 2 == 1)
                              ? ratios[n / 2]
                              : (ratios[n / 2 - 1] + ratios[n / 2]) / 2.0;
    ab.pair_median = median - 1.0;
  }
  return ab;
}

// ----------------------------------------------------------------- emitters

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

bool write_json(const std::string& path, const std::vector<BenchResult>& results,
                const std::optional<AbResult>& ab, bool smoke) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\n  \"mpcc_bench\": 1,\n"
     << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
     << "  \"env\": " << obs::bench_env_json() << ",\n"
     << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "\"ops\": %llu, \"wall_s\": %.6f, \"ns_per_op\": %.1f, "
                  "\"ops_per_sec\": %.2f, \"allocs_per_op\": %.3f,\n",
                  static_cast<unsigned long long>(r.ops), r.perf.wall_s,
                  r.ns_per_op(), r.ops_per_sec(), r.allocs_per_op());
    os << "    {\"name\": \"" << json_escape(r.name) << "\", " << buf
       << "      \"perf\": " << r.perf.to_json() << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]";
  if (ab.has_value()) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  ",\n  \"perf_overhead\": {\"benchmark\": \"tcp_second\", "
                  "\"reps\": %d, \"cpu_on_s\": %.6f, \"cpu_off_s\": %.6f, "
                  "\"overhead_pct\": %.2f, \"min_pct\": %.2f, "
                  "\"target_pct\": 2.0}",
                  ab->reps, ab->cpu_on_s, ab->cpu_off_s, ab->overhead_pct(),
                  ab->min_pct());
    os << buf;
  }
  os << "\n}\n";
  return bool(os);
}

bool selected(const std::string& csv, const char* name) {
  if (csv.empty()) return true;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (csv.compare(start, end - start, name) == 0) return true;
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return false;
}

int usage(const char* argv0) {
  std::printf(
      "usage: %s [--smoke] [--bench=name1,name2] [--json=FILE] [--reps=N]\n"
      "       %*s [--no-ab] [--list]\n",
      argv0, int(std::strlen(argv0)), "");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using harness::arg_int;
  using harness::arg_string;
  using harness::has_flag;

  if (has_flag(argc, argv, "--help")) return usage(argv[0]);
  if (has_flag(argc, argv, "--list")) {
    std::printf("benchmarks:\n");
    for (const BenchSpec& b : all_benches()) {
      std::printf("  %-26s %s\n", b.name, b.help);
    }
    return 0;
  }

  const bool smoke = has_flag(argc, argv, "--smoke");
  const std::string which = arg_string(argc, argv, "--bench", "");
  const std::string json_path =
      arg_string(argc, argv, "--json", "BENCH_core.json");
  // Enough pairs for the ratio median to sharpen (see
  // measure_perf_overhead); the smoke default keeps the A/B under half a
  // second of CPU.
  const int reps =
      int(arg_int(argc, argv, "--reps", smoke ? 48 : 96));
  const bool run_ab = !has_flag(argc, argv, "--no-ab");

  if (!obs::perf_enabled()) {
    std::fprintf(stderr,
                 "mpcc_bench: MPCC_NO_PERF is set; counters would read zero. "
                 "Unset it (the A/B measures the off mode itself).\n");
    return 2;
  }
  // A dirty checkout's SHA does not describe the code under test, and an
  // "unknown" SHA means the build escaped the stamping machinery (non-CMake
  // build or no git checkout): either way the output is not attributable.
  const obs::BuildInfo& info = obs::build_info();
  if (info.git_dirty) {
    std::fprintf(stderr,
                 "warning: benchmarking a dirty checkout — env.git_sha %s "
                 "does not describe the code under test\n",
                 info.git_sha);
  } else if (std::strcmp(info.git_sha, "unknown") == 0) {
    std::fprintf(stderr,
                 "warning: build has no git provenance (env.git_sha "
                 "\"unknown\"); %s will not be attributable\n",
                 json_path.c_str());
  }

  // The A/B runs FIRST, in a pristine process: after the macro benchmarks
  // the heap is fragmented by a few hundred thousand allocations and the
  // measured differential roughly doubles — that would gate the counters
  // on an artefact of benchmark ordering, not on their hot-path cost.
  std::optional<AbResult> ab;
  if (run_ab) {
    ab = measure_perf_overhead(std::max(1, reps), smoke);
    std::printf(
        "MPCC_NO_PERF A/B (tcp_second, median of %d CPU-time rep pairs): "
        "%.2f%% overhead (min-of-reps %.2f%%, target < 2%%)\n\n",
        ab->reps, ab->overhead_pct(), ab->min_pct());
  }

  std::vector<BenchResult> results;
  std::printf("%-26s %12s %14s %14s %12s %10s\n", "benchmark", "ops",
              "ns/op", "events/s", "packets/s", "allocs/op");
  for (const BenchSpec& spec : all_benches()) {
    if (!selected(which, spec.name)) continue;
    BenchResult r = run_bench(spec, smoke);
    std::printf("%-26s %12llu %14.1f %14.0f %12.0f %10.2f\n", r.name.c_str(),
                static_cast<unsigned long long>(r.ops), r.ns_per_op(),
                r.perf.events_per_sec(), r.perf.packets_per_sec(),
                r.allocs_per_op());
    results.push_back(std::move(r));
  }
  if (results.empty()) {
    std::fprintf(stderr, "mpcc_bench: no benchmark matches --bench=%s\n",
                 which.c_str());
    return 2;
  }

  if (!write_json(json_path, results, ab, smoke)) {
    std::fprintf(stderr, "mpcc_bench: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
