// mpcc_perfbench: the repository benchmark.
//
// Runs one named workload as a closed loop with one client on one thread
// (the sweep engine with a single worker; each run starts after the previous
// one finished), checks every output, and prints the workload's metrics as
// one JSON object on the last line of stdout. Everything is measured from
// outside the library: the benchmark times its own calls into public functions
// (load_experiment_file, run_sweep, ScenarioSpec::run, run_fleet, FatTree,
// diff_golden) and reads the ledgers the library already keeps
// (SimContext::perf(), obs::thread_alloc_count(), EventList::profile()).
//
//   mpcc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--scenario-dir DIR] [--spans FILE]
//                  [--perturb-golden 1] [--inject-throw 1]
//
// A run repeats whole passes of the workload until S seconds have elapsed
// (at least two passes) and reports medians over passes. --trace 0 reports
// the end-to-end metrics; --trace 1 alternates untraced and traced passes
// (event-loop self-profiling on) and reports the per-layer metrics. The
// self-check flags make one output wrong on purpose: the run must then
// report failures and exit 1. See perfbench/README.md for the workloads and
// the metric definitions.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fleet/runner.h"
#include "fleet/workload.h"
#include "harness/sweep.h"
#include "net/network.h"
#include "obs/perf.h"
#include "obs/trace.h"
#include "scenario/builder.h"
#include "scenario/golden.h"
#include "scenario/parser.h"
#include "sim/context.h"
#include "sim/invariants.h"
#include "stats/summary.h"
#include "topo/fat_tree.h"

namespace {

using namespace mpcc;
using Clock = std::chrono::steady_clock;
using harness::ParamMap;
using harness::ResultRow;
using RunFn = std::function<ResultRow(SimContext&, const ParamMap&)>;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) { return Summary(std::move(v)).median(); }

/// Exact row equality: same columns, bit-identical values (NaN == NaN).
bool rows_identical(const ResultRow& a, const ResultRow& b) {
  if (a.size() != b.size()) return false;
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first) return false;
    if (std::memcmp(&ia->second, &ib->second, sizeof(double)) != 0) return false;
  }
  return true;
}

// ------------------------------------------------------------------- args

struct Args {
  std::string workload;
  std::int64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scenario_dir = "scenarios";
  std::string spans_path;
  bool perturb_golden = false;
  bool inject_throw = false;
};

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr,
               "mpcc_perfbench: %s\n"
               "usage: mpcc_perfbench --workload fleet_k16|figure_corpus|chaos_heal "
               "--seed N --seconds S --trace 0|1 [--scenario-dir DIR] [--spans FILE] "
               "[--perturb-golden 1] [--inject-throw 1]\n",
               why.c_str());
  std::exit(2);
}

std::int64_t parse_int(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const long long x = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0') usage_error(flag + ": not an integer: '" + v + "'");
  return x;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage_error(key + " needs a value");
    }
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = parse_int(key, value);
      if (a.seed < 0) usage_error("--seed must be >= 0");
    } else if (key == "--seconds") {
      a.seconds = static_cast<double>(parse_int(key, value));
      if (a.seconds < 1) usage_error("--seconds must be >= 1");
    } else if (key == "--trace") {
      a.trace = parse_int(key, value) != 0;
    } else if (key == "--scenario-dir") {
      a.scenario_dir = value;
    } else if (key == "--spans") {
      a.spans_path = value;
    } else if (key == "--perturb-golden") {
      a.perturb_golden = parse_int(key, value) != 0;
    } else if (key == "--inject-throw") {
      a.inject_throw = parse_int(key, value) != 0;
    } else {
      usage_error("unknown flag " + key);
    }
  }
  if (a.workload != "fleet_k16" && a.workload != "figure_corpus" &&
      a.workload != "chaos_heal") {
    usage_error("unknown workload '" + a.workload + "'");
  }
  return a;
}

// ------------------------------------------------------------ phase probe

/// Marks a run's phase boundaries from outside the runner. Scheduled at t=0
/// before the runner is called, it is the first event the run dispatches
/// (lowest sequence number at t=0), so it fires exactly when setup ends. As
/// a PerfFlushable it is also called at the end of every run_until/run_all
/// batch; the last call marks the end of the event loop. It touches no
/// simulation state, so every output stays unchanged (checked against the
/// golden bank on the bank's seeds).
class PhaseProbe final : public EventSource, public PerfFlushable {
 public:
  explicit PhaseProbe(EventList& events)
      : EventSource("perfbench.probe"), events_(events) {
    events_.schedule_at(this, events_.now());
    events_.register_perf_flush(this);
  }
  ~PhaseProbe() override { detach(); }

  void do_next_event() override {
    fired = true;
    first_event = Clock::now();
    allocs_at_first = obs::thread_alloc_count();
  }
  void flush_perf() override {
    if (detached_) return;
    flushed = true;
    loop_end = Clock::now();
    allocs_at_loop_end = obs::thread_alloc_count();
  }
  /// Stops listening (unregistering flushes once more; that call is ignored).
  void detach() {
    if (detached_) return;
    detached_ = true;
    events_.unregister_perf_flush(this);
  }

  bool fired = false;
  bool flushed = false;
  Clock::time_point first_event{};
  Clock::time_point loop_end{};
  std::uint64_t allocs_at_first = 0;
  std::uint64_t allocs_at_loop_end = 0;

 private:
  EventList& events_;
  bool detached_ = false;
};

/// What the benchmark saw of one run (one sweep point).
struct PointRecord {
  Clock::time_point enter, first_event, loop_end, runner_return;
  std::uint64_t allocs_setup = 0;
  std::uint64_t allocs_run = 0;
  std::uint64_t events = 0;  ///< dispatched by the run, probe excluded
  std::uint64_t packets = 0;
  std::uint64_t drops = 0;
  std::uint64_t chaos_injected = 0;
  obs::HdrHistogram dispatch_ns;
  obs::HdrHistogram queue_depth;
  std::vector<EventList::SourceProfile> profile;  ///< traced runs only

  double setup_s() const { return seconds_between(enter, first_event); }
  double run_s() const { return seconds_between(first_event, loop_end); }
};

/// Runs one point's runner between the probe's marks and records it.
/// `records` receives one entry per call, in sweep order (jobs = 1).
ResultRow run_probed(SimContext& ctx, const ParamMap& params, const RunFn& runner,
                     bool traced, std::vector<PointRecord>& records) {
  PointRecord rec;
  rec.enter = Clock::now();
  const std::uint64_t allocs_enter = obs::thread_alloc_count();
  PhaseProbe probe(ctx.events());
  const bool prev_profiling = obs::sim_profiling();
  if (traced) obs::set_sim_profiling(true);

  const auto finish = [&] {
    rec.runner_return = Clock::now();
    const std::uint64_t allocs_return = obs::thread_alloc_count();
    obs::set_sim_profiling(prev_profiling);
    probe.detach();
    rec.first_event = probe.fired ? probe.first_event : rec.runner_return;
    rec.loop_end = probe.flushed ? probe.loop_end : rec.first_event;
    const std::uint64_t at_first = probe.fired ? probe.allocs_at_first : allocs_return;
    const std::uint64_t at_end = probe.flushed ? probe.allocs_at_loop_end : at_first;
    rec.allocs_setup = at_first - allocs_enter;
    rec.allocs_run = at_end - at_first;
    const obs::PerfCounters& perf = ctx.perf();
    rec.events = perf.events_dispatched - (probe.fired ? 1 : 0);
    rec.packets = perf.packets_forwarded;
    rec.drops = perf.packets_dropped;
    rec.chaos_injected = perf.chaos_corrupted + perf.chaos_reordered +
                         perf.chaos_duplicated + perf.chaos_blackholed;
    rec.dispatch_ns = perf.dispatch_ns;
    rec.queue_depth = perf.queue_depth_pkts;
    if (traced) rec.profile = ctx.events().profile();
  };

  ResultRow row;
  try {
    row = runner(ctx, params);
  } catch (...) {
    finish();
    records.push_back(std::move(rec));
    throw;
  }
  finish();
  records.push_back(std::move(rec));
  return row;
}

// -------------------------------------------------------------- workloads

/// One scenario file of a workload, and the plan the benchmark runs it with.
struct PlanSpec {
  harness::ScenarioSpec spec;  ///< as built from the .mpcc file
  harness::SweepPlan plan;     ///< scenario name filled in per pass
  bool bank = false;           ///< the plan is the golden plan: diff the bank
};

std::vector<std::string> workload_files(const Args& args) {
  const std::filesystem::path dir(args.scenario_dir);
  std::vector<std::string> files;
  if (args.workload == "fleet_k16") {
    files.push_back((dir / "fleet_hybrid_fattree16.mpcc").string());
  } else if (args.workload == "chaos_heal") {
    files.push_back((dir / "chaos_heal_flaky.mpcc").string());
  } else {
    // Every paper-figure file: the corpus minus the fleet, chaos and
    // harness self-test scenarios.
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (entry.path().extension() != ".mpcc") continue;
      if (name.rfind("fleet_", 0) == 0 || name.rfind("chaos_", 0) == 0 ||
          name.rfind("selftest_", 0) == 0) {
        continue;
      }
      files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
  }
  if (args.inject_throw) {
    files.push_back((dir / "selftest_harness.mpcc").string());
  }
  return files;
}

/// Parses the workload's files and derives each plan from the seed. The
/// seed is the only input the benchmark varies; the program sees only the
/// resulting plan parameters.
std::vector<PlanSpec> load_workload(const Args& args) {
  std::vector<PlanSpec> plans;
  for (const std::string& path : workload_files(args)) {
    PlanSpec p;
    p.spec = scenario::build_scenario(scenario::load_experiment_file(path));
    const std::uint64_t seed = static_cast<std::uint64_t>(args.seed);
    if (p.spec.name == "selftest_harness") {
      // Self-check: one point whose runner throws.
      p.plan.axes.push_back({"mode", {"throw"}});
      p.plan.seeds = 1;
      p.plan.seed_base = seed;
    } else if (args.workload == "chaos_heal") {
      // The file's flaky campaign at 30 simulated seconds, eight seeds per
      // pass. (The hostile profile trips the liveness oracle on about a
      // quarter of the seeds, so it cannot be a workload where no run fails.)
      p.plan.axes.push_back({"duration_s", {"30"}});
      p.plan.seeds = 8;
      p.plan.seed_base = 8 * seed + 1;
    } else {
      // The golden plan, shifted by the seed; seed 1 is the bank's own plan.
      p.plan.seeds = p.spec.golden_seeds;
      p.plan.seed_base = p.spec.golden_seed_base + seed - 1;
      p.bank = seed == 1 && !p.spec.metrics.empty();
    }
    plans.push_back(std::move(p));
  }
  return plans;
}

/// The flagship options (fleet_hybrid_fattree16.mpcc over the fleet family
/// defaults). Traced fleet runs call run_fleet with these to read the rig
/// ledger the scenario row omits; their rows must match the scenario's.
fleet::FleetOptions flagship_options(std::uint64_t seed) {
  fleet::FleetOptions o;
  o.topo = harness::DcTopo::kFatTree;
  o.fat_tree.k = 16;
  o.cc = "lia";
  o.subflows = 2;
  o.duration = seconds(2);
  o.seed = seed;
  o.arrivals.rate_fps = 60000;
  o.sizes.kind = fleet::SizeConfig::Kind::kFixed;
  o.sizes.fixed_bytes = 20'000;
  o.matrix.kind = fleet::MatrixConfig::Kind::kPermutation;
  o.fidelity = "hybrid";
  o.background.share = 0.5;
  o.background.cadence = 50 * kMillisecond;
  return o;
}

ResultRow fleet_row(const fleet::FleetResult& r) {
  ResultRow row;
  row["completed"] = double(r.flows_completed);
  row["fabric_drops"] = double(r.fabric_drops);
  row["fct_p50_ms"] = r.fct_p50_ms;
  row["fct_p99_ms"] = r.fct_p99_ms;
  row["fct_p999_ms"] = r.fct_p999_ms;
  row["flows"] = double(r.flows_started);
  row["goodput_mbps"] = to_mbps(r.aggregate_goodput);
  row["joules_per_gb"] = r.joules_per_gigabyte;
  row["rigs"] = double(r.rigs_created);
  row["total_energy_j"] = r.total_energy_j;
  return row;
}

constexpr const char* kModules[] = {"net",     "tcp",   "mptcp", "energy",
                                    "traffic", "chaos", "dyn",   "fleet"};

/// Source-name suffix -> module, for EventList::profile() rows. Work done on
/// packet arrival (tcp receive, reassembly, cc) is charged to the net source
/// that delivered the packet; "fleet" also takes everything unmatched.
std::string module_of(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  const std::size_t colon = name.rfind(':');
  const std::string last = colon == std::string::npos ? name : name.substr(colon + 1);
  if (last == "q" || last == "p" || last == "fq" || last == "fp" || last == "rq" ||
      last == "rp") {
    return "net";
  }
  if (name.find(":sf") != std::string::npos || name.find(":sink") != std::string::npos) {
    return "tcp";
  }
  if (ends(":reinject")) return "mptcp";
  if (ends(":meter")) return "energy";
  if (ends(":cbr") || ends(":onoff") || ends(":burst")) return "traffic";
  if (name == "chaos" || ends(":liveness")) return "chaos";
  if (name == "dyn") return "dyn";
  return "fleet";
}

/// The process's peak RSS. VmHWM belongs to this program's address space;
/// getrusage's ru_maxrss also carries the peak of the process that exec'd
/// this one (run.py's Python interpreter), so it is only the fallback.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0);
}

// ----------------------------------------------------------------- spans

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  Clock::time_point begin, end;
};

// ------------------------------------------------------------------ pass

/// One pass of the workload, reduced to sums as its points complete (only
/// fixed-size state is kept across passes, so peak RSS is the program's).
struct Pass {
  bool traced = false;
  double wall_s = 0;
  double parse_s = 0;
  double setup_s = 0;  ///< parse + every point's setup
  double run_s = 0;
  double check_s = 0;           ///< golden loads, golden diffs, repeat checks
  double sweep_overhead_s = 0;  ///< sweep wall minus the sum of point walls
  double teardown_s = 0;        ///< point wall outside setup and run
  double peak_rss_mb = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  // Per-layer sums over the pass's points.
  double events = 0, packets = 0, drops = 0, chaos_injected = 0, oracle_checks = 0;
  double allocs_setup = 0, allocs_run = 0;
  double pool_hits = 0, pool_misses = 0;
  double flows = 0, completed = 0, guard_wall_s = 0;
  double rigs = 0, rigs_reused = 0;
  std::map<std::string, double> module_ms;
  std::vector<double> point_ms;
};

class Bench {
 public:
  explicit Bench(Args args) : args_(std::move(args)) {}

  Pass run_pass(bool traced);
  const Args& args() const { return args_; }
  const std::vector<Span>& spans() const { return spans_; }
  /// Sampled dispatch latency, merged over the untraced passes.
  const obs::HdrHistogram& dispatch_ns() const { return dispatch_ns_; }
  /// Queue depth, merged over all passes (the same recordings every pass).
  const obs::HdrHistogram& queue_depth() const { return queue_depth_; }

 private:
  bool check_point(const PlanSpec& p, std::size_t plan_index, std::size_t row_index,
                   const scenario::GoldenFile* golden,
                   const harness::SweepPointResult& s);
  void account(Pass& pass, const harness::SweepPointResult& s, const PointRecord& r);

  Args args_;
  bool perturbed_ = false;
  /// Rows of the first pass, per plan: later passes must repeat them exactly.
  std::vector<std::map<std::size_t, ResultRow>> reference_;
  std::vector<Span> spans_;
  std::uint64_t next_span_ = 1;
  obs::HdrHistogram dispatch_ns_;
  obs::HdrHistogram queue_depth_;
};

/// Returns true when the point passed: no guard error, its golden row (on
/// the bank's seeds) within the declared tolerances, and its row identical
/// to the first pass's.
bool Bench::check_point(const PlanSpec& p, std::size_t plan_index,
                        std::size_t row_index, const scenario::GoldenFile* golden,
                        const harness::SweepPointResult& s) {
  const std::string seed = s.params.at("seed");
  if (!s.ok) {
    std::fprintf(stderr, "FAILED %s seed=%s [%s]: %s\n", p.spec.name.c_str(), seed.c_str(),
                 harness::run_error_kind_name(s.error_kind), s.error.c_str());
    return false;
  }
  if (golden != nullptr) {
    // Per-row diff with the bank's declared tolerances.
    if (row_index >= golden->rows.size()) {
      std::fprintf(stderr, "GOLDEN %s: row %zu missing from the bank\n",
                   p.spec.name.c_str(), row_index);
      return false;
    }
    scenario::GoldenFile want = *golden;
    want.rows = {golden->rows[row_index]};
    scenario::GoldenFile got = want;
    got.rows[0].params = s.params;
    for (const harness::MetricSpec& m : golden->columns) {
      const auto it = s.values.find(m.column);
      got.rows[0].values[m.column] = it != s.values.end() ? it->second : std::nan("");
    }
    const std::vector<std::string> diffs = scenario::diff_golden(want, got);
    for (const std::string& d : diffs) {
      std::fprintf(stderr, "GOLDEN %s: %s\n", p.spec.name.c_str(), d.c_str());
    }
    if (!diffs.empty()) return false;
  }
  // Repeat check: every pass must reproduce the first pass bit for bit.
  auto& ref = reference_[plan_index];
  if (const auto it = ref.find(row_index); it == ref.end()) {
    ref.emplace(row_index, s.values);
  } else if (!rows_identical(it->second, s.values)) {
    std::fprintf(stderr, "REPEAT %s seed=%s: row differs from the first pass\n",
                 p.spec.name.c_str(), seed.c_str());
    return false;
  }
  return true;
}

void Bench::account(Pass& pass, const harness::SweepPointResult& s, const PointRecord& r) {
  pass.setup_s += r.setup_s();
  pass.run_s += r.run_s();
  pass.teardown_s += s.wall_ms / 1e3 - seconds_between(r.enter, r.loop_end);
  pass.point_ms.push_back(s.wall_ms);
  pass.events += double(r.events);
  pass.packets += double(r.packets);
  pass.drops += double(r.drops);
  pass.chaos_injected += double(r.chaos_injected);
  pass.allocs_setup += double(r.allocs_setup);
  pass.allocs_run += double(r.allocs_run);
  pass.pool_hits += double(s.perf.pool_hits);
  pass.pool_misses += double(s.perf.pool_misses);
  pass.guard_wall_s += s.perf.wall_s;
  const auto value = [&](const char* col) {
    const auto it = s.values.find(col);
    return it != s.values.end() ? it->second : 0.0;
  };
  pass.oracle_checks += value("oracle_checks");
  if (args_.workload == "fleet_k16") {
    pass.flows += value("flows");
    pass.completed += value("completed");
  }
  queue_depth_.merge(r.queue_depth);
  if (!pass.traced) dispatch_ns_.merge(r.dispatch_ns);
  for (const EventList::SourceProfile& row : r.profile) {
    if (row.name != "perfbench.probe") pass.module_ms[module_of(row.name)] += row.wall_ns / 1e6;
  }
}

Pass Bench::run_pass(bool traced) {
  Pass pass;
  pass.traced = traced;
  const auto t_pass = Clock::now();

  // Parse: every .mpcc file of the workload, compiled to scenario specs.
  const std::vector<PlanSpec> plans = load_workload(args_);
  pass.parse_s = seconds_between(t_pass, Clock::now());
  if (reference_.empty()) reference_.resize(plans.size());

  const bool fleet_direct = traced && args_.workload == "fleet_k16";
  for (std::size_t pi = 0; pi < plans.size(); ++pi) {
    const PlanSpec& p = plans[pi];
    std::vector<PointRecord> records;
    std::vector<fleet::FleetResult> fleet_results;
    RunFn runner = p.spec.run;
    if (fleet_direct) {
      runner = [&fleet_results](SimContext& ctx, const ParamMap& params) {
        const auto seed = static_cast<std::uint64_t>(harness::param_int(params, "seed", 1));
        fleet_results.push_back(fleet::run_fleet(ctx, flagship_options(seed)));
        return fleet_row(fleet_results.back());
      };
    }
    harness::ScenarioSpec wrapped = p.spec;
    wrapped.name = "perfbench." + p.spec.name;
    wrapped.run = [runner, traced, &records](SimContext& ctx, const ParamMap& params) {
      return run_probed(ctx, params, runner, traced, records);
    };
    harness::ScenarioRegistry::instance().add(std::move(wrapped));

    harness::SweepPlan plan = p.plan;
    plan.scenario = "perfbench." + p.spec.name;
    harness::SweepOptions options;
    options.jobs = 1;
    options.run_timeout_s = 170;
    const harness::SweepReport report = harness::run_sweep(plan, options);

    // Golden bank, loaded (and on request perturbed) once per pass.
    const auto t_check = Clock::now();
    scenario::GoldenFile golden;
    if (p.bank) {
      golden = scenario::load_golden(scenario::golden_path(
          args_.scenario_dir + "/golden", p.spec.name));
      if (args_.perturb_golden && !perturbed_ && !golden.rows.empty() &&
          !golden.rows[0].values.empty()) {
        double& v = golden.rows[0].values.begin()->second;
        v = v * 1.001 + 1.0;
        perturbed_ = true;
      }
    }
    pass.check_s += seconds_between(t_check, Clock::now());

    double point_wall_s = 0;
    for (std::size_t ri = 0; ri < report.points.size(); ++ri) {
      const harness::SweepPointResult& s = report.points[ri];
      const PointRecord& r = records.at(ri);
      const auto t0 = Clock::now();
      const bool ok = check_point(p, pi, ri, p.bank ? &golden : nullptr, s);
      const auto t1 = Clock::now();
      pass.check_s += seconds_between(t0, t1);
      ++pass.attempted;
      if (!ok) ++pass.failed;
      point_wall_s += s.wall_ms / 1e3;
      account(pass, s, r);
      if (ri < fleet_results.size()) {
        const fleet::FleetResult& f = fleet_results[ri];
        pass.rigs += double(f.rigs_created + f.rigs_reused + f.rigs_rebound);
        pass.rigs_reused += double(f.rigs_reused);
      }
      if (traced) {
        const std::uint64_t id = next_span_;
        next_span_ += 4;
        spans_.push_back({p.spec.name + " seed=" + s.params.at("seed"), id, 0, r.enter,
                          r.runner_return});
        spans_.push_back({"setup", id + 1, id, r.enter, r.first_event});
        spans_.push_back({"run", id + 2, id, r.first_event, r.loop_end});
        spans_.push_back({"golden", id + 3, id, t0, t1});
      }
    }
    pass.sweep_overhead_s += std::max(0.0, report.wall_s - point_wall_s);
  }
  if (args_.perturb_golden && !perturbed_) {
    std::fprintf(stderr, "--perturb-golden needs a golden-checked plan (--seed 1)\n");
    ++pass.failed;
  }
  pass.setup_s += pass.parse_s;
  pass.wall_s = seconds_between(t_pass, Clock::now());
  pass.peak_rss_mb = peak_rss_mb();
  return pass;
}

// ---------------------------------------------------------- topo probes

struct TopoProbe {
  double build_ms = 0;
  double build_allocs = 0;
  double paths_ns = 0;     ///< per paths() call, median over rounds
  double paths_allocs = 0; ///< per paths() call
};

/// Builds a k-ary FatTree and calls paths() over the host pairs a
/// permutation traffic matrix draws (the fleet workload's matrix).
TopoProbe probe_fattree(int k, std::uint64_t seed) {
  TopoProbe out;
  SimContext ctx(seed);
  SimContext::Scope scope(ctx);
  Network net(ctx);
  FatTreeConfig cfg;
  cfg.k = k;
  const std::uint64_t a0 = obs::thread_alloc_count();
  const auto t0 = Clock::now();
  FatTree tree(net, cfg);
  out.build_ms = seconds_between(t0, Clock::now()) * 1e3;
  out.build_allocs = static_cast<double>(obs::thread_alloc_count() - a0);

  fleet::MatrixConfig mc;
  mc.kind = fleet::MatrixConfig::Kind::kPermutation;
  const Rng root(seed);
  const fleet::TrafficMatrix matrix(mc, tree.num_hosts(), root.substream(1));
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  const std::size_t n_pairs = 256;
  for (std::size_t i = 0; i < n_pairs; ++i) {
    Rng flow_rng = root.substream(2 + i);
    pairs.push_back(matrix.pick(i, flow_rng));
  }
  std::vector<double> per_call_ns;
  std::uint64_t allocs = 0, calls = 0, sink = 0;
  for (int round = 0; round < 5; ++round) {
    const std::uint64_t b0 = obs::thread_alloc_count();
    const auto r0 = Clock::now();
    for (const auto& [src, dst] : pairs) sink += tree.paths(src, dst).size();
    per_call_ns.push_back(seconds_between(r0, Clock::now()) * 1e9 /
                          static_cast<double>(pairs.size()));
    allocs += obs::thread_alloc_count() - b0;
    calls += pairs.size();
  }
  if (sink == 0) std::fprintf(stderr, "topo probe: no paths at k=%d\n", k);
  out.paths_ns = median(per_call_ns);
  out.paths_allocs = static_cast<double>(allocs) / static_cast<double>(calls);
  return out;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 Clock::time_point origin) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"env\": " << obs::bench_env_json() << ",\n \"traceEvents\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ts = std::chrono::duration<double, std::micro>(s.begin - origin).count();
    const double dur = std::chrono::duration<double, std::micro>(s.end - s.begin).count();
    os << (i > 0 ? ",\n  " : "\n  ") << "{\"name\": \"" << s.name
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << json_number(ts)
       << ", \"dur\": " << json_number(dur) << ", \"args\": {\"id\": " << s.id
       << ", \"parent\": " << s.parent << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

/// Refuses to measure with a check switched off or from a non-Release build.
bool refuse_to_measure() {
  const char* why = nullptr;
  if (std::strcmp(obs::build_info().build_type, "Release") != 0) {
    why = "not a Release build";
  } else if (std::getenv("MPCC_NO_PERF") != nullptr || !obs::perf_enabled()) {
    why = "MPCC_NO_PERF is set (the perf ledger would read zero)";
  } else if (std::getenv("MPCC_NO_INVARIANTS") != nullptr || !invariants_enabled()) {
    why = "MPCC_NO_INVARIANTS is set (invariant checks must stay on)";
  }
  if (why != nullptr) std::fprintf(stderr, "mpcc_perfbench: refusing to measure: %s\n", why);
  return why != nullptr;
}

std::vector<Metric> end_to_end_metrics(const std::vector<Pass>& passes) {
  std::vector<double> wall, setup, run, rss;
  for (const Pass& p : passes) {
    wall.push_back(p.wall_s);
    setup.push_back(p.setup_s);
    run.push_back(p.run_s);
    rss.push_back(p.peak_rss_mb);
  }
  return {{"wall_s", median(wall), "s"},
          {"setup_s", median(setup), "s"},
          {"run_s", median(run), "s"},
          {"peak_rss_mb", median(rss), "MB"}};
}

std::vector<Metric> per_layer_metrics(const Bench& bench, const std::vector<Pass>& passes) {
  std::vector<const Pass*> plain, traced;
  for (const Pass& p : passes) (p.traced ? traced : plain).push_back(&p);
  // Median over passes of one per-pass figure.
  const auto med = [](const std::vector<const Pass*>& ps, double Pass::*field) {
    std::vector<double> v;
    for (const Pass* p : ps) v.push_back(p->*field);
    return median(v);
  };
  // Simulation counts repeat exactly in every pass; host costs come from the
  // untraced passes (profiling adds time and allocations of its own).
  const Pass& exact = *traced.front();
  const double events = exact.events;
  const double run_s = med(plain, &Pass::run_s);
  const double alloc_run = med(plain, &Pass::allocs_run);
  std::vector<double> point_ms;
  double pool_hits = 0, pool_misses = 0;
  for (const Pass* p : plain) {
    point_ms.insert(point_ms.end(), p->point_ms.begin(), p->point_ms.end());
    pool_hits += p->pool_hits;
    pool_misses += p->pool_misses;
  }

  std::vector<Metric> m = {
      {"sim.events", events, "count"},
      {"sim.events_per_s", run_s > 0 ? events / run_s : 0, "1/s"},
      {"sim.dispatch_ns.p50", bench.dispatch_ns().percentile(0.50), "ns"},
      {"sim.dispatch_ns.p99", bench.dispatch_ns().percentile(0.99), "ns"},
      {"net.packets", exact.packets, "count"},
      {"net.drops", exact.drops, "count"},
      {"net.queue_depth.p99", bench.queue_depth().percentile(0.99), "pkts"},
  };
  for (const char* mod : kModules) {
    std::vector<double> v;
    for (const Pass* p : traced) {
      const auto it = p->module_ms.find(mod);
      v.push_back(it != p->module_ms.end() ? it->second : 0.0);
    }
    m.push_back({std::string(mod) + ".dispatch_ms", median(v), "ms"});
  }

  const bool fleet_wl = bench.args().workload == "fleet_k16";
  const auto seed = static_cast<std::uint64_t>(bench.args().seed);
  const TopoProbe k4 = probe_fattree(4, seed);
  const TopoProbe k16 = probe_fattree(16, seed);
  const TopoProbe& own = fleet_wl ? k16 : k4;
  const double guard_wall_s = med(plain, &Pass::guard_wall_s);
  const double untraced_wall = med(plain, &Pass::wall_s);
  const double traced_wall = med(traced, &Pass::wall_s);
  const std::vector<Metric> rest = {
      {"topo.build_ms", own.build_ms, "ms"},
      {"topo.build_allocs", own.build_allocs, "count"},
      {"topo.paths_ns", own.paths_ns, "ns"},
      {"topo.paths_allocs", own.paths_allocs, "count"},
      {"topo.k4.paths_allocs", k4.paths_allocs, "count"},
      {"topo.k16.paths_allocs", k16.paths_allocs, "count"},
      {"fleet.flows_per_s", fleet_wl && guard_wall_s > 0 ? exact.completed / guard_wall_s : 0,
       "1/s"},
      {"fleet.allocs_per_flow", exact.flows > 0 ? alloc_run / exact.flows : 0, "count"},
      {"fleet.rig_reuse_frac", exact.rigs > 0 ? exact.rigs_reused / exact.rigs : 0, "ratio"},
      {"chaos.injected", exact.chaos_injected, "count"},
      {"chaos.oracle_checks", exact.oracle_checks, "count"},
      {"scenario.parse_ms", med(plain, &Pass::parse_s) * 1e3, "ms"},
      {"scenario.golden_ms", med(plain, &Pass::check_s) * 1e3, "ms"},
      {"harness.points", double(point_ms.size()), "count"},
      {"harness.point_ms.p50", Summary(point_ms).percentile(50), "ms"},
      {"harness.point_ms.p90", Summary(point_ms).percentile(90), "ms"},
      {"harness.overhead_ms", med(plain, &Pass::sweep_overhead_s) * 1e3, "ms"},
      {"harness.teardown_ms", med(plain, &Pass::teardown_s) * 1e3, "ms"},
      {"alloc.setup", med(plain, &Pass::allocs_setup), "count"},
      {"alloc.run", alloc_run, "count"},
      {"alloc.per_event", events > 0 ? alloc_run / events : 0, "ratio"},
      {"pool.hit_frac", pool_hits + pool_misses > 0 ? pool_hits / (pool_hits + pool_misses) : 0,
       "ratio"},
      {"trace.overhead_frac", untraced_wall > 0 ? traced_wall / untraced_wall - 1 : 0, "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (refuse_to_measure()) return 2;
  if (!std::filesystem::is_directory(args.scenario_dir + "/golden")) {
    std::fprintf(stderr, "mpcc_perfbench: no scenario corpus at %s\n",
                 args.scenario_dir.c_str());
    return 2;
  }
  std::printf("env %s\n", obs::bench_env_json().c_str());

  Bench bench(args);
  const auto origin = Clock::now();
  std::vector<Pass> passes;
  // Whole passes until the time is up: at least two (the repeat check needs
  // a second pass; a traced run needs one untraced and one traced), and none
  // that would likely end past the 150 s mark.
  const std::size_t min_passes = 2;
  try {
    while (true) {
      const bool traced = args.trace && passes.size() % 2 == 1;
      passes.push_back(bench.run_pass(traced));
      const Pass& last = passes.back();
      std::fprintf(stderr,
                   "pass %zu%s: wall %.4f s, setup %.4f s, run %.4f s, peak rss %.1f MB, "
                   "%zu/%zu failed\n",
                   passes.size() - 1, traced ? " (traced)" : "", last.wall_s, last.setup_s,
                   last.run_s, last.peak_rss_mb, last.failed, last.attempted);
      const double elapsed = seconds_between(origin, Clock::now());
      const bool pair_done = !args.trace || passes.size() % 2 == 0;
      if (passes.size() >= min_passes && pair_done &&
          (elapsed >= args.seconds || elapsed + 2 * passes.back().wall_s > 150)) {
        break;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpcc_perfbench: %s\n", e.what());
    return 2;
  }

  std::size_t attempted = 0, failed = 0;
  for (const Pass& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
  }
  std::vector<Pass> plain;
  for (const Pass& p : passes) {
    if (!p.traced) plain.push_back(p);
  }
  std::printf("workload %s seed %lld: %zu passes, failed_frac %.6g ratio (%zu/%zu)\n",
              args.workload.c_str(), static_cast<long long>(args.seed), passes.size(),
              attempted > 0 ? double(failed) / double(attempted) : 0.0, failed, attempted);
  const std::vector<Metric> metrics =
      args.trace ? per_layer_metrics(bench, passes) : end_to_end_metrics(plain);
  if (args.trace && !args.spans_path.empty() &&
      !write_spans(args.spans_path, bench.spans(), origin)) {
    std::fprintf(stderr, "mpcc_perfbench: cannot write %s\n", args.spans_path.c_str());
  }
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}
