#include "harness/sweep.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "harness/checkpoint.h"
#include "scenario/builder.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/trace.h"
#include "sim/invariants.h"
#include "util/json.h"
#include "util/logging.h"

namespace mpcc::harness {

namespace {

// Parses the full string as a double; returns false on any trailing junk.
bool parse_double(const std::string& s, double& out) {
  std::istringstream is(s);
  is >> out;
  return !is.fail() && is.eof();
}

bool parse_int(const std::string& s, std::int64_t& out) {
  std::istringstream is(s);
  is >> out;
  return !is.fail() && is.eof();
}

// Shortest %g rendering that round-trips typical grid values.
std::string render_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

double param_double(const ParamMap& params, const std::string& name,
                    double fallback) {
  const auto it = params.find(name);
  if (it == params.end()) return fallback;
  double v = 0;
  if (!parse_double(it->second, v)) {
    MPCC_WARN << "param " << name << "=\"" << it->second
                << "\" is not a number; using " << fallback;
    return fallback;
  }
  return v;
}

std::int64_t param_int(const ParamMap& params, const std::string& name,
                       std::int64_t fallback) {
  const auto it = params.find(name);
  if (it == params.end()) return fallback;
  std::int64_t v = 0;
  if (!parse_int(it->second, v)) {
    MPCC_WARN << "param " << name << "=\"" << it->second
                << "\" is not an integer; using " << fallback;
    return fallback;
  }
  return v;
}

std::string param_string(const ParamMap& params, const std::string& name,
                         std::string fallback) {
  const auto it = params.find(name);
  return it == params.end() ? std::move(fallback) : it->second;
}

bool param_bool(const ParamMap& params, const std::string& name, bool fallback) {
  const auto it = params.find(name);
  if (it == params.end()) return fallback;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  MPCC_WARN << "param " << name << "=\"" << v << "\" is not a bool; using "
              << fallback;
  return fallback;
}

bool ScenarioSpec::has_param(const std::string& param) const {
  if (param == "seed") return true;
  for (const ParamSpec& p : params) {
    if (p.name == param) return true;
  }
  return false;
}

// ---------------------------------------------------------------- registry

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::add(ScenarioSpec spec) {
  // Replace in place so outstanding find() pointers keep seeing the
  // current spec instead of dangling.
  for (const std::unique_ptr<ScenarioSpec>& existing : specs_) {
    if (existing->name == spec.name) {
      *existing = std::move(spec);
      return;
    }
  }
  specs_.push_back(std::make_unique<ScenarioSpec>(std::move(spec)));
}

const ScenarioSpec* ScenarioRegistry::find(const std::string& name) const {
  for (const std::unique_ptr<ScenarioSpec>& spec : specs_) {
    if (spec->name == name) return spec.get();
  }
  // The runner functions are named run_<scenario>; accept that spelling too
  // ("run_handover" finds "handover").
  if (name.rfind("run_", 0) == 0) return find(name.substr(4));
  return nullptr;
}

std::string ScenarioRegistry::names() const {
  std::string out;
  for (const std::unique_ptr<ScenarioSpec>& spec : specs_) {
    if (!out.empty()) out += ", ";
    out += spec->name;
  }
  return out;
}

std::vector<const ScenarioSpec*> ScenarioRegistry::all() const {
  std::vector<const ScenarioSpec*> out;
  out.reserve(specs_.size());
  for (const std::unique_ptr<ScenarioSpec>& spec : specs_) {
    out.push_back(spec.get());
  }
  return out;
}

// ------------------------------------------------------- builtin scenarios
//
// The point functions and their parameter tables live in the scenario layer
// now (src/scenario/family.cc); registration goes through the shared
// ExperimentBuilder so built-in and file-loaded scenarios are
// indistinguishable to the registry.

void register_builtin_scenarios() { scenario::register_builtin_experiments(); }

// -------------------------------------------------------------------- plan

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace

std::vector<std::string> parse_axis_values(const std::string& expr) {
  std::vector<std::string> values;
  // "lo:hi:step" numeric range (all three parts must parse as numbers).
  const std::size_t c1 = expr.find(':');
  if (c1 != std::string::npos) {
    const std::size_t c2 = expr.find(':', c1 + 1);
    if (c2 != std::string::npos) {
      double lo = 0, hi = 0, step = 0;
      if (parse_double(trim(expr.substr(0, c1)), lo) &&
          parse_double(trim(expr.substr(c1 + 1, c2 - c1 - 1)), hi) &&
          parse_double(trim(expr.substr(c2 + 1)), step) && step > 0) {
        // Tolerance absorbs accumulated fp error at the top end.
        for (double v = lo; v <= hi + step * 1e-9; v += step) {
          values.push_back(render_double(v));
        }
        if (values.empty()) {
          throw std::invalid_argument("axis range \"" + expr +
                                      "\" is empty (lo > hi?)");
        }
        return values;
      }
    }
  }
  // Comma list; whitespace around items is trimmed, empty items dropped.
  std::size_t start = 0;
  while (start <= expr.size()) {
    const std::size_t comma = expr.find(',', start);
    const std::size_t end = comma == std::string::npos ? expr.size() : comma;
    const std::string item = trim(expr.substr(start, end - start));
    if (!item.empty()) values.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (values.empty()) {
    throw std::invalid_argument("axis value expression \"" + expr +
                                "\" has no values (expected v1,v2,... or "
                                "lo:hi:step)");
  }
  return values;
}

std::vector<ParamMap> SweepPlan::points() const {
  bool seed_axis = false;
  for (const SweepAxis& axis : axes) {
    if (axis.param == "seed") seed_axis = true;
  }

  std::vector<ParamMap> grid{ParamMap{}};
  for (const SweepAxis& axis : axes) {
    std::vector<ParamMap> next;
    next.reserve(grid.size() * axis.values.size());
    for (const ParamMap& base : grid) {
      for (const std::string& value : axis.values) {
        ParamMap point = base;
        point[axis.param] = value;
        next.push_back(std::move(point));
      }
    }
    grid = std::move(next);
  }

  if (seed_axis) return grid;

  std::vector<ParamMap> out;
  const int replicates = std::max(1, seeds);
  out.reserve(grid.size() * std::size_t(replicates));
  for (const ParamMap& base : grid) {
    for (int i = 0; i < replicates; ++i) {
      ParamMap point = base;
      point["seed"] = std::to_string(seed_base + std::uint64_t(i));
      out.push_back(std::move(point));
    }
  }
  return out;
}

// ---------------------------------------------------------------- parallel

namespace {

// Wraps whatever task `i` threw into a runtime_error that names the task
// and preserves the original message. A blind current_exception() capture
// would surface as a bare what() with no hint of *which* task died —
// useless in a 10k-point sweep.
std::exception_ptr describe_task_error(std::size_t i) {
  try {
    throw;  // rethrow the in-flight exception to inspect it
  } catch (const std::exception& e) {
    return std::make_exception_ptr(std::runtime_error(
        "parallel_for: task " + std::to_string(i) + " failed: " + e.what()));
  } catch (...) {
    return std::make_exception_ptr(std::runtime_error(
        "parallel_for: task " + std::to_string(i) + " threw a non-std::exception"));
  }
}

}  // namespace

void parallel_for(std::size_t count, int jobs,
                  const std::function<void(std::size_t)>& fn) {
  const std::size_t workers =
      std::min<std::size_t>(count, std::size_t(std::max(1, jobs)));
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      try {
        fn(i);
      } catch (...) {
        std::rethrow_exception(describe_task_error(i));
      }
    }
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        std::exception_ptr described = describe_task_error(i);
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = described;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

// ------------------------------------------------------------------- sweep

namespace {

std::string describe_point(const ParamMap& params) {
  std::string out;
  for (const auto& [key, value] : params) {
    if (!out.empty()) out += ' ';
    out += key + '=' + value;
  }
  return out;
}

// One stderr write per line; safe to interleave across workers.
void progress_line(const std::string& text) {
  const std::string line = text + "\n";
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace

SweepReport run_sweep(const SweepPlan& plan, const SweepOptions& options) {
  register_builtin_scenarios();
  const ScenarioSpec* spec = ScenarioRegistry::instance().find(plan.scenario);
  if (spec == nullptr) {
    throw std::invalid_argument("unknown scenario \"" + plan.scenario +
                                "\" (valid: " +
                                ScenarioRegistry::instance().names() + ")");
  }
  for (const SweepAxis& axis : plan.axes) {
    if (!spec->has_param(axis.param)) {
      throw std::invalid_argument("scenario \"" + plan.scenario +
                                  "\" has no parameter \"" + axis.param + "\"");
    }
    if (axis.values.empty()) {
      throw std::invalid_argument("axis \"" + axis.param + "\" has no values");
    }
  }

  if (options.resume && options.checkpoint_path.empty()) {
    throw std::invalid_argument("resume requires a checkpoint path");
  }

  if (!options.out_dir.empty()) {
    std::filesystem::create_directories(options.out_dir);
  }

  const std::vector<ParamMap> points = plan.points();
  SweepReport report;
  report.scenario = plan.scenario;
  report.jobs = std::max(1, options.jobs);
  report.points.resize(points.size());

  // Resume: restore ok runs from the checkpoint; everything else (failed,
  // timed out, never written) lands on the todo list. Restored results are
  // bit-identical to fresh ones because values round-trip through %.17g and
  // each run's RNG is keyed by its axis point, not by run order.
  std::vector<std::size_t> todo;
  todo.reserve(points.size());
  if (options.resume) {
    const CheckpointData ck = load_checkpoint(options.checkpoint_path);
    if (ck.scenario != plan.scenario) {
      throw std::invalid_argument("checkpoint \"" + options.checkpoint_path +
                                  "\" is for scenario \"" + ck.scenario +
                                  "\", not \"" + plan.scenario + "\"");
    }
    if (ck.total_points != points.size()) {
      throw std::invalid_argument(
          "checkpoint \"" + options.checkpoint_path + "\" covers " +
          std::to_string(ck.total_points) + " points but this plan expands to " +
          std::to_string(points.size()) + " (different axes or seeds?)");
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto it = ck.entries.find(i);
      if (it == ck.entries.end() || !it->second.ok) {
        todo.push_back(i);
        continue;
      }
      const CheckpointEntry& entry = it->second;
      if (entry.params != points[i]) {
        throw std::invalid_argument(
            "checkpoint entry " + std::to_string(i) +
            " was run with different parameters (" + describe_point(entry.params) +
            " vs " + describe_point(points[i]) + "); refusing to resume");
      }
      SweepPointResult& result = report.points[i];
      result.index = i;
      result.params = entry.params;
      result.values = entry.values;
      result.wall_ms = entry.wall_ms;
      result.ok = true;
      result.restored = true;
      result.perf = entry.perf;
    }
  } else {
    for (std::size_t i = 0; i < points.size(); ++i) todo.push_back(i);
  }

  std::unique_ptr<CheckpointWriter> checkpoint;
  if (!options.checkpoint_path.empty()) {
    checkpoint = std::make_unique<CheckpointWriter>(
        options.checkpoint_path, plan.scenario, points.size(),
        /*append_mode=*/options.resume);
  }

  GuardOptions guard;
  guard.run_timeout_s = options.run_timeout_s;
  guard.event_budget = options.event_budget;

  std::atomic<std::size_t> done{0};
  std::atomic<bool> abort{false};
  const auto sweep_start = std::chrono::steady_clock::now();

  parallel_for(todo.size(), options.jobs, [&](std::size_t t) {
    const std::size_t i = todo[t];
    SweepPointResult& result = report.points[i];
    result.index = i;
    result.params = points[i];

    if (abort.load(std::memory_order_relaxed)) {
      // fail-fast tripped on another worker; record, don't run.
      result.skipped = true;
      result.error = "not run (fail-fast after an earlier failure)";
      return;
    }

    const auto t0 = std::chrono::steady_clock::now();
    SimContext::Options copt;
    copt.seed = static_cast<std::uint64_t>(param_int(points[i], "seed", 1));
    copt.isolate_obs = true;  // each run owns its tracer + metrics
    SimContext ctx(copt);
    {
      SimContext::Scope scope(ctx);
      if (options.trace_mask != 0) {
        ctx.tracer().enable(options.trace_mask,
                            options.trace_capacity != 0
                                ? options.trace_capacity
                                : obs::Tracer::kDefaultCapacity);
      }
      const RunReport run = guarded_run(
          ctx, guard, [&] { result.values = spec->run(ctx, points[i]); });
      result.ok = run.ok;
      result.error = run.message;
      result.error_kind = run.kind;
      result.error_domain = run.domain;
      result.fail_sim_time = run.sim_time;
      result.perf = run.perf;
      if (!run.ok) result.values.clear();  // partial rows from a dead run lie
      if (!options.out_dir.empty()) {
        const std::string stem =
            options.out_dir + "/run_" + std::to_string(i);
        if (options.trace_mask != 0) {
          obs::write_chrome_trace(ctx.tracer(), stem + "_trace.json");
        }
        if (options.per_run_metrics) {
          ctx.metrics().write_json(stem + "_metrics.json");
        }
      }
    }
    result.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();

    if (!result.ok && options.fail_fast) {
      abort.store(true, std::memory_order_relaxed);
    }
    if (checkpoint != nullptr) {
      CheckpointEntry entry;
      entry.index = i;
      entry.ok = result.ok;
      entry.kind = result.error_kind;
      entry.wall_ms = result.wall_ms;
      entry.sim_time = result.fail_sim_time;
      entry.error = result.error;
      entry.domain = result.error_domain;
      entry.params = result.params;
      entry.values = result.values;
      entry.perf = result.perf;
      checkpoint->append(entry);
    }

    if (options.progress) {
      const std::size_t n = done.fetch_add(1, std::memory_order_relaxed) + 1;
      // Live throughput + ETA from the sweep's own elapsed wall clock; the
      // ETA assumes the remaining points cost what the finished ones did.
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - sweep_start)
                                 .count();
      const double pps = elapsed > 0 ? double(n) / elapsed : 0.0;
      char head[96];
      std::snprintf(head, sizeof head, "[%zu/%zu] ", n, todo.size());
      char pace[96];
      if (pps > 0 && n < todo.size()) {
        std::snprintf(pace, sizeof pace, "  | %.1f pts/s ETA %.0fs", pps,
                      double(todo.size() - n) / pps);
      } else if (pps > 0) {
        std::snprintf(pace, sizeof pace, "  | %.1f pts/s", pps);
      } else {
        pace[0] = '\0';
      }
      std::string tail;
      if (!result.ok) {
        tail = "  FAILED[" + std::string(run_error_kind_name(result.error_kind)) +
               "]: " + result.error;
      }
      progress_line(head + plan.scenario + " " + describe_point(points[i]) + tail +
                    "  (" + render_double(result.wall_ms) + " ms)" + pace);
    }
  });

  report.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - sweep_start)
                      .count();

  // Outcome counters land in the *caller's* (ambient) registry — worker
  // runs used isolated per-run registries, so this is the one place sweep-
  // level failure stats are visible to exporters.
  obs::metrics().counter("sweep.runs").inc(report.points.size());
  obs::metrics().counter("sweep.failed").inc(report.failed());
  obs::metrics().counter("sweep.timed_out").inc(report.timed_out());
  obs::metrics().counter("sweep.restored").inc(report.restored());
  return report;
}

// ----------------------------------------------------------------- report

std::size_t SweepReport::failed() const {
  std::size_t n = 0;
  for (const SweepPointResult& p : points) {
    if (!p.ok) ++n;
  }
  return n;
}

std::size_t SweepReport::timed_out() const {
  std::size_t n = 0;
  for (const SweepPointResult& p : points) {
    if (!p.ok && p.error_kind == RunErrorKind::kTimedOut) ++n;
  }
  return n;
}

std::size_t SweepReport::restored() const {
  std::size_t n = 0;
  for (const SweepPointResult& p : points) {
    if (p.restored) ++n;
  }
  return n;
}

std::size_t SweepReport::skipped() const {
  std::size_t n = 0;
  for (const SweepPointResult& p : points) {
    if (p.skipped) ++n;
  }
  return n;
}

obs::PerfStats SweepReport::perf_total() const {
  obs::PerfStats total;
  for (const SweepPointResult& p : points) total.accumulate(p.perf);
  return total;
}

std::string SweepReport::summary() const {
  const obs::PerfStats perf = perf_total();
  const std::size_t n_failed = failed();
  const std::size_t n_timeout = timed_out();
  const std::size_t n_skipped = skipped();
  const std::size_t n_ok = points.size() - n_failed;
  std::ostringstream os;
  os << "sweep summary: " << scenario << "\n";
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "  runs       %zu ok, %zu failed (%zu timed out, %zu skipped)",
                n_ok, n_failed, n_timeout, n_skipped);
  os << buf;
  if (restored() > 0) os << ", " << restored() << " restored";
  os << "\n";
  std::snprintf(buf, sizeof buf, "  wall       %.2fs total, jobs=%d, %.2f points/sec\n",
                wall_s, jobs, wall_s > 0 ? double(points.size()) / wall_s : 0.0);
  os << buf;
  std::snprintf(buf, sizeof buf,
                "  sim        %.3g events (%.3g/sec aggregate), %.3g packets fwd, "
                "%.3g dropped\n",
                double(perf.events_dispatched),
                wall_s > 0 ? double(perf.events_dispatched) / wall_s : 0.0,
                double(perf.packets_forwarded), double(perf.packets_dropped));
  os << buf;
  std::snprintf(buf, sizeof buf,
                "  host       %.3g allocs (%.2f/event), cpu %.2fs, peak rss %.1f MB\n",
                double(perf.allocs), perf.allocs_per_event(), perf.cpu_s,
                double(perf.peak_rss) / (1024.0 * 1024.0));
  os << buf;
  const std::uint64_t pool_total = perf.pool_hits + perf.pool_misses;
  if (pool_total > 0) {
    std::snprintf(buf, sizeof buf,
                  "  pool       %.3g allocs (%.1f%% hit), %.3g outstanding\n",
                  double(pool_total),
                  100.0 * double(perf.pool_hits) / double(pool_total),
                  double(perf.pool_outstanding));
    os << buf;
  }
  // Fault-injection evidence: printed only when a campaign (or a downed
  // link / in-flight drop) actually touched the sweep, so chaos-free runs
  // keep their summary byte-identical.
  if (perf.chaos_total() > 0 || perf.down_drops > 0 || perf.flight_drops > 0 ||
      perf.flows_dead > 0) {
    std::snprintf(buf, sizeof buf,
                  "  chaos      %.3g faults (%.3g corrupt, %.3g reorder, %.3g dup, "
                  "%.3g blackhole)\n",
                  double(perf.chaos_faults), double(perf.chaos_corrupted),
                  double(perf.chaos_reordered), double(perf.chaos_duplicated),
                  double(perf.chaos_blackholed));
    os << buf;
    std::snprintf(buf, sizeof buf,
                  "  faults     %.3g down drops, %.3g in-flight drops, "
                  "%.3g dead flows\n",
                  double(perf.down_drops), double(perf.flight_drops),
                  double(perf.flows_dead));
    os << buf;
    if (perf.recovery_s >= 0 || perf.mtbf_s > 0) {
      std::snprintf(buf, sizeof buf,
                    "  healing    worst recovery %.3gs, mtbf %.3gs\n",
                    perf.recovery_s, perf.mtbf_s);
      os << buf;
    }
  }
  return os.str();
}

std::string SweepReport::failure_summary() const {
  const std::size_t n_failed = failed();
  if (n_failed == 0) return std::string();
  std::ostringstream os;
  os << "sweep failures (" << n_failed << "/" << points.size() << "):\n";
  for (const SweepPointResult& p : points) {
    if (p.ok) continue;
    os << "  run " << p.index << " ["
       << (p.skipped ? "skipped" : run_error_kind_name(p.error_kind)) << "] "
       << describe_point(p.params);
    if (p.fail_sim_time >= 0) os << " at sim t=" << to_seconds(p.fail_sim_time) << "s";
    if (!p.error.empty()) os << ": " << p.error;
    os << "\n";
  }
  return os.str();
}

namespace {

// Union of keys across all points, in deterministic (map) order.
template <typename Map>
std::vector<std::string> column_union(const std::vector<SweepPointResult>& points,
                                      Map SweepPointResult::* member) {
  std::map<std::string, bool> seen;
  for (const SweepPointResult& p : points) {
    for (const auto& [key, value] : p.*member) seen[key] = true;
  }
  std::vector<std::string> out;
  out.reserve(seen.size());
  for (const auto& [key, unused] : seen) out.push_back(key);
  return out;
}

}  // namespace

Table SweepReport::table() const {
  const std::vector<std::string> param_cols =
      column_union(points, &SweepPointResult::params);
  const std::vector<std::string> value_cols =
      column_union(points, &SweepPointResult::values);

  std::vector<std::string> header{"run"};
  header.insert(header.end(), param_cols.begin(), param_cols.end());
  header.insert(header.end(), value_cols.begin(), value_cols.end());
  header.push_back("ok");
  Table t(std::move(header));

  for (const SweepPointResult& p : points) {
    std::vector<Table::Cell> row;
    row.reserve(param_cols.size() + value_cols.size() + 2);
    row.emplace_back(std::int64_t(p.index));
    for (const std::string& col : param_cols) {
      const auto it = p.params.find(col);
      row.emplace_back(it == p.params.end() ? std::string() : it->second);
    }
    for (const std::string& col : value_cols) {
      const auto it = p.values.find(col);
      row.emplace_back(it == p.values.end() ? 0.0 : it->second);
    }
    row.emplace_back(std::int64_t(p.ok ? 1 : 0));
    t.add_row(std::move(row));
  }
  return t;
}

bool SweepReport::write_csv(const std::string& path) const {
  table().write_csv(path);
  return true;
}

bool SweepReport::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\n  \"scenario\": " << json::quote(scenario) << ",\n"
     << "  \"jobs\": " << jobs << ",\n"
     << "  \"wall_s\": " << json::number(wall_s) << ",\n"
     << "  \"env\": " << obs::bench_env_json() << ",\n"
     << "  \"perf_total\": " << perf_total().to_json() << ",\n"
     << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPointResult& p = points[i];
    os << "    {\"run\": " << p.index << ", \"ok\": " << (p.ok ? "true" : "false")
       << ", \"wall_ms\": " << json::number(p.wall_ms) << ",\n      \"params\": ";
    json::write_object(os, p.params);
    os << ",\n      \"values\": ";
    json::write_object(os, p.values);
    os << ",\n      \"perf\": " << p.perf.to_json();
    if (!p.ok) {
      os << ",\n      \"error\": " << json::quote(p.error) << ", \"error_kind\": \""
         << run_error_kind_name(p.error_kind) << '"';
      if (!p.error_domain.empty()) {
        os << ", \"error_domain\": " << json::quote(p.error_domain);
      }
      if (p.fail_sim_time >= 0) os << ", \"fail_sim_time_ns\": " << p.fail_sim_time;
    }
    if (p.restored) os << ",\n      \"restored\": true";
    os << "}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return bool(os);
}

}  // namespace mpcc::harness
