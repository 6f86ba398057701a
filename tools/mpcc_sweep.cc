// mpcc_sweep: declarative parameter sweeps over the paper's scenarios,
// executed in parallel with fully isolated per-run simulation contexts.
//
//   mpcc_sweep --list
//   mpcc_sweep --scenario=two_path --cc=lia,olia,dts --seeds=8 --jobs=8
//   mpcc_sweep --scenario=wireless --wifi_rate_mbps=5:30:5 --cc=lia,dts-ep \
//              --csv=wifi.csv --json=wifi.json
//   mpcc_sweep --scenario=datacenter --topo=fattree,vl2 --subflows=1:8:1 \
//              --jobs=8 --out=dc_runs --trace-categories=queue,cwnd
//
// Any flag whose name matches a scenario parameter becomes a sweep axis;
// its value is a comma list ("lia,olia") or a numeric range "lo:hi:step".
// Grid points are crossed with --seeds replicates (seed-base, seed-base+1,
// ...). Engine flags:
//
//   mpcc_sweep --scenario=run_handover --cc=lia,dts \
//              "--dyn=10s handover wifi cell" --jobs=4
//
//   --scenario=NAME        which scenario (see --list); the runner spelling
//                          run_<name> is accepted too
//   --list                 print scenarios + parameters and exit
//   --list-scenarios       alias for --list
//   --seeds=N              replicates per grid point            (default 1)
//   --seed-base=S          first seed                           (default 1)
//   --jobs=N               worker threads                       (default 1)
//   --out=DIR              per-run artifact directory
//   --trace-categories=... per-run Chrome traces (needs --out)
//   --trace-capacity=N     per-run tracer ring capacity
//   --run-metrics          per-run metric snapshots (needs --out)
//   --csv=FILE / --json=FILE   merged results
//   --quiet                suppress the per-run progress lines
//
// Robustness flags (docs/ROBUSTNESS.md): each run executes under a
// RunGuard, so one crashing/hanging run cannot take the sweep down.
//
//   --run-timeout=S        per-run wall-clock deadline, seconds
//   --event-budget=N       per-run cap on dispatched sim events
//   --fail-fast            stop scheduling new runs after the first failure
//   --checkpoint=FILE      append each completed run to a JSONL checkpoint
//   --resume               restore ok runs from --checkpoint, re-run the rest
//   --chaos-profile=NAME   shorthand for --chaos="profile NAME" (calm|flaky|
//                          hostile, docs/CHAOS.md); scenario must accept a
//                          chaos campaign
//
// Declarative scenarios (docs/SCENARIOS.md): .mpcc files register next to
// the built-ins and sweep identically.
//
//   mpcc_sweep --scenario-dir=scenarios --list
//   mpcc_sweep --scenario-dir=scenarios --scenario=fig17_wireless_energy \
//              --cc=lia,dts --jobs=4
//   mpcc_sweep --validate=scenarios            lint the corpus, exit 0/2
//   mpcc_sweep --scenario-dir=scenarios --update-golden   regenerate bank
//   mpcc_sweep --scenario-dir=scenarios --check-golden    diff against bank
//
//   --scenario-dir=DIR     load and register every DIR/*.mpcc
//   --validate=PATH        parse a .mpcc file or a directory of them and
//                          report per-file status; no runs
//   --update-golden        run each file scenario's golden plan and rewrite
//                          its golden JSON (all scenarios with metrics, or
//                          just --scenario=NAME)
//   --check-golden         same runs, but diff against the stored bank;
//                          mismatches exit 1
//   --golden-dir=DIR       golden bank location (default <scenario-dir>/golden)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include <filesystem>

#include "harness/experiment.h"
#include "harness/sweep.h"
#include "obs/trace.h"
#include "scenario/builder.h"
#include "scenario/golden.h"
#include "scenario/parser.h"

namespace {

using mpcc::harness::MetricSpec;
using mpcc::harness::ParamSpec;
using mpcc::harness::ScenarioRegistry;
using mpcc::harness::ScenarioSpec;
using mpcc::harness::SweepAxis;
using mpcc::harness::SweepOptions;
using mpcc::harness::SweepPlan;

// Engine flags; everything else of the form --name=value is a sweep axis.
const char* const kEngineFlags[] = {
    "--scenario", "--list",           "--list-scenarios", "--seeds",
    "--seed-base", "--jobs",          "--out",            "--trace-categories",
    "--trace-capacity", "--run-metrics", "--csv",         "--json",
    "--quiet",    "--help",           "--run-timeout",
    "--event-budget", "--fail-fast",  "--checkpoint",     "--resume",
    "--scenario-dir", "--validate",   "--update-golden",  "--check-golden",
    "--golden-dir", "--chaos-profile",
};

bool is_engine_flag(const std::string& name) {
  for (const char* flag : kEngineFlags) {
    if (name == flag) return true;
  }
  return false;
}

void print_scenarios() {
  mpcc::harness::register_builtin_scenarios();
  std::printf("scenarios:\n");
  for (const ScenarioSpec* spec : ScenarioRegistry::instance().all()) {
    std::printf("\n  %s — %s\n", spec->name.c_str(), spec->help.c_str());
    if (!spec->source.empty()) {
      std::printf("    [file: %s]\n", spec->source.c_str());
    }
    for (const ParamSpec& p : spec->params) {
      std::printf("    --%-18s %-10s %s\n", p.name.c_str(),
                  ("[" + p.default_value + "]").c_str(), p.help.c_str());
    }
    if (!spec->metrics.empty()) {
      std::printf("    golden: %d seed(s) from %llu;", spec->golden_seeds,
                  static_cast<unsigned long long>(spec->golden_seed_base));
      for (const MetricSpec& m : spec->metrics) {
        std::printf(" %s", m.column.c_str());
        if (m.rel_tol == 0) {
          std::printf("(exact)");
        } else {
          std::printf("(tol %g)", m.rel_tol);
        }
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\naxis values: comma list (lia,olia,dts) or numeric range lo:hi:step\n");
}

// --validate=PATH: parse one .mpcc file or every one in a directory and
// report per-file status. No simulation runs; exit 0 clean, 2 on any error.
int validate_scenarios(const std::string& path) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    for (const fs::directory_entry& entry : fs::directory_iterator(path)) {
      if (entry.is_regular_file() && entry.path().extension() == ".mpcc") {
        files.push_back(entry.path().string());
      }
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
      std::fprintf(stderr, "no .mpcc files in \"%s\"\n", path.c_str());
      return 2;
    }
  } else {
    files.push_back(path);
  }
  int bad = 0;
  for (const std::string& file : files) {
    try {
      const mpcc::scenario::ExperimentSpec spec =
          mpcc::scenario::load_experiment_file(file);
      std::printf("ok       %s  (%s, family %s, %zu metric%s)\n", file.c_str(),
                  spec.name.c_str(), spec.family.c_str(), spec.metrics.size(),
                  spec.metrics.size() == 1 ? "" : "s");
    } catch (const std::exception& e) {
      std::printf("INVALID  %s\n         %s\n", file.c_str(), e.what());
      ++bad;
    }
  }
  if (bad > 0) {
    std::fprintf(stderr, "%d of %zu scenario file(s) invalid\n", bad,
                 files.size());
  }
  return bad == 0 ? 0 : 2;
}

// Shared driver for --update-golden / --check-golden. Scenarios are the
// file-loaded ones with declared metrics (or just --scenario=NAME).
int golden_mode(bool update, const std::string& scenario_dir,
                const std::string& golden_dir, const std::string& only,
                int jobs) {
  using mpcc::scenario::GoldenFile;
  std::vector<const ScenarioSpec*> targets;
  for (const ScenarioSpec* spec : ScenarioRegistry::instance().all()) {
    if (spec->source.empty() || spec->metrics.empty()) continue;
    if (!only.empty() && spec->name != only) continue;
    targets.push_back(spec);
  }
  if (targets.empty()) {
    std::fprintf(stderr,
                 "no golden-tracked scenarios%s in --scenario-dir=%s "
                 "(declare `metric` lines)\n",
                 only.empty() ? "" : (" named \"" + only + "\"").c_str(),
                 scenario_dir.c_str());
    return 2;
  }
  if (update) {
    std::filesystem::create_directories(golden_dir);
  }
  int mismatched = 0;
  for (const ScenarioSpec* spec : targets) {
    const std::string path =
        mpcc::scenario::golden_path(golden_dir, spec->name);
    try {
      const GoldenFile fresh = mpcc::scenario::make_golden(*spec, jobs);
      if (update) {
        if (!mpcc::scenario::write_golden(fresh, path)) {
          std::fprintf(stderr, "cannot write %s\n", path.c_str());
          return 2;
        }
        std::printf("updated  %s  (%zu rows)\n", path.c_str(),
                    fresh.rows.size());
        continue;
      }
      const GoldenFile stored = mpcc::scenario::load_golden(path);
      const std::vector<std::string> diffs =
          mpcc::scenario::diff_golden(stored, fresh);
      if (diffs.empty()) {
        std::printf("ok       %s  (%zu rows)\n", spec->name.c_str(),
                    fresh.rows.size());
      } else {
        ++mismatched;
        std::printf("MISMATCH %s  (%zu diff%s)\n", spec->name.c_str(),
                    diffs.size(), diffs.size() == 1 ? "" : "s");
        for (const std::string& d : diffs) {
          std::printf("         %s\n", d.c_str());
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", spec->name.c_str(), e.what());
      return 2;
    }
  }
  if (mismatched > 0) {
    std::fprintf(stderr,
                 "%d scenario(s) diverged from the golden bank; if the change "
                 "is intended, re-run with --update-golden and commit\n",
                 mismatched);
    return 1;
  }
  return 0;
}

int usage(const char* argv0) {
  std::printf(
      "usage: %s --scenario=NAME [--param=v1,v2 ...] [--seeds=N] [--jobs=N]\n"
      "          [--csv=FILE] [--json=FILE] [--out=DIR]\n"
      "       %s --list\n",
      argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mpcc::harness;

  if (has_flag(argc, argv, "--help")) return usage(argv[0]);

  const std::string validate_path = arg_string(argc, argv, "--validate", "");
  if (!validate_path.empty()) return validate_scenarios(validate_path);

  // File scenarios register before anything resolves names, so --list,
  // --scenario=, and the golden modes all see them.
  register_builtin_scenarios();
  const std::string scenario_dir = arg_string(argc, argv, "--scenario-dir", "");
  if (!scenario_dir.empty()) {
    try {
      mpcc::scenario::register_scenario_dir(scenario_dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mpcc_sweep: %s\n", e.what());
      return 2;
    }
  }

  if (has_flag(argc, argv, "--list") || has_flag(argc, argv, "--list-scenarios")) {
    print_scenarios();
    return 0;
  }

  const bool update_golden = has_flag(argc, argv, "--update-golden");
  const bool check_golden = has_flag(argc, argv, "--check-golden");
  if (update_golden || check_golden) {
    if (update_golden && check_golden) {
      std::fprintf(stderr, "--update-golden and --check-golden are exclusive\n");
      return 2;
    }
    if (scenario_dir.empty()) {
      std::fprintf(stderr, "golden modes need --scenario-dir=DIR\n");
      return 2;
    }
    const std::string golden_dir =
        arg_string(argc, argv, "--golden-dir", scenario_dir + "/golden");
    return golden_mode(update_golden, scenario_dir, golden_dir,
                       arg_string(argc, argv, "--scenario", ""),
                       int(arg_int(argc, argv, "--jobs", 1)));
  }

  SweepPlan plan;
  plan.scenario = arg_string(argc, argv, "--scenario", "");
  if (plan.scenario.empty()) return usage(argv[0]);
  plan.seeds = int(arg_int(argc, argv, "--seeds", 1));
  plan.seed_base = std::uint64_t(arg_int(argc, argv, "--seed-base", 1));

  SweepOptions options;
  options.jobs = int(arg_int(argc, argv, "--jobs", 1));
  options.out_dir = arg_string(argc, argv, "--out", "");
  options.per_run_metrics = has_flag(argc, argv, "--run-metrics");
  options.progress = !has_flag(argc, argv, "--quiet");
  options.run_timeout_s = arg_double(argc, argv, "--run-timeout", 0.0);
  options.event_budget =
      std::uint64_t(arg_int(argc, argv, "--event-budget", 0));
  options.fail_fast = has_flag(argc, argv, "--fail-fast");
  options.checkpoint_path = arg_string(argc, argv, "--checkpoint", "");
  options.resume = has_flag(argc, argv, "--resume");
  if (options.resume && options.checkpoint_path.empty()) {
    std::fprintf(stderr, "--resume needs --checkpoint=FILE\n");
    return 2;
  }
  const std::string categories = arg_string(argc, argv, "--trace-categories", "");
  if (!categories.empty()) {
    options.trace_mask = mpcc::obs::parse_trace_categories(categories);
    options.trace_capacity =
        std::size_t(arg_int(argc, argv, "--trace-capacity", 0));
    if (options.out_dir.empty()) {
      std::fprintf(stderr, "--trace-categories needs --out=DIR\n");
      return 2;
    }
  }

  // Remaining --name=value flags become sweep axes.
  const ScenarioSpec* spec = ScenarioRegistry::instance().find(plan.scenario);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown scenario \"%s\"; valid scenarios: %s\n",
                 plan.scenario.c_str(),
                 ScenarioRegistry::instance().names().c_str());
    return 2;
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) continue;
    const char* eq = std::strchr(arg, '=');
    const std::string name = eq ? std::string(arg, eq - arg) : std::string(arg);
    if (is_engine_flag(name)) continue;
    if (!eq) {
      std::fprintf(stderr, "flag %s needs a value (%s=v1,v2 or lo:hi:step)\n",
                   arg, arg);
      return 2;
    }
    const std::string param = name.substr(2);
    if (!spec->has_param(param)) {
      std::fprintf(stderr, "scenario \"%s\" has no parameter \"%s\" (try --list)\n",
                   plan.scenario.c_str(), param.c_str());
      return 2;
    }
    try {
      plan.axes.push_back(SweepAxis{param, parse_axis_values(eq + 1)});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", arg, e.what());
      return 2;
    }
  }

  // --chaos-profile=NAME: shorthand for --chaos="profile NAME" on any
  // scenario that accepts a chaos campaign parameter.
  const std::string chaos_profile =
      arg_string(argc, argv, "--chaos-profile", "");
  if (!chaos_profile.empty()) {
    if (!spec->has_param("chaos")) {
      std::fprintf(stderr,
                   "scenario \"%s\" takes no chaos campaign (no \"chaos\" "
                   "parameter)\n",
                   plan.scenario.c_str());
      return 2;
    }
    plan.axes.push_back(
        SweepAxis{"chaos", {"profile " + chaos_profile}});
  }

  try {
    const SweepReport report = run_sweep(plan, options);
    report.table().print(std::cout);
    std::fputs(report.summary().c_str(), stderr);
    std::string extras;
    if (report.restored() > 0) {
      extras += "  [" + std::to_string(report.restored()) + " restored]";
    }
    if (report.failed() > 0) extras += "  [FAILURES]";
    std::printf("\n%zu points, jobs=%d, %.2fs (%.1f points/sec)%s\n",
                report.points.size(), report.jobs, report.wall_s,
                report.wall_s > 0 ? double(report.points.size()) / report.wall_s
                                  : 0.0,
                extras.c_str());
    const std::string summary = report.failure_summary();
    if (!summary.empty()) std::fputs(summary.c_str(), stderr);

    const std::string csv = arg_string(argc, argv, "--csv", "");
    if (!csv.empty() && !report.write_csv(csv)) {
      std::fprintf(stderr, "cannot write %s\n", csv.c_str());
      return 1;
    }
    const std::string json = arg_string(argc, argv, "--json", "");
    if (!json.empty() && !report.write_json(json)) {
      std::fprintf(stderr, "cannot write %s\n", json.c_str());
      return 1;
    }
    return report.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpcc_sweep: %s\n", e.what());
    return 2;
  }
}
