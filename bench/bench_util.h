// Shared bits for the figure benches: banner printing, option parsing, and
// thin wrappers over the sweep engine so every bench gets --jobs=N
// parallelism with per-run isolation for free.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/scenarios.h"
#include "harness/sweep.h"
#include "stats/summary.h"
#include "util/csv.h"

namespace mpcc::bench {

/// Prints the standard bench banner: which figure, what the paper reports,
/// and what this harness regenerates.
inline void banner(const std::string& figure, const std::string& claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("Paper: %s\n", claim.c_str());
  std::printf("(absolute values are model-calibrated; shapes are the target)\n");
  std::printf("==============================================================\n\n");
}

inline void note(const std::string& text) { std::printf("note: %s\n", text.c_str()); }

/// The shared --jobs=N flag (worker threads for sweeps; default 1).
inline int jobs_flag(int argc, char** argv) {
  return static_cast<int>(harness::arg_int(argc, argv, "--jobs", 1));
}

/// Runs the plan through the sweep engine with --jobs workers. Results come
/// back in plan order regardless of the job count, so bench tables are
/// reproducible under parallelism.
inline harness::SweepReport sweep(const harness::SweepPlan& plan, int argc,
                                  char** argv) {
  harness::SweepOptions options;
  options.jobs = jobs_flag(argc, argv);
  return harness::run_sweep(plan, options);
}

/// Points of `report` whose params map `key` to `value` (e.g. all seeds of
/// cc=lia), in plan order.
inline std::vector<const harness::SweepPointResult*> select(
    const harness::SweepReport& report, const std::string& key,
    const std::string& value) {
  std::vector<const harness::SweepPointResult*> out;
  for (const harness::SweepPointResult& p : report.points) {
    const auto it = p.params.find(key);
    if (it != p.params.end() && it->second == value) out.push_back(&p);
  }
  return out;
}

/// Summary (mean/stddev/...) of result column `col` over the selected
/// points. Failed points are skipped.
inline Summary column_summary(
    const std::vector<const harness::SweepPointResult*>& points,
    const std::string& col) {
  Summary s;
  for (const harness::SweepPointResult* p : points) {
    if (!p->ok) continue;
    const auto it = p->values.find(col);
    if (it != p->values.end()) s.add(it->second);
  }
  return s;
}

inline double column_mean(
    const std::vector<const harness::SweepPointResult*>& points,
    const std::string& col) {
  return column_summary(points, col).mean();
}

}  // namespace mpcc::bench
