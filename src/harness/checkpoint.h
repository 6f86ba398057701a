// Sweep checkpoint file: append-only JSONL, one completed run per line.
//
// Layout (docs/ROBUSTNESS.md has the full spec):
//   line 1:  {"mpcc_sweep_checkpoint":1,"scenario":"two_path","points":12}
//   line 2+: {"index": 3, "ok": true, "kind": "none", "wall_ms": 12.5,
//             "sim_time_ns": -1, "error": "", "domain": "",
//             "params": {"cc": "lia", "seed": "1"}, "values": {"energy_j": 1.5},
//             "perf": {"events_dispatched": 52114, ...}}
//
// Append-only + one flush per line means a killed sweep loses at most the
// line being written; the loader ignores a torn trailing line. Lines go
// through util/json.h, so doubles are rendered with %.17g and a restored
// value is bit-identical to the computed one; "perf" is
// obs::PerfStats::to_json(), read back by field name. Duplicate indices can
// appear after a resume re-runs a failed point; the last occurrence wins.
#pragma once

#include <cstddef>
#include <fstream>
#include <map>
#include <mutex>
#include <string>

#include "harness/guard.h"
#include "harness/sweep.h"

namespace mpcc::harness {

/// One checkpointed run, exactly the persistent subset of SweepPointResult.
struct CheckpointEntry {
  std::size_t index = 0;
  bool ok = false;
  RunErrorKind kind = RunErrorKind::kNone;
  double wall_ms = 0;
  SimTime sim_time = -1;
  std::string error;
  std::string domain;
  ParamMap params;
  ResultRow values;
  /// Perf ledger of the run (obs/perf.h). Counter values stay exact through
  /// the %.17g round-trip (every uint64 a sim run can reach is < 2^53).
  obs::PerfStats perf;
};

/// Thread-safe append-only writer. Workers call append() concurrently; each
/// entry is one line, flushed immediately.
class CheckpointWriter {
 public:
  /// `append_mode` = false truncates and writes a fresh header;
  /// true appends to an existing file (resume). Throws std::runtime_error
  /// if the file cannot be opened.
  CheckpointWriter(const std::string& path, const std::string& scenario,
                   std::size_t total_points, bool append_mode);

  void append(const CheckpointEntry& entry);

 private:
  std::mutex mutex_;
  std::ofstream os_;
};

/// Everything a resume needs from a checkpoint file.
struct CheckpointData {
  std::string scenario;
  std::size_t total_points = 0;
  /// Last occurrence per index wins (a resumed sweep appends re-runs).
  std::map<std::size_t, CheckpointEntry> entries;
};

/// Parses a checkpoint file. Throws std::invalid_argument on a missing
/// file or malformed header; a torn (incomplete) trailing line is ignored.
CheckpointData load_checkpoint(const std::string& path);

}  // namespace mpcc::harness
