#include "harness/checkpoint.h"

#include <sstream>
#include <stdexcept>

#include "util/json.h"

namespace mpcc::harness {

namespace {

// Parses one run line into an entry. Returns false (without throwing) when
// the line is torn — i.e. parsing ran off the end — so a checkpoint whose
// writer was killed mid-line loses only that line.
bool parse_entry_line(const std::string& line, std::size_t line_no,
                      CheckpointEntry& entry) {
  try {
    json::Cursor cur(line, "checkpoint line " + std::to_string(line_no));
    cur.fields([&](const std::string& key) {
      if (key == "index") {
        entry.index = static_cast<std::size_t>(cur.number());
      } else if (key == "ok") {
        entry.ok = cur.boolean();
      } else if (key == "kind") {
        entry.kind = run_error_kind_from_name(cur.string());
      } else if (key == "wall_ms") {
        entry.wall_ms = cur.number();
      } else if (key == "sim_time_ns") {
        entry.sim_time = static_cast<SimTime>(cur.number());
      } else if (key == "error") {
        entry.error = cur.string();
      } else if (key == "domain") {
        entry.domain = cur.string();
      } else if (key == "params") {
        entry.params = cur.string_object();
      } else if (key == "values") {
        entry.values = cur.number_object();
      } else if (key == "perf") {
        entry.perf = obs::PerfStats::from_json(cur);
      } else {
        cur.skip();
      }
    });
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

}  // namespace

CheckpointWriter::CheckpointWriter(const std::string& path, const std::string& scenario,
                                   std::size_t total_points, bool append_mode) {
  os_.open(path, append_mode ? std::ios::app : std::ios::trunc);
  if (!os_) {
    throw std::runtime_error("cannot open checkpoint file \"" + path + "\"");
  }
  if (!append_mode) {
    os_ << "{\"mpcc_sweep_checkpoint\":1,\"scenario\":" << json::quote(scenario)
        << ",\"points\":" << total_points << "}\n";
    os_.flush();
  }
}

void CheckpointWriter::append(const CheckpointEntry& entry) {
  std::ostringstream line;
  line << "{\"index\": " << entry.index << ", \"ok\": " << (entry.ok ? "true" : "false")
       << ", \"kind\": " << json::quote(run_error_kind_name(entry.kind))
       << ", \"wall_ms\": " << json::number(entry.wall_ms)
       << ", \"sim_time_ns\": " << entry.sim_time
       << ", \"error\": " << json::quote(entry.error)
       << ", \"domain\": " << json::quote(entry.domain) << ", \"params\": ";
  json::write_object(line, entry.params);
  line << ", \"values\": ";
  json::write_object(line, entry.values);
  line << ", \"perf\": " << entry.perf.to_json() << "}\n";

  std::lock_guard<std::mutex> lock(mutex_);
  os_ << line.str();
  os_.flush();  // at most one line lost on a kill
}

CheckpointData load_checkpoint(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::invalid_argument("cannot read checkpoint file \"" + path + "\"");
  }
  std::string line;
  if (!std::getline(is, line)) {
    throw std::invalid_argument("checkpoint file \"" + path + "\" is empty");
  }

  CheckpointData data;
  bool versioned = false;
  json::Cursor cur(line, "checkpoint \"" + path + "\" header");
  cur.fields([&](const std::string& key) {
    if (key == "mpcc_sweep_checkpoint") {
      versioned = static_cast<int>(cur.number()) == 1;
    } else if (key == "scenario") {
      data.scenario = cur.string();
    } else if (key == "points") {
      data.total_points = static_cast<std::size_t>(cur.number());
    } else {
      cur.skip();
    }
  });
  if (!versioned) {
    throw std::invalid_argument("\"" + path +
                                "\" is not an mpcc sweep checkpoint (bad header)");
  }

  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    CheckpointEntry entry;
    if (parse_entry_line(line, line_no, entry)) {
      data.entries[entry.index] = std::move(entry);  // last occurrence wins
    }
    // Torn line: ignore. Only the final line can be torn (writes are
    // line-buffered + flushed), so nothing after it is lost.
  }
  return data;
}

}  // namespace mpcc::harness
