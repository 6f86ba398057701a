#include "scenario/golden.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.h"

namespace mpcc::scenario {

namespace {

using harness::MetricSpec;
using harness::ParamMap;

std::string describe_params(const ParamMap& params) {
  std::string out;
  for (const auto& [key, value] : params) {
    if (!out.empty()) out += ' ';
    out += key + '=' + value;
  }
  return out;
}

}  // namespace

GoldenFile make_golden(const harness::ScenarioSpec& spec, int jobs) {
  if (spec.metrics.empty()) {
    throw std::runtime_error("scenario \"" + spec.name +
                             "\" declares no golden metrics");
  }
  // Snapshot the plan before running: `spec` commonly points into the
  // ScenarioRegistry, whose contents a concurrent-looking add() (e.g. the
  // lazy builtin registration inside run_sweep) may replace.
  GoldenFile golden;
  golden.scenario = spec.name;
  golden.seeds = spec.golden_seeds;
  golden.seed_base = spec.golden_seed_base;
  golden.columns = spec.metrics;

  harness::SweepPlan plan;
  plan.scenario = golden.scenario;
  plan.seeds = golden.seeds;
  plan.seed_base = golden.seed_base;
  harness::SweepOptions options;
  options.jobs = jobs;
  options.progress = false;
  const harness::SweepReport report = harness::run_sweep(plan, options);
  if (report.failed() > 0) {
    throw std::runtime_error("golden run for \"" + golden.scenario +
                             "\" failed:\n" + report.failure_summary());
  }

  golden.rows.reserve(report.points.size());
  for (const harness::SweepPointResult& p : report.points) {
    GoldenRow row;
    row.params = p.params;
    for (const MetricSpec& m : golden.columns) {
      const auto it = p.values.find(m.column);
      if (it == p.values.end()) {
        throw std::runtime_error("scenario \"" + golden.scenario +
                                 "\" emitted no column \"" + m.column + "\"");
      }
      row.values[m.column] = it->second;
    }
    golden.rows.push_back(std::move(row));
  }
  return golden;
}

bool write_golden(const GoldenFile& golden, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\n  \"mpcc_golden\": 1,\n"
     << "  \"scenario\": " << json::quote(golden.scenario) << ",\n"
     << "  \"seeds\": " << golden.seeds << ",\n"
     << "  \"seed_base\": " << golden.seed_base << ",\n"
     << "  \"columns\": [";
  for (std::size_t i = 0; i < golden.columns.size(); ++i) {
    const MetricSpec& m = golden.columns[i];
    os << (i ? ", " : "") << "{\"name\": " << json::quote(m.column)
       << ", \"rel_tol\": " << json::number(m.rel_tol) << "}";
  }
  os << "],\n  \"rows\": [\n";
  for (std::size_t i = 0; i < golden.rows.size(); ++i) {
    const GoldenRow& row = golden.rows[i];
    os << "    {\"params\": ";
    json::write_object(os, row.params);
    os << ", \"values\": ";
    json::write_object(os, row.values);
    os << "}" << (i + 1 < golden.rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return bool(os);
}

GoldenFile load_golden(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::invalid_argument("cannot read golden file \"" + path + "\"");
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();

  GoldenFile golden;
  bool versioned = false;
  json::Cursor cur(text, "golden file \"" + path + "\"");
  cur.fields([&](const std::string& key) {
    if (key == "mpcc_golden") {
      versioned = static_cast<int>(cur.number()) == 1;
    } else if (key == "scenario") {
      golden.scenario = cur.string();
    } else if (key == "seeds") {
      golden.seeds = static_cast<int>(cur.number());
    } else if (key == "seed_base") {
      golden.seed_base = static_cast<std::uint64_t>(cur.number());
    } else if (key == "columns") {
      cur.items([&] {
        MetricSpec m;
        cur.fields([&](const std::string& ckey) {
          if (ckey == "name") {
            m.column = cur.string();
          } else if (ckey == "rel_tol") {
            m.rel_tol = cur.number();
          } else {
            cur.skip();
          }
        });
        golden.columns.push_back(std::move(m));
      });
    } else if (key == "rows") {
      cur.items([&] {
        GoldenRow row;
        cur.fields([&](const std::string& rkey) {
          if (rkey == "params") {
            row.params = cur.string_object();
          } else if (rkey == "values") {
            row.values = cur.number_object();
          } else {
            cur.skip();
          }
        });
        golden.rows.push_back(std::move(row));
      });
    } else {
      cur.skip();
    }
  });
  if (!versioned) {
    throw std::invalid_argument("\"" + path +
                                "\" is not an mpcc golden file (bad header)");
  }
  return golden;
}

std::vector<std::string> diff_golden(const GoldenFile& want,
                                     const GoldenFile& got) {
  std::vector<std::string> out;
  if (want.scenario != got.scenario) {
    out.push_back("scenario name mismatch: stored \"" + want.scenario +
                  "\" vs fresh \"" + got.scenario + "\"");
    return out;
  }
  if (want.seeds != got.seeds || want.seed_base != got.seed_base) {
    out.push_back("golden plan changed: stored seeds=" +
                  std::to_string(want.seeds) + " base=" +
                  std::to_string(want.seed_base) + " vs fresh seeds=" +
                  std::to_string(got.seeds) + " base=" +
                  std::to_string(got.seed_base) +
                  " (re-run --update-golden)");
    return out;
  }
  if (want.columns.size() != got.columns.size()) {
    out.push_back("column set changed: stored " +
                  std::to_string(want.columns.size()) + " columns vs fresh " +
                  std::to_string(got.columns.size()) +
                  " (re-run --update-golden)");
    return out;
  }
  for (std::size_t i = 0; i < want.columns.size(); ++i) {
    if (want.columns[i].column != got.columns[i].column ||
        want.columns[i].rel_tol != got.columns[i].rel_tol) {
      out.push_back("column " + std::to_string(i) + " changed: stored \"" +
                    want.columns[i].column + "\" tol " +
                    json::number(want.columns[i].rel_tol) + " vs fresh \"" +
                    got.columns[i].column + "\" tol " +
                    json::number(got.columns[i].rel_tol));
    }
  }
  if (!out.empty()) return out;
  if (want.rows.size() != got.rows.size()) {
    out.push_back("row count mismatch: stored " +
                  std::to_string(want.rows.size()) + " vs fresh " +
                  std::to_string(got.rows.size()));
    return out;
  }

  for (std::size_t i = 0; i < want.rows.size(); ++i) {
    const GoldenRow& w = want.rows[i];
    const GoldenRow& g = got.rows[i];
    if (w.params != g.params) {
      out.push_back("row " + std::to_string(i) + " params mismatch: stored {" +
                    describe_params(w.params) + "} vs fresh {" +
                    describe_params(g.params) + "}");
      continue;
    }
    for (const MetricSpec& m : want.columns) {
      const auto wit = w.values.find(m.column);
      const auto git = g.values.find(m.column);
      if (wit == w.values.end() || git == g.values.end()) {
        out.push_back("row " + std::to_string(i) + " column \"" + m.column +
                      "\" missing from " +
                      (wit == w.values.end() ? "stored" : "fresh") + " values");
        continue;
      }
      const double a = wit->second;
      const double b = git->second;
      bool ok;
      if (m.rel_tol == 0) {
        ok = a == b || (std::isnan(a) && std::isnan(b));
      } else {
        ok = std::abs(a - b) <=
             m.rel_tol * std::max({1.0, std::abs(a), std::abs(b)});
      }
      if (!ok) {
        out.push_back("row " + std::to_string(i) + " {" +
                      describe_params(w.params) + "} column \"" + m.column +
                      "\": stored " + json::number(a) + " vs fresh " +
                      json::number(b) +
                      (m.rel_tol == 0 ? " (exact)"
                                      : " (rel_tol " + json::number(m.rel_tol) +
                                            ")"));
      }
    }
  }
  return out;
}

std::string golden_path(const std::string& dir, const std::string& scenario) {
  return dir + "/" + scenario + ".json";
}

}  // namespace mpcc::scenario
