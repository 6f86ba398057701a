// Metrics registry: named counters, gauges, and histograms (the perf
// ledger's integer-valued obs::HdrHistogram, obs/perf.h).
//
// Any component may register a metric by name; the registry owns storage
// with stable addresses, so call sites resolve the name once (at
// construction) and then touch a plain field on the hot path. Snapshots
// render per run through util/csv.h (CSV / aligned table) or as JSON.
//
// Naming convention: `layer.metric[_unit]`, lower_snake_case — e.g.
// `net.queue.drops`, `tcp.rtt_us`, `sim.event_wall_ns`. Units are encoded
// in the name suffix so exported files are self-describing.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "obs/perf.h"
#include "util/csv.h"
#include "util/units.h"

namespace mpcc::obs {

class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) {
    value_ = v;
    has_value_ = true;
  }
  double value() const { return value_; }
  bool has_value() const { return has_value_; }
  void reset() {
    value_ = 0;
    has_value_ = false;
  }

 private:
  double value_ = 0;
  bool has_value_ = false;
};

class MetricsRegistry {
 public:
  /// Looks up or creates. A name registered as one type stays that type;
  /// re-registering under a different type warns and returns a scratch
  /// metric not included in snapshots.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  HdrHistogram& histogram(std::string_view name);

  /// Zeroes every metric (names and types are kept). Call between runs.
  void reset();

  std::size_t size() const { return entries_.size(); }

  /// One row per metric: name, type, count, sum, mean, min, max, p50/p90/p99
  /// (histograms only; counters fill count/sum, gauges fill mean).
  Table snapshot() const;

  void write_csv(const std::string& path) const { snapshot().write_csv(path); }
  void write_json(const std::string& path) const;

 private:
  struct Entry {
    enum class Type { kCounter, kGauge, kHistogram } type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HdrHistogram> histogram;
  };

  Entry* find(std::string_view name, Entry::Type want);

  // std::map keeps snapshot order deterministic (sorted by name).
  std::map<std::string, Entry, std::less<>> entries_;
};

/// The calling thread's current registry: the one owned by the active
/// SimContext scope (sim/context.h) if entered on this thread, else a
/// per-thread default instance (legacy single-threaded behaviour).
MetricsRegistry& metrics();

namespace detail {
/// Installs `m` as this thread's registry override (nullptr restores the
/// per-thread default) and returns the previous override. SimContext::Scope
/// uses this; normal code should not.
MetricsRegistry* exchange_thread_metrics(MetricsRegistry* m);
}  // namespace detail

}  // namespace mpcc::obs
