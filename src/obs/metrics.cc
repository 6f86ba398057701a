#include "obs/metrics.h"

#include <fstream>

#include "util/json.h"
#include "util/logging.h"

namespace mpcc::obs {

// ---------------------------------------------------------------- registry

MetricsRegistry::Entry* MetricsRegistry::find(std::string_view name,
                                              Entry::Type want) {
  auto it = entries_.find(name);
  if (it == entries_.end()) return nullptr;
  if (it->second.type != want) {
    MPCC_WARN << "metric '" << std::string(name)
              << "' re-registered as a different type; returning a scratch "
                 "metric (not exported)";
    return nullptr;
  }
  return &it->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  if (Entry* e = find(name, Entry::Type::kCounter)) return *e->counter;
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    static thread_local Counter scratch;
    return scratch;
  }
  Entry entry;
  entry.type = Entry::Type::kCounter;
  entry.counter = std::make_unique<Counter>();
  Counter& ref = *entry.counter;
  entries_.emplace(std::string(name), std::move(entry));
  return ref;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  if (Entry* e = find(name, Entry::Type::kGauge)) return *e->gauge;
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    static thread_local Gauge scratch;
    return scratch;
  }
  Entry entry;
  entry.type = Entry::Type::kGauge;
  entry.gauge = std::make_unique<Gauge>();
  Gauge& ref = *entry.gauge;
  entries_.emplace(std::string(name), std::move(entry));
  return ref;
}

HdrHistogram& MetricsRegistry::histogram(std::string_view name) {
  if (Entry* e = find(name, Entry::Type::kHistogram)) return *e->histogram;
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    static thread_local HdrHistogram scratch;
    return scratch;
  }
  Entry entry;
  entry.type = Entry::Type::kHistogram;
  entry.histogram = std::make_unique<HdrHistogram>();
  HdrHistogram& ref = *entry.histogram;
  entries_.emplace(std::string(name), std::move(entry));
  return ref;
}

void MetricsRegistry::reset() {
  for (auto& [name, entry] : entries_) {
    switch (entry.type) {
      case Entry::Type::kCounter:
        entry.counter->reset();
        break;
      case Entry::Type::kGauge:
        entry.gauge->reset();
        break;
      case Entry::Type::kHistogram:
        entry.histogram->reset();
        break;
    }
  }
}

Table MetricsRegistry::snapshot() const {
  Table table({"name", "type", "count", "sum", "mean", "min", "max", "p50",
               "p90", "p99"});
  for (const auto& [name, entry] : entries_) {
    switch (entry.type) {
      case Entry::Type::kCounter: {
        const auto v = static_cast<std::int64_t>(entry.counter->value());
        table.add_row({name, std::string("counter"), v, static_cast<double>(v),
                       0.0, 0.0, 0.0, 0.0, 0.0, 0.0});
        break;
      }
      case Entry::Type::kGauge:
        table.add_row({name, std::string("gauge"),
                       std::int64_t{entry.gauge->has_value() ? 1 : 0}, 0.0,
                       entry.gauge->value(), 0.0, 0.0, 0.0, 0.0, 0.0});
        break;
      case Entry::Type::kHistogram: {
        const HdrHistogram& h = *entry.histogram;
        table.add_row({name, std::string("histogram"),
                       static_cast<std::int64_t>(h.count()), double(h.sum()),
                       h.mean(), double(h.min()), double(h.max()),
                       h.percentile(0.50), h.percentile(0.90),
                       h.percentile(0.99)});
        break;
      }
    }
  }
  return table;
}

void MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream os(path);
  os << "{\"metrics\":[";
  bool first = true;
  for (const auto& [name, entry] : entries_) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\":" << json::quote(name) << ",";
    switch (entry.type) {
      case Entry::Type::kCounter:
        os << "\"type\":\"counter\",\"value\":" << entry.counter->value() << "}";
        break;
      case Entry::Type::kGauge:
        os << "\"type\":\"gauge\",\"value\":" << entry.gauge->value() << "}";
        break;
      case Entry::Type::kHistogram: {
        const HdrHistogram& h = *entry.histogram;
        os << "\"type\":\"histogram\",\"count\":" << h.count()
           << ",\"sum\":" << h.sum() << ",\"min\":" << h.min()
           << ",\"max\":" << h.max() << ",\"p50\":" << h.percentile(0.50)
           << ",\"p90\":" << h.percentile(0.90)
           << ",\"p99\":" << h.percentile(0.99) << ",\"buckets\":[";
        bool bfirst = true;
        for (std::size_t i = 0; i < h.buckets().size(); ++i) {
          if (h.buckets()[i] == 0) continue;  // sparse: skip empty buckets
          if (!bfirst) os << ",";
          bfirst = false;
          os << "{\"ge\":" << HdrHistogram::bucket_lower(i)
             << ",\"n\":" << h.buckets()[i] << "}";
        }
        os << "]}";
        break;
      }
    }
  }
  os << "\n]}\n";
}

namespace {
thread_local MetricsRegistry* t_metrics_override = nullptr;
}  // namespace

MetricsRegistry& metrics() {
  if (t_metrics_override != nullptr) return *t_metrics_override;
  static thread_local MetricsRegistry registry;
  return registry;
}

MetricsRegistry* detail::exchange_thread_metrics(MetricsRegistry* m) {
  MetricsRegistry* prev = t_metrics_override;
  t_metrics_override = m;
  return prev;
}

}  // namespace mpcc::obs
