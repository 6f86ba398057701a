#include "obs/export.h"

#include <fstream>
#include <ostream>
#include <vector>

#include "util/json.h"

namespace mpcc::obs {

namespace {

double to_trace_us(SimTime t) { return static_cast<double>(t) / kMicrosecond; }

/// Counter-style records export as "<src>/<name>" counter tracks; the rest
/// are instant events on the source's thread track.
bool is_counter_event(TraceEvent e) {
  switch (e) {
    case TraceEvent::kEnqueue:
    case TraceEvent::kCwnd:
    case TraceEvent::kRttSample:
    case TraceEvent::kEpsilon:
    case TraceEvent::kEnergyPrice:
    case TraceEvent::kMeterSample:
      return true;
    default:
      return false;
  }
}

/// Counter series name + arg labels per event type (see TraceEvent docs).
struct CounterSpec {
  const char* series;
  const char* arg0;
  const char* arg1;  // nullptr = single-value counter
};

CounterSpec counter_spec(TraceEvent e) {
  switch (e) {
    case TraceEvent::kEnqueue:
      return {"queue_bytes", "bytes", nullptr};
    case TraceEvent::kCwnd:
      return {"cwnd", "cwnd_bytes", "ssthresh_bytes"};
    case TraceEvent::kRttSample:
      return {"rtt_us", "rtt_us", "srtt_us"};
    case TraceEvent::kEpsilon:
      return {"eps", "eps_r", "psi_r"};
    case TraceEvent::kEnergyPrice:
      return {"price", "price", "divisor"};
    case TraceEvent::kMeterSample:
      return {"power_w", "watts", nullptr};
    default:
      return {"value", "v0", nullptr};
  }
}

}  // namespace

void write_chrome_trace(const Tracer& tracer, std::ostream& os) {
  const std::vector<TraceRecord> records = tracer.snapshot();
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"mpcc simulation\"}}";

  // One thread track per interned source that has instant events.
  std::vector<bool> needs_track(tracer.num_sources(), false);
  for (const TraceRecord& r : records) {
    if (!is_counter_event(r.event)) needs_track[r.source] = true;
  }
  for (SourceId id = 0; id < tracer.num_sources(); ++id) {
    if (!needs_track[id]) continue;
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
       << (id + 1) << ",\"args\":{\"name\":\""
       << json::escape(tracer.source_name(id)) << "\"}}";
  }

  for (const TraceRecord& r : records) {
    const std::string src = json::escape(tracer.source_name(r.source));
    os << ",\n{";
    if (r.event == TraceEvent::kPhaseBegin || r.event == TraceEvent::kPhaseEnd) {
      // PhaseTimer scopes render as duration slices: a matched B/E pair on
      // the phase's own track, named after the interned "phase/<name>".
      os << "\"name\":\"" << src << "\",\"ph\":\""
         << (r.event == TraceEvent::kPhaseBegin ? 'B' : 'E')
         << "\",\"pid\":1,\"tid\":" << (r.source + 1)
         << ",\"ts\":" << to_trace_us(r.time) << ",\"cat\":\""
         << trace_category_name(r.category) << "\"}";
    } else if (is_counter_event(r.event)) {
      const CounterSpec spec = counter_spec(r.event);
      os << "\"name\":\"" << src << "/" << spec.series
         << "\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":" << to_trace_us(r.time)
         << ",\"args\":{\"" << spec.arg0 << "\":" << r.v0;
      if (spec.arg1 != nullptr) os << ",\"" << spec.arg1 << "\":" << r.v1;
      os << "}}";
    } else {
      os << "\"name\":\"" << trace_event_name(r.event)
         << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" << (r.source + 1)
         << ",\"ts\":" << to_trace_us(r.time) << ",\"cat\":\""
         << trace_category_name(r.category) << "\",\"args\":{\"v0\":" << r.v0
         << ",\"v1\":" << r.v1 << ",\"i0\":" << r.i0 << ",\"i1\":" << r.i1
         << "}}";
    }
  }
  os << "\n]}\n";
}

bool write_chrome_trace(const Tracer& tracer, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(tracer, os);
  return os.good();
}

}  // namespace mpcc::obs
