#include "obs/perf.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>

#ifndef _WIN32
#include <sys/resource.h>
#include <time.h>
#endif

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/invariants.h"
#include "util/json.h"

// ------------------------------------------------------------ alloc hook
//
// Thread-local allocation tally fed by the global operator new replacement
// below. File-scope (not in a namespace) because the operators live at
// global scope; trivially constructed/destructed, so touching them is safe
// at any point in a thread's lifetime.
namespace {
thread_local std::uint64_t t_alloc_count = 0;
thread_local std::uint64_t t_alloc_bytes = 0;

inline void count_alloc(std::size_t size) {
  // Plain-global-bool gate: zero-initialised false before static init, so
  // allocations made while constructing static objects are simply skipped.
  if (mpcc::obs::detail::g_perf_enabled) [[likely]] {
    ++t_alloc_count;
    t_alloc_bytes += size;
  }
}

void* checked_malloc(std::size_t size) {
  // operator new contract: retry through the new-handler until the
  // allocation succeeds or no handler is installed.
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* checked_aligned_alloc(std::size_t size, std::size_t alignment) {
  if (size == 0) size = 1;
  for (;;) {
    void* p = nullptr;
#ifdef _WIN32
    p = _aligned_malloc(size, alignment);
#else
    if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                       size) != 0) {
      p = nullptr;
    }
#endif
    if (p != nullptr) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

inline void aligned_free(void* p) {
#ifdef _WIN32
  _aligned_free(p);
#else
  std::free(p);
#endif
}
}  // namespace

// Global operator new/delete replacement: the standard set of variants, all
// funneled through the counting tally above. Replacing these process-wide
// is what makes PerfStats.allocs meaningful — the simulator's own heap
// traffic (packet pools, event queue growth, std::string churn) is counted
// without touching any call site. Sanitizers still intercept the underlying
// malloc/free, so ASan/LSan coverage is unaffected.
void* operator new(std::size_t size) {
  count_alloc(size);
  return checked_malloc(size);
}
void* operator new[](std::size_t size) {
  count_alloc(size);
  return checked_malloc(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_alloc(size);
  if (size == 0) size = 1;
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  count_alloc(size);
  if (size == 0) size = 1;
  return std::malloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  count_alloc(size);
  return checked_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  count_alloc(size);
  return checked_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  count_alloc(size);
  try {
    return checked_aligned_alloc(size, static_cast<std::size_t>(align));
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  count_alloc(size);
  try {
    return checked_aligned_alloc(size, static_cast<std::size_t>(align));
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { aligned_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { aligned_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  aligned_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  aligned_free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  aligned_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  aligned_free(p);
}

namespace mpcc::obs {

// ------------------------------------------------ kill switch + TLS access

namespace detail {

namespace {
bool read_perf_env() {
  const char* v = std::getenv("MPCC_NO_PERF");
  return !(v != nullptr && v[0] == '1' && v[1] == '\0');
}
}  // namespace

// Dynamic-initialised from the environment; zero-initialised (= disabled)
// before that, so the alloc hook stays inert during static init.
bool g_perf_enabled = read_perf_env();

PerfCounters& thread_default_perf_counters() {
  static thread_local PerfCounters instance;
  return instance;
}

PerfCounters* exchange_thread_perf(PerfCounters* p) {
  PerfCounters* prev = t_perf_override;
  t_perf_override = p;
  return prev;
}

}  // namespace detail

void set_perf_enabled(bool enabled) { detail::g_perf_enabled = enabled; }

std::uint64_t thread_alloc_count() { return t_alloc_count; }
std::uint64_t thread_alloc_bytes() { return t_alloc_bytes; }

// -------------------------------------------------- host-cost primitives

double thread_cpu_seconds() {
#ifdef _WIN32
  return 0.0;
#else
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
#endif
}

std::uint64_t peak_rss_bytes() {
#ifdef _WIN32
  return 0;
#else
  // VmHWM is this process image's high-water mark. ru_maxrss is not: Linux
  // carries it across execve, so a binary launched from a large process
  // would report its parent's peak. stdio, not iostreams: operator new
  // would count toward the run's allocs.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[128];
    unsigned long long kb = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, f) != nullptr) {
      found = std::sscanf(line, "VmHWM: %llu kB", &kb) == 1;
    }
    std::fclose(f);
    if (found) return std::uint64_t(kb) * 1024;
  }
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  // ru_maxrss is kilobytes on Linux (bytes on macOS, where RUSAGE ru_maxrss
  // is documented in bytes — accept the 1024x there, this is a diagnostic).
  return std::uint64_t(ru.ru_maxrss) * 1024;
#endif
}

// ------------------------------------------------------------ HdrHistogram

double HdrHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return double(min());
  if (p >= 1.0) return double(max());
  const double target = p * double(count_);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    cum += counts_[i];
    if (double(cum) >= target) {
      const std::uint64_t lo = bucket_lower(i);
      const std::uint64_t hi = bucket_upper(i);
      double v = double(lo) + double(hi - lo) / 2.0;
      if (v < double(min())) v = double(min());
      if (v > double(max())) v = double(max());
      return v;
    }
  }
  return double(max());  // unreachable: cum == count_ by the last bucket
}

void HdrHistogram::merge(const HdrHistogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kNumBuckets; ++i) counts_[i] += other.counts_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void HdrHistogram::reset() {
  counts_.fill(0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

// ------------------------------------------------------------ PerfCounters

namespace {
void flush_hdr(MetricsRegistry& registry, const char* prefix,
               const HdrHistogram& h) {
  if (h.count() == 0) return;
  const std::string base(prefix);
  registry.gauge(base + ".count").set(double(h.count()));
  registry.gauge(base + ".mean").set(h.mean());
  registry.gauge(base + ".p50").set(h.percentile(0.50));
  registry.gauge(base + ".p90").set(h.percentile(0.90));
  registry.gauge(base + ".p99").set(h.percentile(0.99));
  registry.gauge(base + ".p999").set(h.percentile(0.999));
  registry.gauge(base + ".max").set(double(h.max()));
}
}  // namespace

void PerfCounters::flush_to_metrics(MetricsRegistry& registry) const {
#define MPCC_TOUCHED(name, type, init, merge) || name != init
  const bool any = dispatch_ns.count() != 0 || queue_depth_pkts.count() != 0 ||
                   rtt_us.count() != 0 || fct_us.count() != 0
      MPCC_PERF_FIELDS(MPCC_TOUCHED, MPCC_TOUCHED, MPCC_PERF_SKIP, MPCC_PERF_SKIP);
#undef MPCC_TOUCHED
  if (!any) return;
#define MPCC_COUNTER(name, type, init, merge) \
  registry.counter("perf." #name).inc(name);
#define MPCC_GAUGE(name, type, init, merge) \
  if (name != init) registry.gauge("perf." #name).set(name);
  MPCC_PERF_FIELDS(MPCC_COUNTER, MPCC_GAUGE, MPCC_PERF_SKIP, MPCC_PERF_SKIP)
#undef MPCC_COUNTER
#undef MPCC_GAUGE
  flush_hdr(registry, "perf.dispatch_ns", dispatch_ns);
  flush_hdr(registry, "perf.queue_depth_pkts", queue_depth_pkts);
  flush_hdr(registry, "perf.rtt_us", rtt_us);
  flush_hdr(registry, "perf.fct_us", fct_us);
}

// -------------------------------------------------------------- PerfStats

namespace {
template <typename T>
void merge_sum(T& into, T v) {
  into += v;
}
template <typename T>
void merge_max(T& into, T v) {
  if (v > into) into = v;
}
/// The smallest non-zero value; zero means "none" and never wins.
template <typename T>
void merge_min_nonzero(T& into, T v) {
  if (v > 0 && (into == 0 || v < into)) into = v;
}
}  // namespace

void PerfStats::accumulate(const PerfStats& other) {
#define MPCC_MERGE(name, type, init, merge) merge_##merge(name, other.name);
  MPCC_PERF_EACH(MPCC_MERGE)
#undef MPCC_MERGE
}

std::string PerfStats::to_json() const {
  std::string out = "{";
#define MPCC_WRITE(name, type, init, merge) \
  out += "\"" #name "\": " + json::number(name) + ", ";
  MPCC_PERF_EACH(MPCC_WRITE)
#undef MPCC_WRITE
  out += "\"events_per_sec\": " + json::number(events_per_sec()) +
         ", \"packets_per_sec\": " + json::number(packets_per_sec()) +
         ", \"allocs_per_event\": " + json::number(allocs_per_event()) + "}";
  return out;
}

PerfStats PerfStats::from_json(json::Cursor& cur) {
  PerfStats s;
  cur.fields([&](const std::string& key) {
#define MPCC_READ(name, type, init, merge)      \
  if (key == #name) {                           \
    s.name = static_cast<type>(cur.number());   \
    return;                                     \
  }
    MPCC_PERF_EACH(MPCC_READ)
#undef MPCC_READ
    cur.skip();
  });
  return s;
}

PerfStatsCollector::PerfStatsCollector(const PerfCounters& counters)
    : counters_(&counters) {
#define MPCC_BASE(name, type, init, merge) base_.name = counters.name;
  MPCC_PERF_FIELDS(MPCC_BASE, MPCC_PERF_SKIP, MPCC_PERF_SKIP, MPCC_PERF_SKIP)
#undef MPCC_BASE
  base_.allocs = thread_alloc_count();
  base_.alloc_bytes = thread_alloc_bytes();
  base_.cpu_s = thread_cpu_seconds();
  base_wall_ = std::chrono::steady_clock::now();
}

PerfStats PerfStatsCollector::finish() const {
  PerfStats s;
#define MPCC_DELTA(name, type, init, merge) s.name = counters_->name - base_.name;
#define MPCC_SET(name, type, init, merge) s.name = counters_->name;
  MPCC_PERF_FIELDS(MPCC_DELTA, MPCC_SET, MPCC_PERF_SKIP, MPCC_PERF_SKIP)
#undef MPCC_DELTA
#undef MPCC_SET
  s.allocs = thread_alloc_count() - base_.allocs;
  s.alloc_bytes = thread_alloc_bytes() - base_.alloc_bytes;
  s.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           base_wall_)
                 .count();
  s.cpu_s = thread_cpu_seconds() - base_.cpu_s;
  s.peak_rss = peak_rss_bytes();
  return s;
}

// -------------------------------------------------------------- PhaseTimer

PhaseTimer::PhaseTimer(std::string_view phase)
    : phase_(phase),
      trace_src_(tracer().intern("phase/" + phase_)),
      wall_begin_(std::chrono::steady_clock::now()) {
  MPCC_TRACE(TraceCategory::kSim, TraceEvent::kPhaseBegin, trace_src_,
             current_sim_time_or(0));
}

PhaseTimer::~PhaseTimer() {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - wall_begin_)
                      .count();
  metrics().counter("perf.phase." + phase_ + "_wall_ns").inc(std::uint64_t(ns));
  MPCC_TRACE(TraceCategory::kSim, TraceEvent::kPhaseEnd, trace_src_,
             current_sim_time_or(0), double(ns));
}

// --------------------------------------------------------- build/env stamp

// The git SHA + dirty flag come from a header generated at *build* time
// (cmake/git_stamp.cmake); MPCC_GIT_STAMP_HEADER carries its path. Builds
// outside CMake (or outside a git checkout) fall back to "unknown"/clean.
#ifdef MPCC_GIT_STAMP_HEADER
#include MPCC_GIT_STAMP_HEADER
#endif
#ifndef MPCC_GIT_SHA
#define MPCC_GIT_SHA "unknown"
#endif
#ifndef MPCC_GIT_DIRTY
#define MPCC_GIT_DIRTY 0
#endif
#ifndef MPCC_BUILD_TYPE
#define MPCC_BUILD_TYPE "unknown"
#endif
#ifndef MPCC_CXX_FLAGS
#define MPCC_CXX_FLAGS ""
#endif

namespace {
const char* compiler_id() {
#if defined(__clang_version__)
  return "clang " __clang_version__;
#elif defined(__VERSION__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

const BuildInfo& build_info() {
  static const BuildInfo info{MPCC_GIT_SHA, MPCC_GIT_DIRTY != 0, compiler_id(),
                              MPCC_BUILD_TYPE, MPCC_CXX_FLAGS};
  return info;
}

std::string bench_env_json() {
  const BuildInfo& info = build_info();
  return "{\"git_sha\": " + json::quote(info.git_sha) +
         ", \"git_dirty\": " + (info.git_dirty ? "true" : "false") +
         ", \"compiler\": " + json::quote(info.compiler) +
         ", \"build_type\": " + json::quote(info.build_type) +
         ", \"cxx_flags\": " + json::quote(info.cxx_flags) +
         ", \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) + "}";
}

}  // namespace mpcc::obs
