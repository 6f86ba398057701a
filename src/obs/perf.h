// Performance-observability layer: always-on perf counters, HDR-style
// histograms, and phase timers.
//
// This complements the tracing/metrics subsystem (obs/trace.h,
// obs/metrics.h) with the *cost* side of a run: how many events the loop
// dispatched, how many packets the fabric moved, how often the allocator
// was hit, and how wall/CPU time was spent — the numbers every performance
// PR is judged against (BENCH_core.json, docs/BENCHMARKS.md).
//
// Design constraints, in order:
//
//   1. Always on, branch-cheap. Counting must be affordable in Release
//      sweeps: MPCC_PERF_COUNT is one predicted-true branch, one
//      thread-local load, and one increment, and the hot components cache
//      the resolved ledger pointer (MPCC_PERF_COUNT_AT / obs::bound_perf)
//      so the per-event cost drops to a member load. The acceptance bar is
//      < 2% overhead on the hot-path microbenches, measured by the
//      MPCC_NO_PERF A/B in tools/mpcc_bench (same kill-switch style as the
//      invariant checker's MPCC_NO_INVARIANTS).
//   2. Per-run attribution. A SimContext owns a PerfCounters instance and
//      its Scope installs it thread-locally (exactly like the tracer and
//      metrics registry), so parallel sweep workers count independently and
//      the sim-deterministic counters are bit-identical for a given axis
//      point regardless of --jobs.
//   3. Mergeable distributions. HdrHistogram has a *fixed* bucket layout
//      (no configuration), so histograms from different runs always merge
//      and merging is associative — sweep-level p99s are exact aggregates
//      of per-run recordings, not re-estimates.
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/units.h"

namespace mpcc::json {
class Cursor;
}

namespace mpcc::obs {

class MetricsRegistry;

// ------------------------------------------------------------ HdrHistogram

/// Log-bucketed integer histogram in the style of HdrHistogram: exact
/// buckets for values < 32, then 16 linear sub-buckets per power-of-two
/// octave, covering the full uint64 range (the top octave absorbs overflow
/// up to UINT64_MAX). Worst-case relative quantile error is 1/16 (6.25%).
///
/// The layout is fixed at compile time, which buys three properties: merge()
/// is always well-defined, merge is associative and commutative
/// bucket-by-bucket, and bucketing is pure integer bit arithmetic —
/// deterministic across platforms and free of libm calls on the hot path.
/// It is the one histogram type: the ledger's and MetricsRegistry's.
class HdrHistogram {
 public:
  /// Values below kLinearMax get one bucket each (exact).
  static constexpr std::uint64_t kLinearMax = 32;
  /// Sub-buckets per octave above the linear region.
  static constexpr int kSubBucketBits = 4;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBucketBits;
  /// Octaves [2^5, 2^6) .. [2^63, 2^64): 59 of them.
  static constexpr std::size_t kNumBuckets = kLinearMax + 59 * kSubBuckets;

  /// Bucket holding `v`. Pure bit arithmetic; total over all of uint64.
  static constexpr std::size_t bucket_index(std::uint64_t v) {
    if (v < kLinearMax) return static_cast<std::size_t>(v);
    const int m = 63 - std::countl_zero(v);  // m >= 5
    const std::uint64_t sub = (v >> (m - kSubBucketBits)) & (kSubBuckets - 1);
    return static_cast<std::size_t>(kLinearMax) +
           static_cast<std::size_t>(m - 5) * kSubBuckets +
           static_cast<std::size_t>(sub);
  }

  /// Inclusive lower bound of bucket `idx`.
  static constexpr std::uint64_t bucket_lower(std::size_t idx) {
    if (idx < kLinearMax) return idx;
    const std::size_t rel = idx - kLinearMax;
    const int m = static_cast<int>(rel / kSubBuckets) + 5;
    const std::uint64_t sub = rel % kSubBuckets;
    return (std::uint64_t{1} << m) + (sub << (m - kSubBucketBits));
  }

  /// Exclusive upper bound of bucket `idx` (UINT64_MAX for the last).
  static constexpr std::uint64_t bucket_upper(std::size_t idx) {
    if (idx + 1 >= kNumBuckets) return ~std::uint64_t{0};
    return bucket_lower(idx + 1);
  }

  void record(std::uint64_t v) {
    ++counts_[bucket_index(v)];
    if (count_ == 0) {
      min_ = max_ = v;
    } else {
      if (v < min_) min_ = v;
      if (v > max_) max_ = v;
    }
    ++count_;
    sum_ += v;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ > 0 ? min_ : 0; }
  std::uint64_t max() const { return count_ > 0 ? max_ : 0; }
  double mean() const {
    return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }

  /// The p-quantile (p in [0,1]) estimated at the midpoint of the bucket
  /// containing the rank, clamped to the observed [min, max]. An empty
  /// histogram reports 0 for every percentile.
  double percentile(double p) const;

  /// Adds `other`'s recordings into this histogram. Always well-defined
  /// (fixed layout); associative and commutative.
  void merge(const HdrHistogram& other);

  void reset();

  const std::array<std::uint64_t, kNumBuckets>& buckets() const { return counts_; }

  /// True when every bucket count, min, max, and sum match exactly — the
  /// bit-identity predicate used by determinism tests.
  bool operator==(const HdrHistogram& other) const {
    return count_ == other.count_ && sum_ == other.sum_ && min() == other.min() &&
           max() == other.max() && counts_ == other.counts_;
  }

 private:
  std::array<std::uint64_t, kNumBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

// ------------------------------------------------------------- field table

/// The perf ledger's scalar fields, each named once. PerfCounters and
/// PerfStats declare their members from this table, and every consumer
/// (accumulate, to_json/from_json and so the checkpoint, flush_to_metrics,
/// PerfStatsCollector, mpcc_bench's inner-run override) expands it, so a new
/// field is one line here.
///
/// Each entry is SOURCE(name, type, initial value, merge). SOURCE says how a
/// run's value is formed:
///   DELTA  counted on the hot path into PerfCounters; the run's value is
///          the change across the run
///   SET    written once per run into PerfCounters, taken as the run left it
///   GUARD  stamped into PerfStats by the RunGuard from the run's PoolArena
///          (sim/pool.h)
///   HOST   host cost of the run, measured on the calling thread
/// DELTA, SET and GUARD fields are sim-deterministic: bit-identical for a
/// given scenario point across --jobs counts and hosts. `merge` says how
/// PerfStats::accumulate combines runs: sum, max (the worst reconvergence,
/// the highest peak) or min_nonzero (the shortest fault spacing).
#define MPCC_PERF_FIELDS(DELTA, SET, GUARD, HOST)                                     \
  DELTA(events_dispatched, std::uint64_t, 0, sum) /* EventList dispatches */          \
  DELTA(timers_fired, std::uint64_t, 0, sum)      /* Timer callbacks */               \
  DELTA(packets_enqueued, std::uint64_t, 0, sum)  /* accepted by a Queue */           \
  DELTA(packets_forwarded, std::uint64_t, 0, sum) /* Queue services delivered */      \
  DELTA(packets_dropped, std::uint64_t, 0, sum)   /* queue drops + pipe loss */       \
  DELTA(down_drops, std::uint64_t, 0, sum)        /* drops while admin-down */        \
  DELTA(flight_drops, std::uint64_t, 0, sum)      /* Pipe::drop_in_flight */          \
  DELTA(flows_dead, std::uint64_t, 0, sum)        /* consecutive-RTO deaths */        \
  DELTA(chaos_corrupted, std::uint64_t, 0, sum)   /* corrupted by injection */        \
  DELTA(chaos_reordered, std::uint64_t, 0, sum)   /* swapped out of order */          \
  DELTA(chaos_duplicated, std::uint64_t, 0, sum)  /* delivered twice */               \
  DELTA(chaos_blackholed, std::uint64_t, 0, sum)  /* blackhole/burst drops */         \
  DELTA(chaos_faults, std::uint64_t, 0, sum)      /* fault windows opened */          \
  SET(recovery_s, double, -1.0, max)              /* worst reconverge, s; <0: none */ \
  SET(mtbf_s, double, 0.0, min_nonzero)           /* horizon / faults; 0: none */     \
  GUARD(pool_hits, std::uint64_t, 0, sum)         /* free-list reuses */              \
  GUARD(pool_misses, std::uint64_t, 0, sum)       /* fresh carves */                  \
  GUARD(pool_outstanding, std::uint64_t, 0, sum)  /* nodes live at run end */         \
  HOST(allocs, std::uint64_t, 0, sum)             /* operator new calls */            \
  HOST(alloc_bytes, std::uint64_t, 0, sum)        /* bytes from operator new */       \
  HOST(wall_s, double, 0.0, sum)                  /* wall time of the run body */     \
  HOST(cpu_s, double, 0.0, sum)                   /* thread CPU of the run body */    \
  HOST(peak_rss, std::uint64_t, 0, max)           /* process peak RSS, bytes */

/// Expands `X` for every field, whatever its source.
#define MPCC_PERF_EACH(X) MPCC_PERF_FIELDS(X, X, X, X)
/// A SOURCE argument that leaves that source's fields out.
#define MPCC_PERF_SKIP(name, type, init, merge)

/// Declares a table entry as a member.
#define MPCC_PERF_DECLARE(name, type, init, merge) type name = init;

// ------------------------------------------------------------ PerfCounters

/// The per-run performance ledger. A SimContext owns one; the active scope
/// installs it as the calling thread's current instance, so hot-path call
/// sites (MPCC_PERF_COUNT / MPCC_PERF_RECORD below) attribute to the run
/// that is executing without taking a context parameter.
///
/// The DELTA and SET fields of the table above and the queue_depth_pkts /
/// rtt_us / fct_us histograms are functions of the simulation alone.
/// dispatch_ns is wall-clock (sampled 1-in-256 dispatches) and therefore
/// host-dependent.
struct PerfCounters {
  MPCC_PERF_FIELDS(MPCC_PERF_DECLARE, MPCC_PERF_DECLARE, MPCC_PERF_SKIP,
                   MPCC_PERF_SKIP)

  HdrHistogram dispatch_ns;       ///< sampled per-event dispatch wall ns
  HdrHistogram queue_depth_pkts;  ///< post-enqueue depth, sampled 1-in-8
  HdrHistogram rtt_us;            ///< per-ACK RTT samples, microseconds
  HdrHistogram fct_us;            ///< fleet flow completion times, microseconds

  /// Writes the ledger into `registry`: DELTA fields as perf.* counters,
  /// SET fields that were set as perf.* gauges, and count/mean/p50/p90/
  /// p99/p999/max gauges per histogram. No-op when nothing was counted, so
  /// unused runs don't pollute snapshots.
  void flush_to_metrics(MetricsRegistry& registry) const;
};

// ------------------------------------------------ kill switch + TLS access

namespace detail {
/// Process-wide enable flag, default on; initialised from MPCC_NO_PERF=1 at
/// static-init time (zero-initialised false before that, so allocations
/// during static init are simply not counted). Not thread-synchronised
/// beyond a plain bool: flip it before spawning sweep workers.
extern bool g_perf_enabled;

inline thread_local PerfCounters* t_perf_override = nullptr;

/// The per-thread fallback instance (legacy single-threaded behaviour).
PerfCounters& thread_default_perf_counters();

/// Installs `p` as this thread's counters override (nullptr restores the
/// per-thread default) and returns the previous override. SimContext::Scope
/// uses this; normal code should not.
PerfCounters* exchange_thread_perf(PerfCounters* p);
}  // namespace detail

inline bool perf_enabled() { return detail::g_perf_enabled; }
void set_perf_enabled(bool enabled);

/// The calling thread's current perf ledger: the active SimContext scope's
/// instance, else the per-thread default.
inline PerfCounters& perf_counters() {
  PerfCounters* p = detail::t_perf_override;
  return p != nullptr ? *p : detail::thread_default_perf_counters();
}

/// Lazily binds `slot` to the calling thread's current ledger and returns
/// it. Hot components (EventList, Queue, Pipe, TcpSrc, timers) keep a
/// PerfCounters* member and count through this instead of resolving the
/// thread-local on every event — the same resolve-once-and-cache idiom as
/// hot-path metric handles (docs/OBSERVABILITY.md). The binding happens at
/// the first counted event, which for sweep runs is inside the run's
/// SimContext scope, so attribution is per-run as required; a component
/// first used under one scope and reused under another keeps the first
/// binding (components don't outlive their run in practice).
inline PerfCounters& bound_perf(PerfCounters*& slot) {
  if (slot == nullptr) [[unlikely]] slot = &perf_counters();
  return *slot;
}

// ------------------------------------------------------- allocation hook

/// Allocations observed on the calling thread since it started, counted by
/// the global operator new replacement in perf.cc. Monotone; callers take
/// deltas. Counting is skipped entirely while perf_enabled() is false, so
/// the MPCC_NO_PERF A/B measures the true hook cost.
std::uint64_t thread_alloc_count();
std::uint64_t thread_alloc_bytes();

// -------------------------------------------------- host-cost primitives

/// CPU seconds consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
double thread_cpu_seconds();
/// Peak resident set size of this process image, bytes: VmHWM from
/// /proc/self/status, else getrusage's ru_maxrss.
std::uint64_t peak_rss_bytes();

// -------------------------------------------------------------- PerfStats

/// The flat, serialisable snapshot of one run's performance: every field of
/// the table. This is what lands in harness::RunReport, the sweep JSONL
/// checkpoint, and BENCH_core.json.
struct PerfStats {
  MPCC_PERF_EACH(MPCC_PERF_DECLARE)

  double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(events_dispatched) / wall_s : 0.0;
  }
  double packets_per_sec() const {
    return wall_s > 0 ? static_cast<double>(packets_forwarded) / wall_s : 0.0;
  }
  double allocs_per_event() const {
    return events_dispatched > 0
               ? static_cast<double>(allocs) / static_cast<double>(events_dispatched)
               : 0.0;
  }

  /// Total chaos-primitive activity, for "was anything injected" summaries.
  std::uint64_t chaos_total() const {
    return chaos_corrupted + chaos_reordered + chaos_duplicated + chaos_blackholed;
  }

  /// Merges `other` in, field by field as the table's merge column says —
  /// used to aggregate a sweep's per-point stats.
  void accumulate(const PerfStats& other);

  /// Flat JSON object ({"events_dispatched": N, ...}): every field in table
  /// order, then the three derived rates. Doubles use %.17g, so from_json
  /// restores every field bit for bit.
  std::string to_json() const;

  /// Reads an object written by to_json, by field name. Missing fields keep
  /// their initial value and unknown ones (the derived rates) are skipped.
  static PerfStats from_json(json::Cursor& cur);
};

/// Captures baseline marks at construction and produces the run's PerfStats
/// at finish(): DELTA fields as changes, SET fields as left, host costs
/// measured on the *calling thread* (the sweep engine runs one run per
/// thread). GUARD fields are the RunGuard's to stamp. The counters
/// reference must outlive the collector.
class PerfStatsCollector {
 public:
  explicit PerfStatsCollector(const PerfCounters& counters);
  PerfStats finish() const;

 private:
  const PerfCounters* counters_;
  PerfStats base_;  ///< DELTA counters and summed host costs at construction
  std::chrono::steady_clock::time_point base_wall_;
};

// -------------------------------------------------------------- PhaseTimer

/// RAII phase probe: scoped wall-clock timing of a named run phase (setup /
/// warmup / steady_state / teardown). On destruction the elapsed wall time
/// lands in the current metrics registry as a `perf.phase.<name>_wall_ns`
/// counter, and — when the `sim` trace category is enabled — a matched
/// begin/end pair is recorded for the Chrome-trace exporter, which renders
/// phases as duration slices on a `phase/<name>` track.
class PhaseTimer {
 public:
  explicit PhaseTimer(std::string_view phase);
  ~PhaseTimer();

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  std::string phase_;
  std::uint32_t trace_src_;
  std::chrono::steady_clock::time_point wall_begin_;
};

// --------------------------------------------------------- build/env stamp

/// Build provenance compiled into the library: git SHA + dirty flag
/// (stamped at *build* time by cmake/git_stamp.cmake, so it tracks HEAD
/// across incremental builds), compiler id+version, CMake build type, and
/// the compile flags. Used to stamp BENCH_*.json so trajectories are
/// comparable across PRs.
struct BuildInfo {
  const char* git_sha;
  bool git_dirty;  ///< tracked-file modifications present at build time
  const char* compiler;
  const char* build_type;
  const char* cxx_flags;
};
const BuildInfo& build_info();

/// {"git_sha":...,"git_dirty":...,"compiler":...,"build_type":...,
///  "cxx_flags":...,"hardware_threads":N} — the shared provenance object
/// BENCH_core.json (tools/mpcc_bench) and perfbench embed under "env".
std::string bench_env_json();

}  // namespace mpcc::obs

/// Increments one PerfCounters field on the calling thread's current
/// ledger. One predicted-true branch + one TLS load + one increment;
/// MPCC_NO_PERF=1 (or set_perf_enabled(false)) skips the increment.
#define MPCC_PERF_COUNT(field)                                \
  do {                                                        \
    if (::mpcc::obs::perf_enabled()) [[likely]] {             \
      ++::mpcc::obs::perf_counters().field;                   \
    }                                                         \
  } while (0)

/// Records `value` into one PerfCounters histogram field. The value
/// expression is only evaluated when perf is enabled.
#define MPCC_PERF_RECORD(field, value)                        \
  do {                                                        \
    if (::mpcc::obs::perf_enabled()) [[likely]] {             \
      ::mpcc::obs::perf_counters().field.record(value);       \
    }                                                         \
  } while (0)

/// Bound-slot variants for per-component cached counters (obs::bound_perf):
/// one predicted-true branch + one member load + one increment — cheaper
/// than the thread-local resolution above, which is what keeps the
/// MPCC_NO_PERF A/B under the 2% bar on packet-rate hot paths.
#define MPCC_PERF_COUNT_AT(slot, field)                       \
  do {                                                        \
    if (::mpcc::obs::perf_enabled()) [[likely]] {             \
      ++::mpcc::obs::bound_perf(slot).field;                  \
    }                                                         \
  } while (0)

#define MPCC_PERF_RECORD_AT(slot, field, value)               \
  do {                                                        \
    if (::mpcc::obs::perf_enabled()) [[likely]] {             \
      ::mpcc::obs::bound_perf(slot).field.record(value);      \
    }                                                         \
  } while (0)
