#include "sim/event_list.h"

#include <algorithm>
#include <bit>
#include <chrono>

#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/trace.h"
#include "sim/invariants.h"

namespace mpcc {

EventList::EventList() : buckets_(kNumBuckets, kNilSlot) {}

EventList::~EventList() { flush_profile(obs::metrics()); }

void EventList::flush_profile(obs::MetricsRegistry& registry) {
  if (profile_flushed_ || prof_.empty()) return;
  profile_flushed_ = true;
  // Aggregate self-profile -> metrics, for the per-run snapshot. Per-source
  // rows stay accessible through profile() while the run is live.
  std::uint64_t events = 0;
  std::uint64_t wall_ns = 0;
  for (const auto& [src, entry] : prof_) {
    events += entry.dispatches;
    wall_ns += entry.wall_ns;
  }
  registry.counter("sim.profiled_events").inc(events);
  registry.counter("sim.profile_wall_ns").inc(wall_ns);
  if (wall_ns > 0) {
    registry.gauge("sim.events_per_wall_sec")
        .set(static_cast<double>(events) / (static_cast<double>(wall_ns) / 1e9));
  }
}

void EventList::profiled_dispatch(EventSource* src) {
  const auto t0 = std::chrono::steady_clock::now();
  src->do_next_event();
  const auto dt = std::chrono::steady_clock::now() - t0;
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
  ProfileEntry& entry = prof_[src];
  if (entry.dispatches == 0) entry.name = src->name();
  ++entry.dispatches;
  entry.wall_ns += ns;
  if (wall_hist_ == nullptr) wall_hist_ = &obs::metrics().histogram("sim.event_wall_ns");
  wall_hist_->record(ns);
}

std::vector<EventList::SourceProfile> EventList::profile() const {
  std::vector<SourceProfile> out;
  out.reserve(prof_.size());
  for (const auto& [src, entry] : prof_) {
    out.push_back({entry.name, entry.dispatches, entry.wall_ns});
  }
  std::sort(out.begin(), out.end(), [](const SourceProfile& a, const SourceProfile& b) {
    return a.wall_ns > b.wall_ns;
  });
  return out;
}

void EventList::check_watchdog() {
  if (event_budget_ != 0 && dispatched_ >= event_budget_) {
    std::ostringstream os;
    os << "run exceeded event budget of " << event_budget_ << " dispatches at sim t="
       << to_seconds(now_) << "s";
    throw RunTimeout(now_, os.str());
  }
  if (wall_deadline_armed_ && (dispatched_ % kDeadlineStride) == 0 &&
      std::chrono::steady_clock::now() > wall_deadline_) {
    std::ostringstream os;
    os << "run exceeded wall-clock deadline at sim t=" << to_seconds(now_) << "s ("
       << dispatched_ << " events dispatched)";
    throw RunTimeout(now_, os.str());
  }
}

std::uint32_t EventList::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t idx = free_slots_.back();
    free_slots_.pop_back();
    slots_[idx].live = true;
    return idx;
  }
  Slot fresh;
  fresh.live = true;
  slots_.push_back(fresh);
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventList::release_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.live = false;
  ++s.gen;  // invalidates every token minted for the old generation
  free_slots_.push_back(idx);
}

void EventList::insert_entry(const Entry& e) {
  const std::uint64_t tick = static_cast<std::uint64_t>(e.time) >> shift_;
  const std::uint64_t base = static_cast<std::uint64_t>(now_) >> shift_;
  if (tick >= base + kNumBuckets) {
    ++overflow_inserts_;
    slots_[e.slot].in_overflow = true;
    overflow_.push_back(e);
    std::push_heap(overflow_.begin(), overflow_.end(), entry_greater);
    return;
  }
  slots_[e.slot].in_overflow = false;
  if (cur_.empty()) {
    if (wheel_count_ == 0) {
      // Fast path for the common near-empty queue: stage directly, no
      // bucket round trip and no scan on the next pop.
      cur_tick_ = tick;
      cur_.push_back(e);
      return;
    }
  } else if (tick == cur_tick_) {
    // The tick being drained: keep the staging vector sorted (descending)
    // so the in-order pop from the back stays exact.
    cur_.insert(std::upper_bound(cur_.begin(), cur_.end(), e, entry_greater), e);
    return;
  }
  // Thread the entry onto its bucket's intrusive chain (LIFO; order within
  // a bucket is irrelevant — adoption sorts). No allocation on this path.
  // The payload is materialised into the node only here — entries that stay
  // in cur_ or the overflow heap never need it.
  std::uint32_t& head = buckets_[tick & kBucketMask];
  Slot& n = slots_[e.slot];
  n.time = e.time;
  n.seq = e.seq;
  n.source = e.source;
  n.next = head;
  head = e.slot;
  mark_occupied(tick);
  ++wheel_count_;
  if (wheel_count_ == 1 || tick < scan_tick_) scan_tick_ = tick;
}

std::uint64_t EventList::next_occupied(std::uint64_t from, std::uint64_t limit) const {
  // [from, limit) spans less than one wheel revolution, so each bucket bit
  // in the range corresponds to exactly one tick. Whole 64-bucket words are
  // tested at once, bits below `from` masked off in the first.
  std::uint64_t tick = from;
  while (tick < limit) {
    std::uint64_t word = occupied_[(tick & kBucketMask) >> 6] >> (tick & 63);
    if (word != 0) {
      const std::uint64_t hit = tick + static_cast<std::uint64_t>(std::countr_zero(word));
      return hit < limit ? hit : limit;
    }
    tick = (tick | 63) + 1;  // next word boundary
  }
  return limit;
}

const EventList::Entry* EventList::find_live_min() {
  // Lazily drop cancelled entries from both candidate positions.
  while (!overflow_.empty() && !slots_[overflow_.front().slot].live) {
    release_slot(overflow_.front().slot);
    --overflow_dead_;
    std::pop_heap(overflow_.begin(), overflow_.end(), entry_greater);
    overflow_.pop_back();
  }
  while (!cur_.empty() && !slots_[cur_.back().slot].live) {
    release_slot(cur_.back().slot);
    cur_.pop_back();
  }
  if (wheel_count_ > 0) {
    // Stage the minimal-tick non-empty bucket. Every pending entry's time
    // is >= now(), so buckets behind now's tick are empty and the scan
    // cursor can fast-forward there.
    const std::uint64_t base = static_cast<std::uint64_t>(now_) >> shift_;
    if (scan_tick_ < base) scan_tick_ = base;
    for (;;) {
      const std::uint64_t limit = cur_.empty() ? base + kNumBuckets : cur_tick_;
      scan_tick_ = next_occupied(scan_tick_, limit);
      if (scan_tick_ >= limit) break;
      if (!cur_.empty()) {
        // A bucket earlier than the staged tick gained entries (scheduling
        // ran ahead of the drain): spill the staging back onto its bucket
        // chain and adopt the earlier one. cur_tick_ != scan_tick_ (mod
        // kNumBuckets) because both live in one horizon window, so `home`
        // is a different bucket than the adoption target below.
        std::uint32_t& home = buckets_[cur_tick_ & kBucketMask];
        for (const Entry& e : cur_) {
          Slot& n = slots_[e.slot];
          n.time = e.time;  // staged entries may have skipped the chain path
          n.seq = e.seq;
          n.source = e.source;
          n.next = home;
          home = e.slot;
        }
        wheel_count_ += cur_.size();
        mark_occupied(cur_tick_);
        cur_.clear();
      }
      // Adopt the chain: live entries materialise into cur_, cancelled ones
      // recycle their slot here and now.
      std::uint32_t i = buckets_[scan_tick_ & kBucketMask];
      buckets_[scan_tick_ & kBucketMask] = kNilSlot;
      clear_occupied(scan_tick_);
      while (i != kNilSlot) {
        const Slot& n = slots_[i];
        const std::uint32_t nx = n.next;
        --wheel_count_;
        if (n.live) {
          cur_.push_back(Entry{n.time, n.seq, i, n.source});
        } else {
          release_slot(i);
        }
        i = nx;
      }
      cur_tick_ = scan_tick_;
      ++scan_tick_;
      if (!cur_.empty()) {
        if (cur_.size() > 1) std::sort(cur_.begin(), cur_.end(), entry_greater);
        break;
      }
      // Whole bucket was cancelled: keep scanning.
    }
  }
  const bool have_wheel = !cur_.empty();
  const bool have_over = !overflow_.empty();
  if (!have_wheel && !have_over) return nullptr;
  if (have_wheel && have_over) {
    // Exact global order: wheel minimum vs overflow minimum.
    return entry_less(overflow_.front(), cur_.back()) ? &overflow_.front() : &cur_.back();
  }
  return have_wheel ? &cur_.back() : &overflow_.front();
}

void EventList::pop_found_min(const Entry* e) {
  release_slot(e->slot);
  if (!cur_.empty() && e == &cur_.back()) {
    cur_.pop_back();
    return;
  }
  std::pop_heap(overflow_.begin(), overflow_.end(), entry_greater);
  overflow_.pop_back();
}

void EventList::rebuild(std::uint32_t new_shift) {
  // Collect every live entry; cancelled ones get recycled here instead of
  // being carried across the rebuild.
  std::vector<Entry> all;
  all.reserve(pending());
  const auto collect = [this, &all](const Entry& e) {
    if (slots_[e.slot].live) {
      all.push_back(e);
    } else {
      release_slot(e.slot);
    }
  };
  for (std::uint32_t& head : buckets_) {
    for (std::uint32_t i = head; i != kNilSlot;) {
      const Slot& n = slots_[i];
      const std::uint32_t nx = n.next;
      collect(Entry{n.time, n.seq, i, n.source});
      i = nx;
    }
    head = kNilSlot;
  }
  for (const Entry& e : cur_) collect(e);
  cur_.clear();
  for (const Entry& e : overflow_) collect(e);
  overflow_.clear();
  overflow_dead_ = 0;
  occupied_.fill(0);
  wheel_count_ = 0;
  shift_ = new_shift;
  scan_tick_ = static_cast<std::uint64_t>(now_) >> shift_;
  for (const Entry& e : all) insert_entry(e);
}

void EventList::maybe_widen_buckets() {
  // Deterministic width adaptation: driven only by simulated scheduling
  // behaviour (insert counts), never by wall clock, so identical scenarios
  // adapt identically. Widen when a window of schedules landed mostly past
  // the horizon — the signature of a workload sparser than the bucket
  // width (far-future timers that get cancelled, like RTOs, still prefer
  // the overflow heap: one lazy pop beats widening every bucket). Called
  // once per kAdaptWindow schedules (schedule_at counts down), so the
  // steady-state cost is one decrement per schedule.
  const bool widen = overflow_inserts_ * 2 > kAdaptWindow && shift_ < kMaxShift;
  if (widen) rebuild(shift_ + 2);
  adapt_countdown_ = kAdaptWindow;
  overflow_inserts_ = 0;
}

EventToken EventList::schedule_at(EventSource* src, SimTime t) {
  MPCC_CHECK(src != nullptr, "sim.event_list.schedule");
  MPCC_CHECK_INVARIANT(t >= now_, "sim.event_list.monotone",
                       "cannot schedule into the past: t=" << to_seconds(t) << "s < now="
                                                           << to_seconds(now_) << "s");
  if (--adapt_countdown_ == 0) [[unlikely]] maybe_widen_buckets();
  const std::uint32_t idx = acquire_slot();
  const EventToken token =
      (static_cast<EventToken>(slots_[idx].gen) << 32) | static_cast<EventToken>(idx + 1);
  insert_entry(Entry{t, next_seq_++, idx, src});
  return token;
}

void EventList::cancel(EventToken token) {
  const std::uint32_t idx_plus_one = static_cast<std::uint32_t>(token & 0xffffffffu);
  if (idx_plus_one == 0) return;  // kInvalidEventToken or foreign garbage
  const std::uint32_t idx = idx_plus_one - 1;
  if (idx >= slots_.size()) return;
  Slot& s = slots_[idx];
  if (s.gen != static_cast<std::uint32_t>(token >> 32) || !s.live) return;
  // Mark dead; the entry itself is skipped (and the slot recycled) when its
  // position pops — except in the overflow heap, which compacts once more
  // than half of it is dead (the rearm-every-ACK RTO pattern would
  // otherwise park thousands of corpses there until their deadlines pass).
  s.live = false;
  if (s.in_overflow && ++overflow_dead_ * 2 > overflow_.size()) compact_overflow();
}

void EventList::compact_overflow() {
  std::size_t w = 0;
  for (std::size_t i = 0; i < overflow_.size(); ++i) {
    if (slots_[overflow_[i].slot].live) {
      overflow_[w++] = overflow_[i];
    } else {
      release_slot(overflow_[i].slot);
    }
  }
  overflow_.resize(w);
  std::make_heap(overflow_.begin(), overflow_.end(), entry_greater);
  overflow_dead_ = 0;
}

EventList::BatchedEventCount::~BatchedEventCount() {
  const std::uint64_t delta = list.dispatched_ - before;
  if (delta != 0 && obs::perf_enabled()) {
    obs::bound_perf(list.perf_ctrs_).events_dispatched += delta;
  }
  for (PerfFlushable* c : list.flushables_) c->flush_perf();
}

void EventList::register_perf_flush(PerfFlushable* c) { flushables_.push_back(c); }

void EventList::unregister_perf_flush(PerfFlushable* c) {
  c->flush_perf();
  flushables_.erase(std::remove(flushables_.begin(), flushables_.end(), c), flushables_.end());
}

void EventList::dispatch_entry(const Entry& e, bool count_into_ledger) {
  MPCC_CHECK_INVARIANT(e.time >= now_, "sim.event_list.monotone",
                       "popped event at t=" << to_seconds(e.time) << "s behind now="
                                            << to_seconds(now_) << "s");
  if (event_budget_ != 0 || wall_deadline_armed_) check_watchdog();
  now_ = e.time;
  ++dispatched_;
  if (count_into_ledger) {
    MPCC_PERF_COUNT_AT(perf_ctrs_, events_dispatched);
  }
  if (obs::sim_profiling()) {
    profiled_dispatch(e.source);
  } else if (obs::perf_enabled() && (dispatched_ & 255) == 0) [[unlikely]] {
    // Sampled dispatch-latency probe: 1 in 256 events pays two
    // steady_clock reads; which events are sampled depends only on the
    // dispatch count, so the sample set is deterministic for a scenario
    // (the recorded nanoseconds are host wall-clock, of course).
    const auto t0 = std::chrono::steady_clock::now();
    e.source->do_next_event();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    obs::bound_perf(perf_ctrs_).dispatch_ns.record(static_cast<std::uint64_t>(ns));
  } else {
    e.source->do_next_event();
  }
}

bool EventList::run_next_impl(bool count_into_ledger) {
  const Entry* p = find_live_min();
  if (p == nullptr) return false;
  const Entry e = *p;
  pop_found_min(p);
  dispatch_entry(e, count_into_ledger);
  return true;
}

void EventList::run_until(SimTime t) {
  // dispatched_ is maintained unconditionally (watchdogs need it), so the
  // loops count into the perf ledger by delta instead of per event — the
  // hot-path increment would otherwise be the single largest MPCC_NO_PERF
  // A/B contributor (~0.9 ns x every event of the run).
  BatchedEventCount batch(*this);
  for (;;) {
    const Entry* p = find_live_min();
    if (p == nullptr || p->time > t) break;
    const Entry e = *p;
    pop_found_min(p);
    dispatch_entry(e, /*count_into_ledger=*/false);
  }
  if (t > now_) now_ = t;
}

void EventList::run_all() {
  BatchedEventCount batch(*this);
  while (run_next_impl(/*count_into_ledger=*/false)) {
  }
}

}  // namespace mpcc
