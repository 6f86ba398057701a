#include "tcp/tcp_src.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/perf.h"
#include "sim/invariants.h"
#include "util/logging.h"

namespace mpcc {

// ---------------------------------------------------------------- provider

bool FixedFlowProvider::next_segment(Bytes mss, Bytes& len, std::int64_t& data_seq) {
  if (remaining_ == 0) return false;
  if (remaining_ < 0) {
    len = mss;  // unbounded
  } else {
    len = std::min<Bytes>(mss, remaining_);
    remaining_ -= len;
  }
  data_seq = next_seq_;
  next_seq_ += len;
  return true;
}

// ------------------------------------------------------------------- hooks

void TcpCcHooks::on_ack(TcpSrc&, Bytes, bool, SimTime) {}

void TcpCcHooks::on_ca_increase(TcpSrc& src, Bytes newly_acked) {
  // Reno: one mss per window's worth of ACKed bytes.
  const double mss = static_cast<double>(src.mss());
  src.set_cwnd(src.cwnd() + mss * static_cast<double>(newly_acked) / src.cwnd());
}

void TcpCcHooks::on_fast_retransmit(TcpSrc& src) {
  const Bytes half = std::max<Bytes>(src.inflight() / 2, 2 * src.mss());
  src.set_ssthresh(half);
  src.set_cwnd(static_cast<double>(half + 3 * src.mss()));
}

void TcpCcHooks::on_timeout(TcpSrc& src) {
  src.set_ssthresh(std::max<Bytes>(src.inflight() / 2, 2 * src.mss()));
}

// ------------------------------------------------------------------ TcpSrc

TcpSrc::TcpSrc(Network& net, std::string name, TcpConfig config)
    : EventSource(std::move(name)),
      net_(net),
      config_(config),
      flow_id_(net.next_flow_id()),
      trace_src_(obs::tracer().intern(this->name())),
      hooks_(std::make_unique<TcpCcHooks>()),
      ssthresh_(config.max_cwnd > 0 ? config.max_cwnd : mega_bytes(1024)),
      rtt_(config.min_rto, config.max_rto),
      rto_timer_(net.events(), this->name() + ":rto", [this] { on_rto(); }) {
  cwnd_ = static_cast<double>(config_.initial_window_segments) *
          static_cast<double>(config_.mss);
  owned_provider_ = std::make_unique<FixedFlowProvider>(Bytes{-1});
  provider_ = owned_provider_.get();
}

void TcpSrc::connect(const Route* forward, TcpSink* sink) {
  MPCC_CHECK(forward != nullptr && sink != nullptr, "tcp.connect");
  forward_ = forward;
  (void)sink;  // the sink is reached through `forward`; kept for clarity
}

void TcpSrc::set_flow_size(Bytes total) {
  owned_provider_ = std::make_unique<FixedFlowProvider>(total);
  provider_ = owned_provider_.get();
}

void TcpSrc::start(SimTime at) {
  MPCC_CHECK_INVARIANT(forward_ != nullptr, "tcp.start",
                       name() << ": connect() before start()");
  start_time_ = at;
  net_.events().schedule_at(this, at);
}

void TcpSrc::do_next_event() {
  started_ = true;
  send_available();
}

void TcpSrc::set_cwnd(double cwnd) {
  // A NaN here poisons std::clamp (UB) and then every rate computed from
  // the window; catch the broken CC at the source.
  MPCC_CHECK_INVARIANT(std::isfinite(cwnd), "tcp.cwnd",
                       name() << ": set_cwnd(" << cwnd << ")");
  const double floor = static_cast<double>(config_.mss);
  double cap = config_.max_cwnd > 0 ? static_cast<double>(config_.max_cwnd)
                                    : static_cast<double>(giga_bytes(1));
  cwnd_ = std::clamp(cwnd, floor, cap);
  MPCC_TRACE(obs::TraceCategory::kCwnd, obs::TraceEvent::kCwnd, trace_src_,
             net_.now(), cwnd_, static_cast<double>(ssthresh_));
}

Bytes TcpSrc::effective_cwnd() const { return static_cast<Bytes>(cwnd_); }

void TcpSrc::restart_flow_state(bool reset_rtt) {
  in_recovery_ = false;
  rto_rearmed_in_recovery_ = false;
  dup_acks_ = 0;
  rto_backoff_ = 1;
  consecutive_timeouts_ = 0;
  dead_ = false;
  // Stale dupacks for pre-restart data must not trigger a window reduction
  // (same guard an RTO installs).
  recover_ = highest_sent_;
  ssthresh_ = config_.max_cwnd > 0 ? config_.max_cwnd : mega_bytes(1024);
  set_cwnd(static_cast<double>(config_.initial_window_segments) *
           static_cast<double>(config_.mss));
  if (reset_rtt) rtt_ = RttEstimator(config_.min_rto, config_.max_rto);
  if (inflight() == 0) rto_timer_.cancel();
  // The cwnd was just set to the initial window; don't let the idle-restart
  // clamp fire again on the first send of the new transfer.
  last_send_time_ = 0;
}

void TcpSrc::set_admin_down(bool down) {
  if (admin_down_ == down) return;
  admin_down_ = down;
  if (down) {
    rto_timer_.cancel();
    MPCC_DEBUG << name() << " admin down at " << to_ms(net_.now()) << "ms";
    return;
  }
  MPCC_DEBUG << name() << " admin up at " << to_ms(net_.now()) << "ms";
  if (!started_ || completed_) return;
  // Re-establish like a timeout would: anything in flight when the path
  // went down is presumed lost, so restart from one segment and resend
  // from the cumulative ACK point.
  in_recovery_ = false;
  dup_acks_ = 0;
  rto_backoff_ = 1;
  recover_ = highest_sent_;
  set_cwnd(static_cast<double>(mss()));
  next_send_ = last_acked_;  // go-back-N
  send_available();
}

void TcpSrc::send_available() {
  if (!started_ || completed_ || admin_down_) return;
  // RFC 2861: a cwnd unused across an idle period says nothing about the
  // current network; restart from the initial window.
  if (config_.cwnd_restart_after_idle && inflight() == 0 && last_send_time_ > 0 &&
      net_.now() - last_send_time_ > rtt_.rto()) {
    const double initial = static_cast<double>(config_.initial_window_segments) *
                           static_cast<double>(config_.mss);
    if (cwnd_ > initial) set_cwnd(initial);
  }
  while (true) {
    const Bytes pipe = inflight();
    if (pipe + config_.mss > effective_cwnd() && pipe > 0) break;
    if (next_send_ < highest_sent_) {
      // Go-back-N resend of an already-mapped segment.
      const SentSegment* seg = find_segment(next_send_);
      MPCC_CHECK_INVARIANT(seg != nullptr, "tcp.resend",
                           name() << ": resend point " << next_send_
                                  << " not segment-aligned");
      send_segment(next_send_, seg->meta, /*retransmit=*/true);
      next_send_ += seg->meta.len;
    } else {
      Bytes len = 0;
      std::int64_t data_seq = -1;
      if (!provider_->next_segment(config_.mss, len, data_seq)) break;
      MPCC_CHECK_INVARIANT(len > 0 && len <= config_.mss, "tcp.segment",
                           name() << ": provider returned len=" << len
                                  << " (mss=" << config_.mss << ")");
      SegmentMeta meta{len, data_seq};
      segments_.push_back(SentSegment{highest_sent_, meta});
      send_segment(highest_sent_, meta, /*retransmit=*/false);
      highest_sent_ += len;
      next_send_ = highest_sent_;
    }
  }
  if (inflight() > 0 && !rto_timer_.armed()) arm_rto();
}

void TcpSrc::send_segment(std::int64_t seq, const SegmentMeta& meta, bool retransmit) {
  Packet pkt = make_data_packet(flow_id_, seq, meta.len, net_.now());
  pkt.data_seq = meta.data_seq;
  pkt.ecn_capable = config_.ecn_capable;
  last_send_time_ = net_.now();
  ++packets_sent_;
  if (retransmit) {
    ++retransmits_;
    bytes_retransmitted_ += meta.len;
  }
  forward_->inject(std::move(pkt));
}

void TcpSrc::retransmit_one(std::int64_t seq) {
  const SentSegment* seg = find_segment(seq);
  if (seg == nullptr) return;  // already acked by a racing ACK
  send_segment(seq, seg->meta, /*retransmit=*/true);
}

const TcpSrc::SentSegment* TcpSrc::find_segment(std::int64_t seq) const {
  std::size_t lo = 0;
  std::size_t hi = segments_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (segments_[mid].seq < seq) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < segments_.size() && segments_[lo].seq == seq) return &segments_[lo];
  return nullptr;
}

void TcpSrc::receive(Packet pkt) {
  MPCC_CHECK_INVARIANT(pkt.type == PacketType::kAck, "tcp.ack",
                       name() << ": non-ACK packet delivered to source");
  // Checksum failure (chaos corruption): discard silently — a corrupted ACK
  // carries no trustworthy cumulative point.
  if (pkt.corrupted) return;
  if (completed_ || admin_down_) return;  // stale ACKs while quiesced
  if (pkt.seq > last_acked_) {
    handle_new_ack(pkt);
  } else if (pkt.seq == last_acked_ && inflight() > 0) {
    handle_dup_ack();
  }
  send_available();
}

void TcpSrc::handle_new_ack(const Packet& ack) {
  MPCC_CHECK_INVARIANT(ack.seq <= highest_sent_, "tcp.ack.bounds",
                       name() << ": ACK " << ack.seq << " beyond highest_sent "
                              << highest_sent_);
  const Bytes newly = ack.seq - last_acked_;
  last_acked_ = ack.seq;
  if (next_send_ < last_acked_) next_send_ = last_acked_;
  while (!segments_.empty() && segments_.front().seq < last_acked_) segments_.pop_front();
  rto_backoff_ = 1;
  consecutive_timeouts_ = 0;
  if (dead_) {
    dead_ = false;
    MPCC_DEBUG << name() << " revived at " << to_ms(net_.now()) << "ms";
    obs::metrics().counter("tcp.subflow_revived").inc();
  }

  const SimTime rtt_sample = net_.now() - ack.ts_echo;
  rtt_.add_sample(rtt_sample);
  // Unlike the trace-gated histogram below, the perf ledger samples RTTs
  // without tracing enabled — 1-in-8 keyed on the ACK count, so the sample
  // set is sim-deterministic (a saturated flow still yields thousands of
  // samples per simulated second).
  if ((++new_acks_ & 7) == 0) {
    MPCC_PERF_RECORD_AT(perf_ctrs_, rtt_us,
                        static_cast<std::uint64_t>(rtt_sample / kMicrosecond));
  }
  if (obs::Tracer& tr = obs::tracer(); tr.enabled(obs::TraceCategory::kCwnd)) [[unlikely]] {
    tr.record(obs::TraceCategory::kCwnd, obs::TraceEvent::kRttSample,
              trace_src_, net_.now(),
              static_cast<double>(rtt_sample) / kMicrosecond,
              static_cast<double>(rtt_.srtt()) / kMicrosecond);
    // Hot-path histogram rides the cwnd trace bit (see queue occupancy).
    // Per-instance handle: each SimContext owns its own registry.
    if (rtt_metric_ == nullptr) rtt_metric_ = &obs::metrics().histogram("tcp.rtt_us");
    rtt_metric_->record(static_cast<std::uint64_t>(rtt_sample / kMicrosecond));
  }
  hooks_->on_ack(*this, newly, ack.ecn_echo, rtt_sample);

  bool partial_ack = false;
  if (in_recovery_) {
    if (last_acked_ >= recover_) {
      // Full ACK: leave recovery, deflate to ssthresh.
      in_recovery_ = false;
      dup_acks_ = 0;
      set_cwnd(static_cast<double>(ssthresh_));
      MPCC_TRACE(obs::TraceCategory::kSubflow, obs::TraceEvent::kRecoveryExit,
                 trace_src_, net_.now(), cwnd_, static_cast<double>(ssthresh_));
    } else {
      // NewReno partial ACK: retransmit the next hole, partial deflation.
      partial_ack = true;
      retransmit_one(last_acked_);
      set_cwnd(std::max(cwnd_ - static_cast<double>(newly) + static_cast<double>(mss()),
                        static_cast<double>(mss())));
    }
  } else {
    dup_acks_ = 0;
    if (cwnd_ < static_cast<double>(ssthresh_)) {
      set_cwnd(cwnd_ + static_cast<double>(newly));  // slow start
      // HyStart-style exit: queueing delay says the pipe is full.
      if (config_.hystart &&
          cwnd_ >= static_cast<double>(config_.hystart_min_segments * mss()) &&
          rtt_.has_sample()) {
        const SimTime budget =
            std::max<SimTime>(4 * kMillisecond, rtt_.base_rtt() / 16);
        if (rtt_sample > rtt_.base_rtt() + budget) {
          set_ssthresh(static_cast<Bytes>(cwnd_));
        }
      }
    } else {
      hooks_->on_ca_increase(*this, newly);
    }
  }

  after_ack_processing();

  if (inflight() == 0) {
    rto_timer_.cancel();
  } else if (!partial_ack) {
    arm_rto();
  } else if (!rto_rearmed_in_recovery_) {
    // RFC 6582 "impatient": re-arm on the first partial ACK only, so a
    // one-hole-per-RTT recovery that would take forever falls back to RTO
    // and go-back-N instead.
    rto_rearmed_in_recovery_ = true;
    arm_rto();
  }
  check_complete();
}

void TcpSrc::handle_dup_ack() {
  ++dup_acks_;
  if (in_recovery_) {
    set_cwnd(cwnd_ + static_cast<double>(mss()));  // window inflation
    return;
  }
  if (dup_acks_ == 3) {
    // RFC 6582 bugfix: dupacks for data sent before the last loss event
    // (e.g. just after an RTO) must not trigger a second window reduction.
    // Still repair the hole, or every residual hole would cost an RTO.
    if (last_acked_ < recover_) {
      retransmit_one(last_acked_);
      return;
    }
    in_recovery_ = true;
    rto_rearmed_in_recovery_ = false;
    recover_ = highest_sent_;
    ++fast_retransmit_events_;
    hooks_->on_fast_retransmit(*this);
    MPCC_TRACE(obs::TraceCategory::kSubflow, obs::TraceEvent::kFastRetransmit,
               trace_src_, net_.now(), cwnd_, static_cast<double>(ssthresh_));
    obs::metrics().counter("tcp.fast_retransmits").inc();
    retransmit_one(last_acked_);
  }
}

void TcpSrc::on_rto() {
  if (completed_ || admin_down_ || inflight() == 0) return;
  ++timeout_events_;
  ++consecutive_timeouts_;
  if (config_.dead_after_timeouts > 0 && !dead_ &&
      consecutive_timeouts_ >= config_.dead_after_timeouts) {
    dead_ = true;
    MPCC_DEBUG << name() << " dead after " << consecutive_timeouts_
               << " consecutive RTOs at " << to_ms(net_.now()) << "ms";
    obs::metrics().counter("tcp.subflow_dead").inc();
    MPCC_PERF_COUNT_AT(perf_ctrs_, flows_dead);
  }
  MPCC_DEBUG << name() << " RTO at " << to_ms(net_.now()) << "ms, cwnd=" << cwnd_;
  MPCC_TRACE(obs::TraceCategory::kSubflow, obs::TraceEvent::kTimeout, trace_src_,
             net_.now(), cwnd_, static_cast<double>(ssthresh_));
  obs::metrics().counter("tcp.timeouts").inc();
  hooks_->on_timeout(*this);
  in_recovery_ = false;
  dup_acks_ = 0;
  recover_ = highest_sent_;  // suppress fast retransmit on stale dupacks
  set_cwnd(static_cast<double>(mss()));
  rto_backoff_ = std::min(rto_backoff_ * 2, 64);
  next_send_ = last_acked_;  // go-back-N
  send_available();
  arm_rto();
}

void TcpSrc::arm_rto() {
  rto_timer_.arm(rtt_.rto() * rto_backoff_);
}

void TcpSrc::check_complete() {
  if (completed_) return;
  // Complete when the provider has no more data and everything sent is acked.
  Bytes len;
  std::int64_t dseq;
  if (inflight() != 0) return;
  if (owned_provider_ != nullptr && provider_ == owned_provider_.get()) {
    if (owned_provider_->unbounded() || owned_provider_->remaining() > 0) return;
  } else {
    // External provider (MPTCP subflow): the connection tracks completion.
    (void)len;
    (void)dseq;
    return;
  }
  completed_ = true;
  completion_time_ = net_.now();
  rto_timer_.cancel();
  if (on_complete_) on_complete_(*this);
}

}  // namespace mpcc
