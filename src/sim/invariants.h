// Always-on simulation invariants.
//
// The fluid model behind the reproduction rests on invariants the paper
// states but a simulator can silently violate: monotone simulated time,
// byte conservation through queues and pipes, non-negative power in Eq. 2,
// and Condition 1 (beta_h = 1/2, phi_h = 0 on the best path). Plain
// assert() vanishes under NDEBUG, so Release sweeps could produce garbage
// without a whisper. The MPCC_CHECK* macros below stay live in every build
// type and throw InvariantViolation, which the harness RunGuard
// (harness/guard.h) catches and turns into a structured per-run failure
// instead of aborting the whole sweep.
//
// Cost model: a predicted-true branch per check site. The failure payload
// (an ostringstream) is only materialised on the failing path. For A/B
// overhead measurements (docs/ROBUSTNESS.md) checks can be disabled
// process-wide with set_invariants_enabled(false) or the environment
// variable MPCC_NO_INVARIANTS=1; this is a benchmarking aid, not a
// supported production mode.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

#include "util/units.h"

namespace mpcc {

/// Thrown by MPCC_CHECK / MPCC_CHECK_INVARIANT. `domain` names the
/// subsystem + invariant (e.g. "net.queue.conservation"); `sim_time` is the
/// simulated time of failure, -1 when no SimContext scope was active.
class InvariantViolation : public std::runtime_error {
 public:
  InvariantViolation(std::string domain, SimTime sim_time, const std::string& what)
      : std::runtime_error(what), domain_(std::move(domain)), sim_time_(sim_time) {}

  const std::string& domain() const { return domain_; }
  SimTime sim_time() const { return sim_time_; }

 private:
  std::string domain_;
  SimTime sim_time_;
};

/// Thrown by the EventList watchdog (wall-clock deadline or event budget
/// exceeded). Cooperative: raised between event dispatches, so stack
/// unwinding runs normal component teardown and worker threads are never
/// leaked.
class RunTimeout : public std::runtime_error {
 public:
  RunTimeout(SimTime sim_time, const std::string& what)
      : std::runtime_error(what), sim_time_(sim_time) {}

  SimTime sim_time() const { return sim_time_; }

 private:
  SimTime sim_time_;
};

/// Process-wide kill switch, default on. Reads MPCC_NO_INVARIANTS=1 from
/// the environment once at first query. Not thread-synchronised beyond a
/// plain bool: flip it before spawning sweep workers.
bool invariants_enabled();
void set_invariants_enabled(bool enabled);

/// Builds and throws InvariantViolation for a failed check. `expr` is the
/// stringified condition; `detail` may be empty. Simulated time is taken
/// from the active SimContext scope when there is one.
[[noreturn]] void invariant_failed(const char* domain, const char* expr,
                                   const std::string& detail);

/// Simulated time of the calling thread's active SimContext scope, or `fallback`
/// when none is active (legacy one-run-per-process Network owns its context
/// without installing a scope).
SimTime current_sim_time_or(SimTime fallback);

}  // namespace mpcc

/// Checks `cond` in every build type; throws mpcc::InvariantViolation
/// tagged with `domain` on failure.
#define MPCC_CHECK(cond, domain)                                      \
  do {                                                                \
    if (!(cond) && ::mpcc::invariants_enabled()) [[unlikely]] {       \
      ::mpcc::invariant_failed((domain), #cond, std::string());       \
    }                                                                 \
  } while (0)

/// Like MPCC_CHECK but appends a streamed detail payload, evaluated only
/// on the failing path: MPCC_CHECK_INVARIANT(x >= 0, "net.queue",
/// "queued=" << x).
#define MPCC_CHECK_INVARIANT(cond, domain, detail)                    \
  do {                                                                \
    if (!(cond) && ::mpcc::invariants_enabled()) [[unlikely]] {       \
      std::ostringstream mpcc_chk_os_;                                \
      mpcc_chk_os_ << detail;                                         \
      ::mpcc::invariant_failed((domain), #cond, mpcc_chk_os_.str());  \
    }                                                                 \
  } while (0)
