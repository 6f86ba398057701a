// FlowFactory: recycles MPTCP connection "rigs" for fleet workloads.
//
// A fleet run completes hundreds of thousands of short flows. Building a
// real MptcpConnection per flow would allocate subflows, sinks, routes, a
// meter, and pooled map nodes for each — and, worse, none of it could be
// destroyed while packets referencing the wiring are still in flight. The
// factory instead maintains a pool of *rigs*: a connection with its
// subflows, sinks, routes, and an energy meter, wired between one (src,
// dst) host pair. A completed rig is parked; the next flow between the same
// pair reuses it immediately via MptcpConnection::begin_flow (the sequence
// space continues, so stragglers from the previous flow are harmless
// duplicates). A parked rig can also move to a *different* pair through
// rebind_paths — but only after it has drained and sat idle for a cooldown
// long enough that no packet in the fabric still references its old routes.
//
// Because the connection-level pending maps and the reassembly buffer are
// PoolArena-backed (sim/pool.h) and the rig bodies themselves are reused,
// a million-flow run performs a bounded number of construction-time
// allocations: the steady state is allocation-free, which is what keeps
// the pool hit-rate counters (PerfStats.pool_*) flat across fleet scale.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cc/registry.h"
#include "harness/experiment.h"
#include "mptcp/connection.h"
#include "topo/topology.h"
#include "util/rng.h"

namespace mpcc::fleet {

struct FlowFactoryConfig {
  int subflows = 2;
  std::string cc = "lia";
  core::EnergyPriceConfig price;
  /// Subflow TcpConfig overrides (datacenter flows want a short min RTO).
  SimTime min_rto = 10 * kMillisecond;
  Bytes recv_buffer = 0;  ///< connection receive buffer, 0 = unlimited
  /// Consecutive RTOs before a subflow is declared dead (0 = never).
  /// Chaos campaigns set this so a blackholed flow terminates honestly.
  int dead_after_timeouts = 0;
  /// Idle time before a drained rig may be rebound to a new host pair: must
  /// exceed the worst-case residual life of a packet on the old routes
  /// (path RTT plus queueing).
  SimTime rebind_cooldown = 250 * kMillisecond;
  SimTime meter_period = 10 * kMillisecond;
};

/// One reusable connection rig. Owned by the factory; the pointer stays
/// stable for the factory's lifetime, so callbacks may capture it. Rigs
/// (and the connections they own) are destroyed only with the factory,
/// after the event loop stops — in-fabric packets reference subflow
/// sources and routes, so nothing here may die mid-run.
struct Rig {
  std::unique_ptr<MptcpConnection> conn;
  std::unique_ptr<harness::HostMeter> meter;
  std::size_t src = 0, dst = 0;
  std::uint64_t flow_number = 0;  ///< workload index of the current flow
  Bytes flow_size = 0;            ///< size of the current flow
  double energy0 = 0.0;           ///< meter energy at flow start (joules)
  SimTime parked_at = 0;
  bool parked = false;

  /// Joules attributed to the current flow so far.
  double flow_energy_j() const { return meter->energy_j() - energy0; }
};

class FlowFactory {
 public:
  /// `on_complete` fires when a rig's current flow finishes delivery; the
  /// receiver is expected to record the FCT and release() the rig.
  FlowFactory(Network& net, Topology& topo, const PowerModel& power,
              FlowFactoryConfig config, std::function<void(Rig&)> on_complete);
  ~FlowFactory();

  FlowFactory(const FlowFactory&) = delete;
  FlowFactory& operator=(const FlowFactory&) = delete;

  /// Wires up a rig carrying a `size`-byte flow from `src` to `dst`,
  /// starting transmission now. Reuses a parked same-pair rig when one
  /// exists, else rebinds the coldest eligible parked rig, else builds a
  /// fresh one. `path_rng` drives path sampling (the caller hands in the
  /// flow's substream so selection is per-flow deterministic).
  Rig& acquire(std::size_t src, std::size_t dst, std::uint64_t flow_number,
               Bytes size, Rng& path_rng);

  /// Parks a rig whose flow completed. The rig keeps its wiring; its meter
  /// stops so parked time draws no energy.
  void release(Rig& rig);

  // Recycling effectiveness, surfaced in fleet results.
  std::uint64_t rigs_created() const { return rigs_created_; }
  std::uint64_t rigs_reused() const { return rigs_reused_; }
  std::uint64_t rigs_rebound() const { return rigs_rebound_; }
  std::size_t rig_count() const { return rigs_.size(); }

  /// Visits every rig (active and parked), for end-of-run audits such as
  /// the fleet dead-flow scan.
  void for_each_rig(const std::function<void(const Rig&)>& fn) const {
    for (const auto& rig : rigs_) fn(*rig);
  }

 private:
  Rig* take_same_pair(std::size_t src, std::size_t dst);
  Rig* take_rebindable();
  std::vector<PathSpec> select_paths(std::size_t src, std::size_t dst, Rng& rng);

  Network& net_;
  Topology& topo_;
  const PowerModel& power_;
  FlowFactoryConfig config_;
  std::function<void(Rig&)> on_complete_;

  std::vector<std::unique_ptr<Rig>> rigs_;
  /// Parked rigs by host pair (lazy-cleaned: entries may be stale once a
  /// rig was taken through the other index; `parked` disambiguates).
  std::map<std::pair<std::size_t, std::size_t>, std::vector<Rig*>> parked_by_pair_;
  /// Park-order queue for rebinding, coldest first (same lazy cleaning).
  std::deque<Rig*> parked_lru_;

  std::uint64_t rigs_created_ = 0;
  std::uint64_t rigs_reused_ = 0;
  std::uint64_t rigs_rebound_ = 0;
};

}  // namespace mpcc::fleet
