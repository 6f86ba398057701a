#include "fleet/flow_factory.h"

#include <cassert>

#include "mptcp/path_manager.h"

namespace mpcc::fleet {

FlowFactory::FlowFactory(Network& net, Topology& topo, const PowerModel& power,
                         FlowFactoryConfig config,
                         std::function<void(Rig&)> on_complete)
    : net_(net),
      topo_(topo),
      power_(power),
      config_(config),
      on_complete_(std::move(on_complete)) {
  assert(config_.subflows >= 1);
  assert(on_complete_ != nullptr);
}

FlowFactory::~FlowFactory() = default;

std::vector<PathSpec> FlowFactory::select_paths(std::size_t src, std::size_t dst,
                                                Rng& rng) {
  // Draw indices exactly as sample_k_with_reuse would over paths(src, dst),
  // then materialise only the picked routes.
  std::vector<PathSpec> picked;
  picked.reserve(static_cast<std::size_t>(config_.subflows));
  for (std::size_t i : PathManager::sample_k_indices_with_reuse(
           topo_.path_count(src, dst), config_.subflows, rng)) {
    picked.push_back(topo_.path(src, dst, i));
  }
  return picked;
}

Rig* FlowFactory::take_same_pair(std::size_t src, std::size_t dst) {
  const auto it = parked_by_pair_.find({src, dst});
  if (it == parked_by_pair_.end()) return nullptr;
  auto& v = it->second;
  while (!v.empty()) {
    Rig* r = v.back();
    v.pop_back();
    // Entries are lazy: the rig may have been taken through the LRU index
    // (and possibly rebound elsewhere) since this entry was pushed.
    if (r->parked && r->src == src && r->dst == dst) return r;
  }
  return nullptr;
}

Rig* FlowFactory::take_rebindable() {
  const SimTime now = net_.now();
  // Bounded scan: the deque is roughly park-order (coldest first), so the
  // eligible rigs cluster at the front; capping the live-entry scan keeps
  // acquire O(1)-ish even when thousands of rigs are parked. A miss just
  // means one extra fresh rig.
  std::size_t live_scanned = 0;
  for (std::size_t i = 0; i < parked_lru_.size();) {
    Rig* r = parked_lru_[i];
    if (!r->parked) {  // stale entry from an earlier park epoch
      parked_lru_.erase(parked_lru_.begin() +
                        static_cast<std::ptrdiff_t>(i));
      continue;
    }
    const bool cooled = now - r->parked_at >= config_.rebind_cooldown;
    if (cooled && r->conn->drained()) {
      parked_lru_.erase(parked_lru_.begin() + static_cast<std::ptrdiff_t>(i));
      return r;
    }
    if (++live_scanned >= 128) break;
    ++i;
  }
  return nullptr;
}

Rig& FlowFactory::acquire(std::size_t src, std::size_t dst,
                          std::uint64_t flow_number, Bytes size, Rng& path_rng) {
  assert(size > 0);
  if (Rig* r = take_same_pair(src, dst)) {
    // Same pair: routes are still right, and because the data-sequence
    // space continues, any straggler from the previous flow is an ordinary
    // duplicate — no cooldown needed.
    r->parked = false;
    r->flow_number = flow_number;
    r->flow_size = size;
    r->meter->start();
    r->energy0 = r->meter->energy_j();
    r->conn->begin_flow(size);
    ++rigs_reused_;
    return *r;
  }
  if (Rig* r = take_rebindable()) {
    r->parked = false;
    r->src = src;
    r->dst = dst;
    r->flow_number = flow_number;
    r->flow_size = size;
    r->conn->rebind_paths(select_paths(src, dst, path_rng));
    r->meter->start();
    r->energy0 = r->meter->energy_j();
    r->conn->begin_flow(size);
    ++rigs_rebound_;
    return *r;
  }

  // No recyclable rig: build a fresh one.
  auto rig = std::make_unique<Rig>();
  Rig* r = rig.get();
  r->src = src;
  r->dst = dst;
  r->flow_number = flow_number;
  r->flow_size = size;

  const std::string name = "fleet:r" + std::to_string(rigs_.size());
  MptcpConfig mc;
  mc.subflow.min_rto = config_.min_rto;
  mc.subflow.dead_after_timeouts = config_.dead_after_timeouts;
  mc.recv_buffer = config_.recv_buffer;
  mc.flow_size = size;
  r->conn = std::make_unique<MptcpConnection>(
      net_, name, mc, make_multipath_cc(config_.cc, config_.price));
  for (const PathSpec& path : select_paths(src, dst, path_rng)) {
    r->conn->add_subflow(path);
  }
  r->conn->set_on_complete([this, r](MptcpConnection&) { on_complete_(*r); });

  r->meter = std::make_unique<harness::HostMeter>(net_, name + ":meter", power_,
                                                  config_.meter_period);
  r->meter->probe().add_connection(r->conn.get());
  r->meter->start();
  r->energy0 = r->meter->energy_j();
  r->conn->start(net_.now());
  rigs_.push_back(std::move(rig));
  ++rigs_created_;
  return *r;
}

void FlowFactory::release(Rig& rig) {
  assert(!rig.parked);
  rig.meter->stop();
  rig.parked = true;
  rig.parked_at = net_.now();
  parked_by_pair_[{rig.src, rig.dst}].push_back(&rig);
  parked_lru_.push_back(&rig);
}

}  // namespace mpcc::fleet
