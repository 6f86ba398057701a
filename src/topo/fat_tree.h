// k-ary FatTree (Al-Fares et al., SIGCOMM 2008).
//
// k pods, each with k/2 edge and k/2 aggregation switches; (k/2)^2 cores;
// k/2 hosts per edge switch. k = 8 gives the paper's 128 hosts and 80
// switches. Inter-pod host pairs have (k/2)^2 equal-cost paths, one per
// core switch; intra-pod pairs have k/2 (one per aggregation switch).
//
// Switches are modelled as their egress ports: every directed link is a
// Queue (egress port buffer) + Pipe (propagation), htsim-style.
#pragma once

#include "topo/topology.h"

namespace mpcc {

struct FatTreeConfig {
  int k = 8;                          // must be even
  Rate link_rate = mbps(100);         // paper: 100 Mbps everywhere
  SimTime link_delay = 5 * kMillisecond;  // paper: 100 ms links (scaled 1/20 for tractable BDP)
  Bytes buffer = 150'000;             // ~100 full segments per port
};

class FatTree final : public Topology {
 public:
  FatTree(Network& net, FatTreeConfig config);

  std::size_t num_hosts() const override { return hosts_; }
  std::size_t num_switches() const {
    const std::size_t half = static_cast<std::size_t>(config_.k) / 2;
    return static_cast<std::size_t>(config_.k) * half * 2 + half * half;
  }

  std::vector<PathSpec> paths(std::size_t src_host, std::size_t dst_host) const override;
  std::size_t path_count(std::size_t src_host, std::size_t dst_host) const override;
  PathSpec path(std::size_t src_host, std::size_t dst_host, std::size_t i) const override;

  int k() const { return config_.k; }
  std::size_t pod_of(std::size_t host) const { return host / (half_ * half_); }
  std::size_t edge_of(std::size_t host) const { return (host / half_) % half_; }

  /// Every inter-switch queue (edge-agg and agg-core, both directions) —
  /// the L' set for fabric-wide energy accounting.
  std::vector<const Queue*> inter_switch_queues() const;

  /// Mutable fabric (inter-switch) queues, for drivers that impose state on
  /// them — e.g. the fleet FluidBackgroundDriver's hybrid-fidelity pressure.
  std::vector<Queue*> fabric_queues();

 private:
  Link make(const std::string& name) {
    return net_.make_link(name, config_.link_rate, config_.link_delay, config_.buffer);
  }
  std::size_t eidx(std::size_t pod, std::size_t e, std::size_t a) const {
    return (pod * half_ + e) * half_ + a;
  }
  std::size_t aidx(std::size_t pod, std::size_t a, std::size_t j) const {
    return (pod * half_ + a) * half_ + j;
  }

  FatTreeConfig config_;
  std::size_t half_;   // k/2
  std::size_t hosts_;  // k^3/4

  std::vector<Link> up_he_, down_eh_;  // host <-> edge, indexed by host
  std::vector<Link> up_ea_, down_ae_;  // edge <-> agg, indexed by eidx
  std::vector<Link> up_ac_, down_ca_;  // agg <-> core, indexed by aidx
};

}  // namespace mpcc
