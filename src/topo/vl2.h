// VL2 (Greenberg et al., SIGCOMM 2009): a Clos with faster inter-switch
// links than host links.
//
// hosts -- ToR (x2 uplinks) -- Aggregation -- Intermediate (complete
// bipartite Agg<->Int). Defaults give the paper's 128 hosts / 80 switches:
// 32 ToR x 4 hosts, 32 Agg, 16 Int. A host pair in different racks has
// 2 (src aggs) x 16 (ints) x 2 (dst aggs) = 64 equal-cost paths.
#pragma once

#include "topo/topology.h"

namespace mpcc {

struct Vl2Config {
  std::size_t num_tor = 32;
  std::size_t hosts_per_tor = 4;
  std::size_t num_agg = 32;
  std::size_t num_int = 16;
  Rate host_rate = mbps(100);
  Rate switch_rate = gbps(1);  // "faster links between switches"
  SimTime link_delay = 5 * kMillisecond;
  Bytes host_buffer = 150'000;
  Bytes switch_buffer = 450'000;
};

class Vl2 final : public Topology {
 public:
  Vl2(Network& net, Vl2Config config);

  std::size_t num_hosts() const override { return config_.num_tor * config_.hosts_per_tor; }
  std::size_t num_switches() const {
    return config_.num_tor + config_.num_agg + config_.num_int;
  }

  std::vector<PathSpec> paths(std::size_t src_host, std::size_t dst_host) const override;
  std::size_t path_count(std::size_t src_host, std::size_t dst_host) const override;
  PathSpec path(std::size_t src_host, std::size_t dst_host, std::size_t i) const override;

  std::size_t tor_of(std::size_t host) const { return host / config_.hosts_per_tor; }
  /// The two aggregation switches ToR `t` uplinks to.
  std::size_t agg_of(std::size_t tor, std::size_t choice) const {
    return (2 * tor + choice) % config_.num_agg;
  }

  std::vector<const Queue*> inter_switch_queues() const;

  /// Mutable fabric (inter-switch) queues, for drivers that impose state on
  /// them — e.g. the fleet FluidBackgroundDriver's hybrid-fidelity pressure.
  std::vector<Queue*> fabric_queues();

 private:
  Link make_host(const std::string& name) {
    return net_.make_link(name, config_.host_rate, config_.link_delay,
                          config_.host_buffer);
  }
  Link make_switch(const std::string& name) {
    return net_.make_link(name, config_.switch_rate, config_.link_delay,
                          config_.switch_buffer);
  }
  std::size_t ai(std::size_t agg, std::size_t i) const { return agg * config_.num_int + i; }

  Vl2Config config_;
  std::vector<Link> up_ht_, down_th_;  // host <-> ToR, by host
  std::vector<Link> up_ta_, down_at_;  // ToR <-> Agg, by tor*2 + choice
  std::vector<Link> up_ai_, down_ia_;  // Agg <-> Int, by ai(agg, int)
};

}  // namespace mpcc
