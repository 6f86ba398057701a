// Topology: a builder that owns a fabric of links inside a Network and can
// enumerate multipath routes between hosts.
//
// All topologies speak the same path currency: PathSpec lists of hops
// (queues + pipes) ready to be handed to MptcpConnection::add_subflow or
// make_tcp_flow. Each PathSpec also carries the inter-switch metadata the
// energy price (Eq. 6) needs.
#pragma once

#include <vector>

#include "mptcp/connection.h"
#include "net/network.h"

namespace mpcc {

class Topology {
 public:
  explicit Topology(Network& net) : net_(net) {}
  virtual ~Topology() = default;
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  virtual std::size_t num_hosts() const = 0;

  /// All simple multipath routes from `src_host` to `dst_host`.
  virtual std::vector<PathSpec> paths(std::size_t src_host, std::size_t dst_host) const = 0;

  /// paths(src_host, dst_host).size(), without materialising the routes
  /// when the topology can count them directly.
  virtual std::size_t path_count(std::size_t src_host, std::size_t dst_host) const {
    return paths(src_host, dst_host).size();
  }

  /// paths(src_host, dst_host)[i] alone, for callers that sample a few of
  /// many routes (fleet path selection).
  virtual PathSpec path(std::size_t src_host, std::size_t dst_host, std::size_t i) const {
    return paths(src_host, dst_host)[i];
  }

  Network& net() { return net_; }
  const Network& net() const { return net_; }

 protected:
  /// Appends both hops of `link` to a hop vector.
  static void add_link(std::vector<PacketHandler*>& hops, const Link& link) {
    hops.push_back(link.queue);
    hops.push_back(link.pipe);
  }

  Network& net_;
};

}  // namespace mpcc
