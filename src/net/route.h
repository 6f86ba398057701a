// Source routing, htsim-style.
//
// A Route is an ordered list of PacketHandlers (queues, pipes, and finally
// an endpoint). Route::inject points the packet's hop cursor at the first
// slot of the route's hop array; each hop calls Route::forward, which hands
// the packet to the slot under the cursor and advances it. The array ends
// in a null sentinel slot, so a packet that runs off the end of its route
// trips an assert in debug builds (and faults on a null handler otherwise)
// instead of reading whatever follows the array.
//
// Routes are owned by the Network and stable while any packet references
// them: in-flight packets hold raw pointers into the hop array itself. The
// one sanctioned mutation after wiring is MptcpConnection::rebind_paths,
// which rewrites a drained rig's routes in place (fleet flow recycling).
// Rewriting may reallocate the array, which invalidates every cursor into
// it: a straggler still in flight over the old path would then read freed
// memory (a use-after-free, not a misroute). Rebinding is legal only because
// a drained rig that has sat out the fleet FlowFactory's rebind cooldown
// (250 ms, far past any fabric RTT) has no packets in flight, so that
// cooldown is load-bearing.
#pragma once

#include <cassert>
#include <vector>

#include "net/packet.h"

namespace mpcc {

/// Anything a packet can be delivered to.
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;
  /// Takes ownership of the packet: the handler forwards it or drops it.
  virtual void receive(Packet pkt) = 0;
};

class Route {
 public:
  Route() : hops_{nullptr} {}
  explicit Route(std::vector<PacketHandler*> hops) : hops_(std::move(hops)) {
    hops_.push_back(nullptr);
  }

  void push_back(PacketHandler* hop) {
    hops_.back() = hop;
    hops_.push_back(nullptr);
  }

  /// Drops all hops so the route can be rebuilt for a new path (capacity is
  /// retained). Only legal when no packet in flight references this route.
  void clear() { hops_.assign(1, nullptr); }

  /// Appends all hops of `tail` (used to splice access + core segments).
  void append(const Route& tail) {
    hops_.pop_back();
    hops_.insert(hops_.end(), tail.hops_.begin(), tail.hops_.end());
  }

  std::size_t size() const { return hops_.size() - 1; }
  bool empty() const { return size() == 0; }
  PacketHandler* hop(std::size_t i) const { return hops_[i]; }

  /// Delivers `pkt` to the hop under its cursor, advancing the cursor. The
  /// packet must still have hops remaining. Takes an rvalue so the advance
  /// happens in the caller's packet — the only copy is into receive().
  static void forward(Packet&& pkt) { deliver(next_hop(pkt), std::move(pkt)); }

  /// forward() in two halves, for a hop that holds packets a while (a pipe):
  /// it reads next_hop() on arrival, while the hop array is still cached from
  /// the forward that brought the packet in, and later deliver()s without
  /// touching the array again.
  static PacketHandler* next_hop(const Packet& pkt) { return *pkt.hop; }
  static void deliver(PacketHandler* next, Packet&& pkt) {
    assert(next != nullptr && "packet ran off the end of its route");
    assert(next == *pkt.hop);
    ++pkt.hop;
    next->receive(std::move(pkt));
  }

  /// Injects `pkt` at the first hop of this route.
  void inject(Packet pkt) const {
    assert(!empty());
    pkt.hop = hops_.data();
    forward(std::move(pkt));
  }

 private:
  std::vector<PacketHandler*> hops_;  ///< the hops, then a null sentinel
};

}  // namespace mpcc
