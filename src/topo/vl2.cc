#include "topo/vl2.h"

#include <cassert>

namespace mpcc {

Vl2::Vl2(Network& net, Vl2Config config) : Topology(net), config_(config) {
  const std::size_t hosts = num_hosts();
  for (std::size_t h = 0; h < hosts; ++h) {
    up_ht_.push_back(make_host("h" + std::to_string(h) + ">t"));
    down_th_.push_back(make_host("t>h" + std::to_string(h)));
  }
  for (std::size_t t = 0; t < config_.num_tor; ++t) {
    for (std::size_t c = 0; c < 2; ++c) {
      const std::string tag = "t" + std::to_string(t) + "a" + std::to_string(c);
      up_ta_.push_back(make_switch(tag + ">"));
      down_at_.push_back(make_switch(tag + "<"));
    }
  }
  for (std::size_t a = 0; a < config_.num_agg; ++a) {
    for (std::size_t i = 0; i < config_.num_int; ++i) {
      const std::string tag = "a" + std::to_string(a) + "i" + std::to_string(i);
      up_ai_.push_back(make_switch(tag + ">"));
      down_ia_.push_back(make_switch(tag + "<"));
    }
  }
}

std::vector<PathSpec> Vl2::paths(std::size_t src, std::size_t dst) const {
  const std::size_t n = path_count(src, dst);
  std::vector<PathSpec> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(path(src, dst, i));
  return out;
}

std::size_t Vl2::path_count(std::size_t src, std::size_t dst) const {
  if (src == dst) return 0;
  if (tor_of(src) == tor_of(dst)) return 1;  // through the shared ToR
  return 2 * 2 * config_.num_int;            // src agg x dst agg x int
}

PathSpec Vl2::path(std::size_t src, std::size_t dst, std::size_t i) const {
  assert(i < path_count(src, dst));
  const std::size_t ts = tor_of(src);
  const std::size_t td = tor_of(dst);
  PathSpec p;
  if (ts == td) {
    p.name = "tor";
    add_link(p.forward, up_ht_[src]);
    add_link(p.forward, down_th_[dst]);
    add_link(p.reverse, up_ht_[dst]);
    add_link(p.reverse, down_th_[src]);
    return p;
  }

  // Path i = (cs * 2 + cd) * num_int + int: src agg choice cs, dst agg
  // choice cd, intermediate switch int.
  const std::size_t cs = i / (2 * config_.num_int);
  const std::size_t cd = (i / config_.num_int) % 2;
  const std::size_t in = i % config_.num_int;
  const std::size_t as = agg_of(ts, cs);
  const std::size_t ad = agg_of(td, cd);
  p.name = "a" + std::to_string(as) + "i" + std::to_string(in) + "a" + std::to_string(ad);
  p.forward.reserve(12);
  p.reverse.reserve(12);
  add_link(p.forward, up_ht_[src]);
  add_link(p.forward, up_ta_[ts * 2 + cs]);
  add_link(p.forward, up_ai_[ai(as, in)]);
  add_link(p.forward, down_ia_[ai(ad, in)]);
  add_link(p.forward, down_at_[td * 2 + cd]);
  add_link(p.forward, down_th_[dst]);
  add_link(p.reverse, up_ht_[dst]);
  add_link(p.reverse, up_ta_[td * 2 + cd]);
  add_link(p.reverse, up_ai_[ai(ad, in)]);
  add_link(p.reverse, down_ia_[ai(as, in)]);
  add_link(p.reverse, down_at_[ts * 2 + cs]);
  add_link(p.reverse, down_th_[src]);
  p.inter_switch_hops = 4;
  p.queues = {up_ta_[ts * 2 + cs].queue, up_ai_[ai(as, in)].queue,
              down_ia_[ai(ad, in)].queue, down_at_[td * 2 + cd].queue};
  return p;
}

std::vector<const Queue*> Vl2::inter_switch_queues() const {
  std::vector<const Queue*> queues;
  for (const Link& l : up_ta_) queues.push_back(l.queue);
  for (const Link& l : down_at_) queues.push_back(l.queue);
  for (const Link& l : up_ai_) queues.push_back(l.queue);
  for (const Link& l : down_ia_) queues.push_back(l.queue);
  return queues;
}

std::vector<Queue*> Vl2::fabric_queues() {
  std::vector<Queue*> queues;
  for (const Link& l : up_ta_) queues.push_back(l.queue);
  for (const Link& l : down_at_) queues.push_back(l.queue);
  for (const Link& l : up_ai_) queues.push_back(l.queue);
  for (const Link& l : down_ia_) queues.push_back(l.queue);
  return queues;
}

}  // namespace mpcc
