#include "topo/fat_tree.h"

#include <cassert>

namespace mpcc {

FatTree::FatTree(Network& net, FatTreeConfig config)
    : Topology(net),
      config_(config),
      half_(static_cast<std::size_t>(config.k) / 2),
      hosts_(static_cast<std::size_t>(config.k) * half_ * half_) {
  assert(config_.k >= 2 && config_.k % 2 == 0);
  const std::size_t pods = static_cast<std::size_t>(config_.k);

  up_he_.reserve(hosts_);
  down_eh_.reserve(hosts_);
  for (std::size_t h = 0; h < hosts_; ++h) {
    up_he_.push_back(make("h" + std::to_string(h) + ">e"));
    down_eh_.push_back(make("e>h" + std::to_string(h)));
  }
  up_ea_.reserve(pods * half_ * half_);
  down_ae_.reserve(pods * half_ * half_);
  for (std::size_t p = 0; p < pods; ++p) {
    for (std::size_t e = 0; e < half_; ++e) {
      for (std::size_t a = 0; a < half_; ++a) {
        const std::string tag =
            "p" + std::to_string(p) + "e" + std::to_string(e) + "a" + std::to_string(a);
        up_ea_.push_back(make(tag + ">"));
        down_ae_.push_back(make(tag + "<"));
      }
    }
  }
  up_ac_.reserve(pods * half_ * half_);
  down_ca_.reserve(pods * half_ * half_);
  for (std::size_t p = 0; p < pods; ++p) {
    for (std::size_t a = 0; a < half_; ++a) {
      for (std::size_t j = 0; j < half_; ++j) {
        const std::string tag =
            "p" + std::to_string(p) + "a" + std::to_string(a) + "c" + std::to_string(j);
        up_ac_.push_back(make(tag + ">"));
        down_ca_.push_back(make(tag + "<"));
      }
    }
  }
}

std::vector<PathSpec> FatTree::paths(std::size_t src, std::size_t dst) const {
  const std::size_t n = path_count(src, dst);
  std::vector<PathSpec> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(path(src, dst, i));
  return out;
}

std::size_t FatTree::path_count(std::size_t src, std::size_t dst) const {
  if (src == dst) return 0;
  if (pod_of(src) != pod_of(dst)) return half_ * half_;  // one per core switch
  if (edge_of(src) != edge_of(dst)) return half_;        // one per agg switch
  return 1;                                              // same edge switch
}

PathSpec FatTree::path(std::size_t src, std::size_t dst, std::size_t i) const {
  assert(i < path_count(src, dst));
  const std::size_t ps = pod_of(src);
  const std::size_t pd = pod_of(dst);
  const std::size_t es = edge_of(src);
  const std::size_t ed = edge_of(dst);
  // Host links on both ends plus two (intra-pod) or four (inter-pod)
  // inter-switch links, each a queue and a pipe hop.
  const std::size_t inter = ps != pd ? 4 : es != ed ? 2 : 0;

  PathSpec p;
  p.forward.reserve(2 * (inter + 2));
  p.reverse.reserve(2 * (inter + 2));
  p.inter_switch_hops = static_cast<int>(inter);
  add_link(p.forward, up_he_[src]);
  add_link(p.reverse, up_he_[dst]);

  if (inter == 0) {
    // Same edge switch: one two-hop path, no inter-switch links.
    p.name = "edge";
  } else if (inter == 2) {
    // Intra-pod: path i crosses aggregation switch a = i.
    const std::size_t a = i;
    p.name = "agg" + std::to_string(a);
    add_link(p.forward, up_ea_[eidx(ps, es, a)]);
    add_link(p.forward, down_ae_[eidx(pd, ed, a)]);
    add_link(p.reverse, up_ea_[eidx(pd, ed, a)]);
    add_link(p.reverse, down_ae_[eidx(ps, es, a)]);
    p.queues = {up_ea_[eidx(ps, es, a)].queue, down_ae_[eidx(pd, ed, a)].queue};
  } else {
    // Inter-pod: path i crosses core switch i = a*(k/2) + j.
    const std::size_t a = i / half_;
    const std::size_t j = i % half_;
    p.name = "core" + std::to_string(i);
    add_link(p.forward, up_ea_[eidx(ps, es, a)]);
    add_link(p.forward, up_ac_[aidx(ps, a, j)]);
    add_link(p.forward, down_ca_[aidx(pd, a, j)]);
    add_link(p.forward, down_ae_[eidx(pd, ed, a)]);
    add_link(p.reverse, up_ea_[eidx(pd, ed, a)]);
    add_link(p.reverse, up_ac_[aidx(pd, a, j)]);
    add_link(p.reverse, down_ca_[aidx(ps, a, j)]);
    add_link(p.reverse, down_ae_[eidx(ps, es, a)]);
    p.queues = {up_ea_[eidx(ps, es, a)].queue, up_ac_[aidx(ps, a, j)].queue,
                down_ca_[aidx(pd, a, j)].queue, down_ae_[eidx(pd, ed, a)].queue};
  }
  add_link(p.forward, down_eh_[dst]);
  add_link(p.reverse, down_eh_[src]);
  return p;
}

std::vector<const Queue*> FatTree::inter_switch_queues() const {
  std::vector<const Queue*> queues;
  for (const Link& l : up_ea_) queues.push_back(l.queue);
  for (const Link& l : down_ae_) queues.push_back(l.queue);
  for (const Link& l : up_ac_) queues.push_back(l.queue);
  for (const Link& l : down_ca_) queues.push_back(l.queue);
  return queues;
}

std::vector<Queue*> FatTree::fabric_queues() {
  std::vector<Queue*> queues;
  for (const Link& l : up_ea_) queues.push_back(l.queue);
  for (const Link& l : down_ae_) queues.push_back(l.queue);
  for (const Link& l : up_ac_) queues.push_back(l.queue);
  for (const Link& l : down_ca_) queues.push_back(l.queue);
  return queues;
}

}  // namespace mpcc
