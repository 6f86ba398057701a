// PathManager: policies for which subflows an MPTCP connection opens.
//
// Reproduces the knobs of the paper's kernel experiments: the `fullmesh`
// path manager opens subflows over every available path, and its
// `num_subflows` module parameter (Section III) puts several subflows on
// the *same* path. random_k models path sampling in large fabrics (an
// MPTCP connection in a FatTree uses a handful of the k^2/4 core paths).
#pragma once

#include <vector>

#include "mptcp/connection.h"
#include "util/rng.h"

namespace mpcc {

class PathManager {
 public:
  /// Opens `subflows_per_path` subflows over each path in `paths`.
  static void fullmesh(MptcpConnection& conn, const std::vector<PathSpec>& paths,
                       int subflows_per_path = 1);

  /// Opens one subflow over each of `k` paths sampled without replacement.
  /// If k >= paths.size(), uses every path once.
  static void random_k(MptcpConnection& conn, const std::vector<PathSpec>& paths, int k,
                       Rng& rng);

  /// Like random_k, but when k exceeds the number of distinct paths the
  /// sampling wraps around (several subflows on the same path) — the
  /// kernel's num_subflows semantics used by the datacenter sweeps.
  static void random_k_with_reuse(MptcpConnection& conn,
                                  const std::vector<PathSpec>& paths, int k, Rng& rng);

  /// The path selection behind random_k_with_reuse, exposed as a value so
  /// callers can route it to either add_subflow (fresh connection) or
  /// MptcpConnection::rebind_paths (fleet rig recycling).
  static std::vector<PathSpec> sample_k_with_reuse(const std::vector<PathSpec>& paths,
                                                   int k, Rng& rng);

  /// The indices sample_k_with_reuse picks out of `n` paths, drawing the
  /// same random numbers — for callers that materialise only the picked
  /// paths (Topology::path).
  static std::vector<std::size_t> sample_k_indices_with_reuse(std::size_t n, int k,
                                                              Rng& rng);
};

}  // namespace mpcc
