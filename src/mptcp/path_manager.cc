#include "mptcp/path_manager.h"

#include <numeric>

namespace mpcc {

void PathManager::fullmesh(MptcpConnection& conn, const std::vector<PathSpec>& paths,
                           int subflows_per_path) {
  for (const PathSpec& path : paths) {
    for (int i = 0; i < subflows_per_path; ++i) conn.add_subflow(path);
  }
}

void PathManager::random_k(MptcpConnection& conn, const std::vector<PathSpec>& paths,
                           int k, Rng& rng) {
  std::vector<std::size_t> order(paths.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  const std::size_t n = std::min<std::size_t>(static_cast<std::size_t>(k), paths.size());
  for (std::size_t i = 0; i < n; ++i) conn.add_subflow(paths[order[i]]);
}

void PathManager::random_k_with_reuse(MptcpConnection& conn,
                                      const std::vector<PathSpec>& paths, int k,
                                      Rng& rng) {
  for (const PathSpec& path : sample_k_with_reuse(paths, k, rng)) {
    conn.add_subflow(path);
  }
}

std::vector<PathSpec> PathManager::sample_k_with_reuse(
    const std::vector<PathSpec>& paths, int k, Rng& rng) {
  std::vector<PathSpec> picked;
  picked.reserve(static_cast<std::size_t>(k));
  for (std::size_t i : sample_k_indices_with_reuse(paths.size(), k, rng)) {
    picked.push_back(paths[i]);
  }
  return picked;
}

std::vector<std::size_t> PathManager::sample_k_indices_with_reuse(std::size_t n, int k,
                                                                  Rng& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  // With k > n the picks wrap around the shuffled order.
  std::vector<std::size_t> picked(static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < picked.size(); ++i) picked[i] = order[i % n];
  return picked;
}

}  // namespace mpcc
