#include "analytics/clustering.h"

#include <algorithm>

#include "common/parallel.h"

namespace edgeshed::analytics {

namespace {

/// Size of the intersection of two sorted neighbor lists.
uint64_t SortedIntersectionSize(std::span<const graph::NodeId> a,
                                std::span<const graph::NodeId> b) {
  uint64_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

}  // namespace

std::vector<uint64_t> TrianglesPerNode(const graph::Graph& g, int threads) {
  std::vector<uint64_t> triangles(g.NumNodes(), 0);
  ParallelForEach(
      0, g.NumNodes(),
      [&](uint64_t u_index) {
        auto u = static_cast<graph::NodeId>(u_index);
        auto neighbors = g.Neighbors(u);
        uint64_t twice_triangles = 0;
        for (graph::NodeId v : neighbors) {
          // Common neighbors of u and v close a triangle; each triangle at u
          // is found twice (once per incident edge direction).
          twice_triangles += SortedIntersectionSize(neighbors, g.Neighbors(v));
        }
        triangles[u_index] = twice_triangles / 2;
      },
      threads);
  return triangles;
}

std::vector<double> LocalClusteringCoefficients(const graph::Graph& g,
                                                int threads) {
  std::vector<uint64_t> triangles = TrianglesPerNode(g, threads);
  std::vector<double> coefficients(g.NumNodes(), 0.0);
  for (graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    uint64_t degree = g.Degree(u);
    if (degree < 2) continue;
    double possible = static_cast<double>(degree) *
                      static_cast<double>(degree - 1) / 2.0;
    coefficients[u] = static_cast<double>(triangles[u]) / possible;
  }
  return coefficients;
}

double AverageClusteringCoefficient(const graph::Graph& g, int threads) {
  if (g.NumNodes() == 0) return 0.0;
  std::vector<double> coefficients = LocalClusteringCoefficients(g, threads);
  double sum = 0.0;
  for (double c : coefficients) sum += c;
  return sum / static_cast<double>(g.NumNodes());
}

std::map<uint64_t, double> ClusteringByDegree(const graph::Graph& g,
                                              int threads) {
  std::vector<double> coefficients = LocalClusteringCoefficients(g, threads);
  std::map<uint64_t, std::pair<double, uint64_t>> sums;  // degree -> (sum, n)
  for (graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    auto& [sum, count] = sums[g.Degree(u)];
    sum += coefficients[u];
    ++count;
  }
  std::map<uint64_t, double> means;
  for (const auto& [degree, entry] : sums) {
    means[degree] = entry.first / static_cast<double>(entry.second);
  }
  return means;
}

}  // namespace edgeshed::analytics
