#include "reference.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

namespace perfbench {

using hybridgraph::EdgeListGraph;
using hybridgraph::JobStats;
using hybridgraph::SuperstepMetrics;
using hybridgraph::VertexId;

VertexId MaxOutDegreeVertex(const EdgeListGraph& g) {
  const auto degrees = g.OutDegrees();
  return static_cast<VertexId>(
      std::max_element(degrees.begin(), degrees.end()) - degrees.begin());
}

std::vector<double> ReferencePageRank(const EdgeListGraph& g, int supersteps,
                                      double damping) {
  const double n = static_cast<double>(g.num_vertices);
  const auto out_degree = g.OutDegrees();
  std::vector<double> rank(g.num_vertices, 1.0 / n);
  std::vector<double> sum(g.num_vertices);
  for (int t = 1; t < supersteps; ++t) {
    std::fill(sum.begin(), sum.end(), 0.0);
    for (const auto& e : g.edges) {
      sum[e.dst] += rank[e.src] / static_cast<double>(out_degree[e.src]);
    }
    for (size_t v = 0; v < rank.size(); ++v) {
      rank[v] = (1.0 - damping) / n + damping * sum[v];
    }
  }
  return rank;
}

std::vector<double> ReferenceSssp(const EdgeListGraph& g, VertexId source) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<uint64_t> offset(g.num_vertices + 1, 0);
  for (const auto& e : g.edges) ++offset[e.src + 1];
  for (size_t v = 0; v < g.num_vertices; ++v) offset[v + 1] += offset[v];
  std::vector<std::pair<VertexId, float>> adj(g.edges.size());
  std::vector<uint64_t> fill(offset.begin(), offset.end() - 1);
  for (const auto& e : g.edges) adj[fill[e.src]++] = {e.dst, e.weight};

  std::vector<float> dist(g.num_vertices, inf);
  using Item = std::pair<float, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[source] = 0.0f;
  heap.push({0.0f, source});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    for (uint64_t i = offset[u]; i < offset[u + 1]; ++i) {
      const float nd = d + adj[i].second;
      if (nd < dist[adj[i].first]) {
        dist[adj[i].first] = nd;
        heap.push({nd, adj[i].first});
      }
    }
  }
  return std::vector<double>(dist.begin(), dist.end());
}

uint64_t CountMismatches(const std::vector<double>& got,
                         const std::vector<double>& want, double rel_tol) {
  uint64_t bad = got.size() > want.size() ? got.size() - want.size()
                                          : want.size() - got.size();
  const size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    if (got[i] == want[i]) continue;  // also equal infinities
    if (rel_tol == 0 || !std::isfinite(got[i]) || !std::isfinite(want[i])) {
      ++bad;
      continue;
    }
    const double scale = std::max(std::fabs(want[i]), 1e-300);
    if (std::fabs(got[i] - want[i]) > rel_tol * scale) ++bad;
  }
  return bad;
}

namespace {

// Every SuperstepMetrics column that the engine derives from metered bytes,
// counters and the cost model (DESIGN.md's determinism guarantee). The
// phase_*_wall_s and prefetch_* columns are measured and excluded.
bool SameSuperstep(const SuperstepMetrics& a, const SuperstepMetrics& b,
                   std::string* why) {
#define PB_COL(field)            \
  if (a.field != b.field) {      \
    *why = #field;               \
    return false;                \
  }
  PB_COL(superstep)
  PB_COL(mode)
  PB_COL(switched)
  PB_COL(active_vertices)
  PB_COL(responding_vertices)
  PB_COL(messages_produced)
  PB_COL(messages_on_wire)
  PB_COL(messages_combined)
  PB_COL(messages_spilled)
  PB_COL(io.vt_bytes)
  PB_COL(io.adj_edge_bytes)
  PB_COL(io.msg_spill_write)
  PB_COL(io.msg_spill_read)
  PB_COL(io.eblock_edge_bytes)
  PB_COL(io.fragment_aux_bytes)
  PB_COL(io.vrr_bytes)
  PB_COL(io.other_bytes)
  PB_COL(net_bytes)
  PB_COL(net_frames)
  PB_COL(cpu_seconds)
  PB_COL(io_seconds)
  PB_COL(net_seconds)
  PB_COL(blocking_seconds)
  PB_COL(superstep_seconds)
  PB_COL(memory_highwater_bytes)
  PB_COL(push_cells)
  PB_COL(pull_cells)
  PB_COL(pull_requests)
  PB_COL(edges_scanned)
  PB_COL(msg_imbalance)
  PB_COL(edge_imbalance)
  PB_COL(spill_merge_buffer_bytes)
  PB_COL(spill_peak_resident)
  PB_COL(spill_combined)
  PB_COL(local_iters)
  PB_COL(barriers_saved)
  PB_COL(local_msg_bytes)
  PB_COL(aggregate)
  PB_COL(q_t)
  PB_COL(predicted_mco)
  PB_COL(predicted_cio_push)
  PB_COL(predicted_cio_bpull)
  PB_COL(actual_mco)
  PB_COL(actual_cio_push)
  PB_COL(actual_cio_bpull)
#undef PB_COL
  return true;
}

}  // namespace

bool SameModeledColumns(const JobStats& a, const JobStats& b,
                        std::string* why) {
  if (a.supersteps.size() != b.supersteps.size()) {
    *why = "superstep count";
    return false;
  }
  for (size_t i = 0; i < a.supersteps.size(); ++i) {
    if (!SameSuperstep(a.supersteps[i], b.supersteps[i], why)) {
      *why = "superstep " + std::to_string(i) + ": " + *why;
      return false;
    }
  }
  if (a.modeled_seconds != b.modeled_seconds) {
    *why = "modeled_seconds";
    return false;
  }
  return true;
}

}  // namespace perfbench
