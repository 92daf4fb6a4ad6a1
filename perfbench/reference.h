// Independent reference results and the checks that turn a wrong answer
// into a counted failure. Nothing here calls into the engine: the references
// are plain sequential implementations over the edge list.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/run_metrics.h"
#include "graph/edge_list.h"

namespace perfbench {

/// The vertex with the largest out-degree (lowest id on ties) — the source
/// convention MakeEngine uses when no SSSP source is given.
hybridgraph::VertexId MaxOutDegreeVertex(const hybridgraph::EdgeListGraph& g);

/// Synchronous PageRank as the engine's program defines it: superstep 0
/// broadcasts 1/|V|; each later superstep sets
/// rank = (1 - damping)/|V| + damping * sum(in-neighbour rank / out-degree).
/// `supersteps` counts superstep 0, so it performs supersteps - 1 updates.
std::vector<double> ReferencePageRank(const hybridgraph::EdgeListGraph& g,
                                      int supersteps, double damping);

/// Dijkstra in float arithmetic (the SSSP program's value type). Weights are
/// non-negative, so this reaches the same least fixpoint as BSP relaxation.
std::vector<double> ReferenceSssp(const hybridgraph::EdgeListGraph& g,
                                  hybridgraph::VertexId source);

/// Number of positions where `got` differs from `want`: exactly when
/// `rel_tol` is 0, else by more than rel_tol * max(|want|, 1e-300).
/// A size mismatch counts every position of the longer vector.
uint64_t CountMismatches(const std::vector<double>& got,
                         const std::vector<double>& want, double rel_tol);

/// True when every modeled (deterministic) column of `a` equals `b` exactly,
/// superstep by superstep. Wall-clock columns are ignored. On a mismatch
/// `why` names the first differing column.
bool SameModeledColumns(const hybridgraph::JobStats& a,
                        const hybridgraph::JobStats& b, std::string* why);

}  // namespace perfbench
