// Streaming epochs over the block-centric engine.
//
// An *epoch* ingests one timestamped edge batch into the loaded topology
// (VE-BLOCK overlay delta runs + adjacency rewrite + degree patches) and
// reconverges the program by delta propagation instead of a cold batch run:
// the frontier is seeded with only the delta-touched vertices (or the whole
// graph for Always-Active programs, whose superstep-0 sweep re-announces the
// already-converged values), the BSP state rewinds to superstep 0, and the
// ordinary Run() loop does the rest. Every epoch's fixpoint matches a cold
// batch run over the mutated graph — exactly for the monotone traversal
// programs, within the aggregator tolerance band for PageRankDelta.
//
// Per-program reconvergence policy (the EpochPolicy column of the algorithm
// registry, hybridgraph/any_engine.cc):
//   PageRankDelta — warm restart, seed all (rank mass shifts globally, but
//     reconvergence from the previous fixpoint needs few supersteps for
//     small batches — that is the delta-propagation saving).
//   SSSP / BFS / WCC (monotone, min-combinable) — warm restart seeding only
//     the batch's endpoints when the batch is insert-only (improvements can
//     only originate at new edges); a batch with deletes invalidates the
//     monotone argument, so the epoch reinitializes values and recomputes
//     from scratch, still over the mutated (delta-run) stores.
//
// The services below are compiled once, over the driver's per-node state;
// the typed driver contributes only its epoch-start hook and its Run() loop
// (EpochTarget). AnyEngine::RunEpoch is the public entry point.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/engine_setup.h"
#include "core/node_state.h"
#include "core/run_metrics.h"
#include "graph/edge_delta.h"
#include "graph/partition.h"
#include "net/transport.h"
#include "util/status.h"

namespace hybridgraph {

/// CSV header matching EpochMetricsCsvRow (no trailing newline).
std::string EpochMetricsCsvHeader();
/// One CSV row (no trailing newline).
std::string EpochMetricsCsvRow(const EpochMetrics& m);
/// A JSON array of epoch objects (pretty enough for committed baselines).
std::string EpochMetricsJson(const std::vector<EpochMetrics>& all);

/// How an algorithm reconverges after an ingested batch.
enum class EpochPolicy : int {
  kNone = 0,         ///< no streaming support
  kSeedAll,          ///< warm restart, whole graph active (PageRankDelta)
  kMonotoneInserts,  ///< warm + seed endpoints if insert-only, else reinit
};

// ------------------------------------------------------------ epoch services
//
// All of them run on the driver thread between converged runs and use only
// metered store operations, so modeled metrics stay bit-identical across
// thread counts. Each refreshes the part of `census` the next initial-mode
// decision reads.

/// Applies one edge batch to the mutable stores of every owning node: the
/// VE-BLOCK overlay gains delta runs (in-degree metadata routed to the
/// destination owners), adjacency blocks are rewritten, and out-degrees are
/// patched in memory plus refreshed in the touched on-disk Vblock records
/// (pull serves decode the degree from those records). `touched` (optional)
/// receives the batch's endpoint set for frontier seeding; the census gets
/// the new fragment total when VE-BLOCKs are built. `nodes` must be loaded.
Status ApplyEdgeBatch(const EdgeBatch& batch, const RangePartition& partition,
                      std::vector<NodeState>* nodes,
                      std::vector<VertexId>* touched,
                      BlockTopologyCensus* census);

/// Clears every active flag, then activates exactly `touched`.
void SeedEpochActives(const std::vector<VertexId>& touched,
                      const RangePartition& partition,
                      std::vector<NodeState>* nodes,
                      BlockTopologyCensus* census);

/// Activates every vertex: Always-Active programs reconverge from the whole
/// graph on a warm restart (superstep 0 re-announces all values).
void SeedAllActives(std::vector<NodeState>* nodes, BlockTopologyCensus* census);

/// Cold restart inside the loaded engine: rewrites every Vblock to
/// `hooks.init_value` and re-seeds `hooks.init_active` (records are
/// `value_size` bytes). Used when a batch deleted edges and the program is
/// monotone — the converged values are no longer a valid starting point, so
/// the epoch recomputes from scratch (still over the mutated stores).
Status ReinitEpochState(const RangePartition& partition,
                        const BlockTopologyHooks& hooks, size_t value_size,
                        std::vector<NodeState>* nodes,
                        BlockTopologyCensus* census);

/// The per-node part of an epoch start: no leftover messages, flags,
/// accumulators or staged frames. Active flags and values are untouched.
Status ResetEpochNodes(std::vector<NodeState>* nodes);

/// Folds every node's overlay delta runs (>= min_runs per cell) into base
/// blocks.
Status CompactOverlays(std::vector<NodeState>* nodes, uint64_t min_runs);

/// What RunEpoch needs from a loaded block-centric engine: its per-node
/// state and census, the topology build's init callbacks, its meters, and
/// the two calls that stay typed — the driver's epoch-start hook and its
/// Run() loop.
struct EpochTarget {
  const RangePartition* partition = nullptr;
  std::vector<NodeState>* nodes = nullptr;
  BlockTopologyCensus* census = nullptr;
  const BlockTopologyHooks* hooks = nullptr;
  size_t value_size = 0;
  Transport* transport = nullptr;
  const JobStats* stats = nullptr;
  std::function<Status(bool warm)> start_epoch;
  std::function<Status()> run;
};

/// One epoch: ingest `batch`, seed per `policy` (not kNone), rewind,
/// reconverge. Fills `m` (optional) with epoch number `epoch` and the meter
/// deltas.
Status RunEpoch(EpochPolicy policy, const EdgeBatch& batch, uint64_t epoch,
                const EpochTarget& target, EpochMetrics* m);

}  // namespace hybridgraph
