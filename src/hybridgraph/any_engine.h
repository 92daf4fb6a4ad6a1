// Type-erased engine runner: one object that fronts Engine<P> in any of the
// seven modes for every built-in algorithm, so drivers, benches, examples
// and the query server never branch on (algorithm x mode) template
// combinations themselves. Algorithms with an epoch policy also run
// streaming epochs (RunEpoch) under the streamable modes.
//
//   JobConfig cfg;
//   cfg.mode = EngineMode::kHybrid;
//   AlgoSpec spec;
//   spec.kind = AlgoKind::kSssp;        // source defaults to max out-degree
//   HG_ASSIGN_OR_RETURN(auto engine, MakeEngine(cfg, spec));
//   HG_RETURN_IF_ERROR(engine->Load(graph));
//   HG_RETURN_IF_ERROR(engine->Run());
//   auto distances = engine->GatherValuesAsDouble();
//   const JobStats& stats = engine->stats();
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/job_config.h"
#include "core/run_metrics.h"
#include "graph/edge_delta.h"
#include "graph/edge_list.h"
#include "util/status.h"

namespace hybridgraph {

/// The built-in vertex programs selectable by name.
enum class AlgoKind : int {
  kPageRank = 0,
  kPageRankDelta = 1,
  kSssp = 2,
  kBfs = 3,
  kLpa = 4,
  kSa = 5,
  kWcc = 6,
};

const char* AlgoKindName(AlgoKind kind);

/// Maps "pagerank", "pagerank-delta", "sssp", "bfs", "lpa", "sa", "wcc"
/// (the hg_run --algo vocabulary) to an AlgoKind.
Result<AlgoKind> ParseAlgoKind(const std::string& name);

/// Algorithm selection plus the per-program knobs the drivers expose.
struct AlgoSpec {
  AlgoKind kind = AlgoKind::kPageRank;

  /// SSSP/BFS source. When source_set is false the engine picks the vertex
  /// with the largest out-degree at Load() time (the traversal then covers
  /// the graph even on scale models with many zero-out-degree vertices).
  VertexId source = 0;
  bool source_set = false;

  /// SA: every source_stride-th vertex seeds one ad (0 keeps the program
  /// default).
  uint32_t sa_source_stride = 0;

  /// PageRankDelta: halt once the global L1 rank delta falls below this
  /// (0 keeps the program default).
  double tolerance = 0;
};

/// Runtime interface over a loaded engine of any mode and algorithm. The
/// concrete object owns one Engine<P>.
class AnyEngine {
 public:
  virtual ~AnyEngine() = default;

  virtual Status Load(const EdgeListGraph& graph) = 0;
  virtual Status Run() = 0;
  virtual Status RunSuperstep() = 0;

  virtual bool converged() const = 0;
  virtual const JobStats& stats() const = 0;

  /// Bytes per vertex value record in GatherValuesRaw().
  virtual size_t value_size() const = 0;
  /// All vertex values, indexed by vertex id, as packed value_size() records
  /// (the program's PodCodec encoding).
  virtual Result<std::vector<uint8_t>> GatherValuesRaw() = 0;
  /// All vertex values projected to double: rank for PageRank variants,
  /// distance/depth for SSSP/BFS, label for LPA/WCC, and the number of
  /// adopted ads (popcount) for SA.
  virtual Result<std::vector<double>> GatherValuesAsDouble() = 0;

  // Streaming epochs (core/epoch_driver.h), after the cold Run(). Fail
  // unless CheckStreaming(config.mode, kind) passes.

  /// Ingests `batch` and reconverges; fills `m` (optional).
  virtual Status RunEpoch(const EdgeBatch& batch, EpochMetrics* m) = 0;
  /// Folds overlay delta runs (>= min_runs per cell) into base blocks.
  virtual Status CompactAll(uint64_t min_runs) = 0;
  /// Epochs run so far (the cold Run() not counted).
  virtual uint64_t epochs_run() const = 0;
};

/// OK when `kind` runs streaming epochs under `mode`: its registry row
/// carries an epoch policy and the mode table marks the mode streamable.
Status CheckStreaming(EngineMode mode, AlgoKind kind);

/// Builds the engine for (config.mode, spec.kind). Validation beyond
/// JobConfig::Validate() happens inside Load() as usual; mode/algorithm
/// pairing errors (pushM with a non-combinable program) surface there.
Result<std::unique_ptr<AnyEngine>> MakeEngine(const JobConfig& config,
                                              const AlgoSpec& spec);

inline Result<std::unique_ptr<AnyEngine>> MakeEngine(const JobConfig& config,
                                                     AlgoKind kind) {
  AlgoSpec spec;
  spec.kind = kind;
  return MakeEngine(config, spec);
}

// Streaming adapter, kept because perfbench/ uses these names: MakeEngine
// plus CheckStreaming, with `source` always applied and a 1e-9 tolerance.
using AnyEpochEngine = AnyEngine;

struct EpochAlgoSpec {
  std::string name = "pagerank-delta";  ///< pagerank-delta | sssp | bfs | wcc
  VertexId source = 0;                  ///< sssp / bfs; always applied
  double tolerance = 1e-9;              ///< pagerank-delta halt tolerance
};

Result<std::unique_ptr<AnyEngine>> MakeEpochEngine(const JobConfig& config,
                                                   const EpochAlgoSpec& spec);

}  // namespace hybridgraph
