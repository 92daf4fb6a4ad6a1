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
// Per-program reconvergence policy:
//   PageRankDelta — warm restart, seed all (rank mass shifts globally, but
//     reconvergence from the previous fixpoint needs few supersteps for
//     small batches — that is the delta-propagation saving).
//   SSSP / BFS / WCC (monotone, min-combinable) — warm restart seeding only
//     the batch's endpoints when the batch is insert-only (improvements can
//     only originate at new edges); a batch with deletes invalidates the
//     monotone argument, so the epoch reinitializes values and recomputes
//     from scratch, still over the mutated (delta-run) stores.
//
// EpochEngine<P> wires the policy over Engine<P>; AnyEpochEngine is the
// type-erased surface the query server (serve/) and tools drive, created by
// MakeEpochEngine from an algorithm name.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/job_config.h"
#include "core/run_metrics.h"
#include "graph/edge_delta.h"
#include "graph/edge_list.h"
#include "util/status.h"

namespace hybridgraph {

/// CSV header matching EpochMetricsCsvRow (no trailing newline).
std::string EpochMetricsCsvHeader();
/// One CSV row (no trailing newline).
std::string EpochMetricsCsvRow(const EpochMetrics& m);
/// A JSON array of epoch objects (pretty enough for committed baselines).
std::string EpochMetricsJson(const std::vector<EpochMetrics>& all);

/// \brief Type-erased epoch engine: Load + cold initial run, then one
/// RunEpoch per batch. Values surface as double for the query layer.
class AnyEpochEngine {
 public:
  virtual ~AnyEpochEngine() = default;

  virtual Status Load(const EdgeListGraph& graph) = 0;
  /// The cold initial convergence (epoch -1, before any batch).
  virtual Status RunInitial() = 0;
  /// Ingests `batch` and reconverges; fills `m` (optional).
  virtual Status RunEpoch(const EdgeBatch& batch, EpochMetrics* m) = 0;
  /// All vertex values after the last convergence, widened to double.
  virtual Result<std::vector<double>> Values() = 0;
  /// Folds overlay delta runs (>= min_runs per cell) into base blocks.
  virtual Status CompactAll(uint64_t min_runs) = 0;

  virtual const JobStats& stats() const = 0;
  virtual uint64_t num_vertices() const = 0;
  virtual bool converged() const = 0;
  /// Epochs run so far (RunInitial not counted).
  virtual uint64_t epochs_run() const = 0;
};

/// \brief Algorithm selector for MakeEpochEngine.
struct EpochAlgoSpec {
  std::string name = "pagerank-delta";  ///< pagerank-delta | sssp | bfs | wcc
  VertexId source = 0;                  ///< sssp / bfs
  double tolerance = 1e-9;              ///< pagerank-delta halt tolerance
  double damping = 0.85;                ///< pagerank-delta
};

/// Builds the epoch engine for `spec` over `config`. Streaming requires the
/// block-centric engine: config.mode must be push, pushM, b-pull or hybrid.
Result<std::unique_ptr<AnyEpochEngine>> MakeEpochEngine(const JobConfig& config,
                                                        const EpochAlgoSpec& spec);

/// \brief The policy wrapper: Engine<P> + per-program epoch policy.
template <typename P>
class EpochEngine : public AnyEpochEngine {
 public:
  /// How an epoch reconverges after ingest.
  enum class Policy {
    kSeedAll,          ///< warm restart, whole graph active (PageRankDelta)
    kMonotoneInserts,  ///< warm + seed endpoints if insert-only, else reinit
  };

  EpochEngine(JobConfig config, P program, Policy policy)
      : engine_(std::move(config), std::move(program)), policy_(policy) {}

  Status Load(const EdgeListGraph& graph) override {
    return engine_.Load(graph);
  }

  Status RunInitial() override { return engine_.Run(); }

  Status RunEpoch(const EdgeBatch& batch, EpochMetrics* m) override {
    auto& drv = engine_.driver();
    // Snapshot the modeled meters so the epoch reports deltas.
    uint64_t read0 = 0, write0 = 0;
    for (auto& node : drv.nodes()) {
      read0 += node.storage->meter()->ReadBytes();
      write0 += node.storage->meter()->WriteBytes();
    }
    const uint64_t net0 = drv.transport().TotalBytesSent();
    const double modeled0 = drv.stats().modeled_seconds;
    const size_t supersteps0 = drv.stats().supersteps.size();

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<VertexId> touched;
    HG_RETURN_IF_ERROR(drv.ApplyEdgeBatch(batch, &touched));
    const auto t1 = std::chrono::steady_clock::now();

    bool warm = true;
    if (policy_ == Policy::kSeedAll) {
      drv.SeedAllActives();
    } else if (!batch.HasDeletes()) {
      // Insert-only: every possible improvement originates at a new edge's
      // source, which re-announces its converged value at superstep 0.
      drv.SeedEpochActives(touched);
    } else {
      warm = false;
      HG_RETURN_IF_ERROR(drv.ReinitEpochState());
    }
    HG_RETURN_IF_ERROR(drv.StartEpoch(warm));
    HG_RETURN_IF_ERROR(engine_.Run());
    const auto t2 = std::chrono::steady_clock::now();

    if (m != nullptr) {
      m->epoch = epochs_run_;
      m->timestamp = batch.timestamp;
      m->batch_deltas = batch.deltas.size();
      m->inserts = batch.NumInserts();
      m->deletes = batch.NumDeletes();
      m->touched_vertices = touched.size();
      m->warm = warm;
      m->supersteps = drv.stats().supersteps.size() - supersteps0;
      m->ingest_wall_s = std::chrono::duration<double>(t1 - t0).count();
      m->converge_wall_s = std::chrono::duration<double>(t2 - t1).count();
      m->modeled_seconds = drv.stats().modeled_seconds - modeled0;
      uint64_t read1 = 0, write1 = 0, runs = 0, run_bytes = 0;
      for (auto& node : drv.nodes()) {
        read1 += node.storage->meter()->ReadBytes();
        write1 += node.storage->meter()->WriteBytes();
        if (node.ve != nullptr) {
          runs += node.ve->DeltaRunCount();
          run_bytes += node.ve->DeltaBytes();
        }
      }
      m->read_bytes = read1 - read0;
      m->write_bytes = write1 - write0;
      m->net_bytes = drv.transport().TotalBytesSent() - net0;
      m->delta_runs = runs;
      m->delta_bytes = run_bytes;
    }
    ++epochs_run_;
    return Status::OK();
  }

  Result<std::vector<double>> Values() override {
    auto values = engine_.GatherValues();
    if (!values.ok()) return values.status();
    std::vector<double> out(values->size());
    for (size_t i = 0; i < values->size(); ++i) {
      out[i] = static_cast<double>((*values)[i]);
    }
    return out;
  }

  Status CompactAll(uint64_t min_runs) override {
    for (auto& node : engine_.driver().nodes()) {
      if (node.ve != nullptr) {
        HG_RETURN_IF_ERROR(node.ve->CompactAll(min_runs));
      }
    }
    return Status::OK();
  }

  const JobStats& stats() const override { return engine_.stats(); }
  uint64_t num_vertices() const override {
    return engine_.partition().num_vertices();
  }
  bool converged() const override { return engine_.converged(); }
  uint64_t epochs_run() const override { return epochs_run_; }

  Engine<P>& engine() { return engine_; }

 private:
  Engine<P> engine_;
  Policy policy_;
  uint64_t epochs_run_ = 0;
};

}  // namespace hybridgraph
