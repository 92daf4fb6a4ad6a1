// Differential tests for streaming epochs: after every ingested batch the
// epoch engine's fixpoint must match a cold batch run over the mutated
// graph — exactly for the monotone traversal programs (SSSP/BFS/WCC), and
// within 1e-12 for PageRankDelta when both sides converge at a tight
// tolerance. Modeled metrics must be bit-identical across thread counts.
// Engines come from MakeEngine; the guard rails also cover the
// MakeEpochEngine adapter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "graph/edge_delta.h"
#include "graph/generator.h"
#include "hybridgraph/any_engine.h"

namespace hybridgraph {
namespace {

EdgeListGraph TestGraph(uint64_t n = 400, uint64_t seed = 77) {
  return GeneratePowerLaw(n, 6.0, 0.75, seed);
}

JobConfig Base(EngineMode mode, uint32_t threads = 1) {
  JobConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 2;
  cfg.num_threads = threads;
  cfg.msg_buffer_per_node = 200;
  cfg.max_supersteps = 100;
  return cfg;
}

/// A streaming algorithm by name, sourced at vertex 0; `tolerance` is the
/// pagerank-delta halt tolerance (0 = program default).
AlgoSpec Algo(const char* name, double tolerance = 0) {
  AlgoSpec spec;
  spec.kind = ParseAlgoKind(name).ValueOrDie();
  spec.source_set = true;
  spec.tolerance = tolerance;
  return spec;
}

std::vector<EdgeBatch> Stream(const EdgeListGraph& g, uint32_t batches,
                              uint32_t size, double deletes, uint64_t seed) {
  EdgeStreamOptions so;
  so.num_batches = batches;
  so.batch_size = size;
  so.delete_fraction = deletes;
  so.seed = seed;
  return GenerateEdgeStream(g, so);
}

/// Cold oracle: a fresh engine over the mutated graph, converged from
/// InitValue state — what each epoch's fixpoint must reproduce.
std::vector<double> ColdValues(const JobConfig& cfg, const AlgoSpec& spec,
                               const EdgeListGraph& graph) {
  auto engine = MakeEngine(cfg, spec).ValueOrDie();
  EXPECT_TRUE(engine->Load(graph).ok());
  EXPECT_TRUE(engine->Run().ok());
  return engine->GatherValuesAsDouble().ValueOrDie();
}

/// Runs `stream` through one epoch engine, comparing values to the cold
/// oracle after every epoch. `tol` = 0 demands exact equality.
void RunDifferential(const JobConfig& cfg, const AlgoSpec& spec,
                     EdgeListGraph graph, const std::vector<EdgeBatch>& stream,
                     double tol, std::vector<EpochMetrics>* metrics = nullptr) {
  const char* name = AlgoKindName(spec.kind);
  auto epoch_engine = MakeEngine(cfg, spec).ValueOrDie();
  ASSERT_TRUE(epoch_engine->Load(graph).ok());
  ASSERT_TRUE(epoch_engine->Run().ok());
  for (size_t i = 0; i < stream.size(); ++i) {
    EpochMetrics m;
    ASSERT_TRUE(epoch_engine->RunEpoch(stream[i], &m).ok())
        << name << " epoch " << i;
    EXPECT_TRUE(epoch_engine->converged());
    if (metrics != nullptr) metrics->push_back(m);

    ApplyBatchToGraph(&graph, stream[i]);
    const std::vector<double> got =
        epoch_engine->GatherValuesAsDouble().ValueOrDie();
    const std::vector<double> want = ColdValues(cfg, spec, graph);
    ASSERT_EQ(got.size(), want.size());
    for (size_t v = 0; v < got.size(); ++v) {
      if (tol == 0.0) {
        ASSERT_EQ(got[v], want[v]) << name << " epoch " << i << " vertex " << v;
      } else {
        ASSERT_NEAR(got[v], want[v], tol)
            << name << " epoch " << i << " vertex " << v;
      }
    }
  }
}

// ------------------------------------------------------------ monotone exact

TEST(EpochDifferential, SsspInsertOnlyWarmEpochsExact) {
  EdgeListGraph g = TestGraph();
  const AlgoSpec spec = Algo("sssp");
  auto stream = Stream(g, 3, 40, 0.0, 901);
  std::vector<EpochMetrics> metrics;
  RunDifferential(Base(EngineMode::kHybrid), spec, g, stream, 0.0, &metrics);
  for (const auto& m : metrics) EXPECT_TRUE(m.warm);
}

TEST(EpochDifferential, SsspDeleteBatchesReinitExact) {
  EdgeListGraph g = TestGraph();
  const AlgoSpec spec = Algo("sssp");
  auto stream = Stream(g, 3, 40, 0.5, 902);
  std::vector<EpochMetrics> metrics;
  RunDifferential(Base(EngineMode::kHybrid), spec, g, stream, 0.0, &metrics);
  bool any_cold = false;
  for (const auto& m : metrics) any_cold |= !m.warm;
  EXPECT_TRUE(any_cold);  // delete batches must take the reinit path
}

TEST(EpochDifferential, BfsEpochsExact) {
  EdgeListGraph g = TestGraph(400, 78);
  const AlgoSpec spec = Algo("bfs");
  RunDifferential(Base(EngineMode::kHybrid), spec, g,
                  Stream(g, 2, 40, 0.0, 903), 0.0);
  RunDifferential(Base(EngineMode::kHybrid), spec, g,
                  Stream(g, 2, 40, 0.5, 904), 0.0);
}

TEST(EpochDifferential, WccEpochsExact) {
  EdgeListGraph g = TestGraph(400, 79);
  const AlgoSpec spec = Algo("wcc");
  RunDifferential(Base(EngineMode::kHybrid), spec, g,
                  Stream(g, 2, 40, 0.0, 905), 0.0);
  RunDifferential(Base(EngineMode::kHybrid), spec, g,
                  Stream(g, 2, 40, 0.5, 906), 0.0);
}

TEST(EpochDifferential, SsspExactAcrossAllBlockModes) {
  EdgeListGraph g = TestGraph(300, 80);
  const AlgoSpec spec = Algo("sssp");
  auto stream = Stream(g, 2, 30, 0.25, 907);
  for (EngineMode mode : {EngineMode::kPush, EngineMode::kPushM,
                          EngineMode::kBPull, EngineMode::kHybrid,
                          EngineMode::kGraphHp}) {
    RunDifferential(Base(mode), spec, g, stream, 0.0);
  }
}

TEST(EpochDifferential, GraphHpEpochsExact) {
  // Streaming under kGraphHp: ApplyEdgeBatch reclassifies only the touched
  // Vblocks (cross-in deltas routed to destination owners), so every warm
  // epoch's sub-iterations must still reach the exact cold fixpoint.
  for (const char* algo : {"sssp", "bfs", "wcc"}) {
    EdgeListGraph g = TestGraph(400, 83);
    const AlgoSpec spec = Algo(algo);
    RunDifferential(Base(EngineMode::kGraphHp), spec, g,
                    Stream(g, 3, 40, 0.0, 910), 0.0);
    RunDifferential(Base(EngineMode::kGraphHp), spec, g,
                    Stream(g, 2, 40, 0.5, 911), 0.0);
  }
}

// ------------------------------------------------------- pagerank tolerance

TEST(EpochDifferential, PageRankDeltaEpochsWithin1e12) {
  EdgeListGraph g = TestGraph(300, 81);
  // Both sides land within ~t*d/(1-d) of the unique fixpoint; at t = 1e-14
  // that band is ~6e-14, comfortably inside the 1e-12 budget.
  const AlgoSpec spec = Algo("pagerank-delta", 1e-14);
  JobConfig cfg = Base(EngineMode::kHybrid);
  cfg.max_supersteps = 600;
  RunDifferential(cfg, spec, g, Stream(g, 2, 30, 0.3, 908), 1e-12);
}

TEST(EpochDifferential, PageRankDeltaWarmEpochsAreCheaper) {
  EdgeListGraph g = TestGraph(400, 82);
  const AlgoSpec spec = Algo("pagerank-delta", 1e-10);
  JobConfig cfg = Base(EngineMode::kHybrid);
  cfg.max_supersteps = 400;

  auto engine = MakeEngine(cfg, spec).ValueOrDie();
  ASSERT_TRUE(engine->Load(g).ok());
  ASSERT_TRUE(engine->Run().ok());
  const uint64_t cold_supersteps = engine->stats().supersteps.size();

  auto stream = Stream(g, 2, 10, 0.0, 909);
  for (const auto& batch : stream) {
    EpochMetrics m;
    ASSERT_TRUE(engine->RunEpoch(batch, &m).ok());
    EXPECT_TRUE(m.warm);
    // The delta-propagation saving: reconverging from the previous fixpoint
    // after a small batch takes fewer supersteps than the cold run.
    EXPECT_LT(m.supersteps, cold_supersteps);
  }
}

// -------------------------------------------------- thread-count invariance

TEST(EpochDifferential, ModeledMetricsBitIdenticalAcrossThreadCounts) {
  EdgeListGraph g = TestGraph(300, 83);
  const AlgoSpec spec = Algo("sssp");
  auto stream = Stream(g, 3, 30, 0.4, 910);

  auto run = [&](uint32_t threads) {
    auto engine =
        MakeEngine(Base(EngineMode::kHybrid, threads), spec).ValueOrDie();
    EXPECT_TRUE(engine->Load(g).ok());
    EXPECT_TRUE(engine->Run().ok());
    std::vector<EpochMetrics> ms;
    for (const auto& batch : stream) {
      EpochMetrics m;
      EXPECT_TRUE(engine->RunEpoch(batch, &m).ok());
      ms.push_back(m);
    }
    return std::make_pair(ms, engine->GatherValuesAsDouble().ValueOrDie());
  };

  const auto [m1, v1] = run(1);
  const auto [m8, v8] = run(8);
  ASSERT_EQ(m1.size(), m8.size());
  for (size_t i = 0; i < m1.size(); ++i) {
    EXPECT_EQ(m1[i].supersteps, m8[i].supersteps) << "epoch " << i;
    EXPECT_EQ(m1[i].read_bytes, m8[i].read_bytes) << "epoch " << i;
    EXPECT_EQ(m1[i].write_bytes, m8[i].write_bytes) << "epoch " << i;
    EXPECT_EQ(m1[i].net_bytes, m8[i].net_bytes) << "epoch " << i;
    EXPECT_EQ(m1[i].modeled_seconds, m8[i].modeled_seconds) << "epoch " << i;
    EXPECT_EQ(m1[i].touched_vertices, m8[i].touched_vertices);
    EXPECT_EQ(m1[i].warm, m8[i].warm);
  }
  EXPECT_EQ(v1, v8);
}

// ----------------------------------------------------------------- guard rails

TEST(EpochDifferential, VPullModeRejected) {
  // The adapter refuses the non-streamable modes up front.
  for (EngineMode mode : {EngineMode::kVPull, EngineMode::kAdaptive}) {
    EXPECT_FALSE(MakeEpochEngine(Base(mode), EpochAlgoSpec{}).ok())
        << EngineModeName(mode);
  }
}

TEST(EpochDifferential, RunEpochRejectsNonEpochAlgorithmsAndModes) {
  EdgeListGraph g = TestGraph(100, 86);
  const EdgeBatch batch = Stream(g, 1, 10, 0.0, 912)[0];
  // Algorithms without an epoch policy: the batch run works, epochs do not.
  for (AlgoKind kind : {AlgoKind::kPageRank, AlgoKind::kLpa, AlgoKind::kSa}) {
    auto engine = MakeEngine(Base(EngineMode::kHybrid), kind).ValueOrDie();
    ASSERT_TRUE(engine->Load(g).ok());
    ASSERT_TRUE(engine->Run().ok());
    EXPECT_EQ(engine->RunEpoch(batch, nullptr).code(),
              StatusCode::kInvalidArgument)
        << AlgoKindName(kind);
    EpochAlgoSpec adapter;
    adapter.name = AlgoKindName(kind);
    EXPECT_FALSE(MakeEpochEngine(Base(EngineMode::kHybrid), adapter).ok());
  }
  // An epoch algorithm under a non-streamable mode.
  for (EngineMode mode : {EngineMode::kVPull, EngineMode::kAdaptive}) {
    auto engine = MakeEngine(Base(mode), Algo("sssp")).ValueOrDie();
    ASSERT_TRUE(engine->Load(g).ok());
    ASSERT_TRUE(engine->Run().ok());
    EXPECT_EQ(engine->RunEpoch(batch, nullptr).code(),
              StatusCode::kInvalidArgument)
        << EngineModeName(mode);
    EXPECT_EQ(engine->epochs_run(), 0u);
  }
}

TEST(EpochDifferential, AdapterSourcesAtVertexZero) {
  // MakeEpochEngine always applies EpochAlgoSpec::source (default 0), never
  // the max-out-degree vertex MakeEngine picks for an unset source.
  EdgeListGraph g = TestGraph(200, 87);
  const auto degrees = g.OutDegrees();
  ASSERT_NE(std::max_element(degrees.begin(), degrees.end()) - degrees.begin(),
            0);
  EpochAlgoSpec adapter;
  adapter.name = "sssp";
  auto engine =
      MakeEpochEngine(Base(EngineMode::kHybrid), adapter).ValueOrDie();
  ASSERT_TRUE(engine->Load(g).ok());
  ASSERT_TRUE(engine->Run().ok());
  EXPECT_EQ(engine->GatherValuesAsDouble().ValueOrDie(),
            ColdValues(Base(EngineMode::kHybrid), Algo("sssp"), g));
  EXPECT_EQ(engine->GatherValuesAsDouble().ValueOrDie()[0], 0.0);
}

TEST(EpochDifferential, UnknownAlgorithmRejected) {
  EpochAlgoSpec spec;
  spec.name = "nope";
  EXPECT_FALSE(MakeEpochEngine(Base(EngineMode::kHybrid), spec).ok());
}

TEST(EpochDifferential, OutOfRangeEndpointRejected) {
  EdgeListGraph g = TestGraph(100, 84);
  auto engine = MakeEngine(Base(EngineMode::kHybrid),
                           Algo("pagerank-delta", 1e-9))
                    .ValueOrDie();
  ASSERT_TRUE(engine->Load(g).ok());
  ASSERT_TRUE(engine->Run().ok());
  EdgeBatch bad;
  bad.deltas.push_back({5, 100, 1.0f, false});  // dst out of range
  EXPECT_FALSE(engine->RunEpoch(bad, nullptr).ok());
}

TEST(EpochDifferential, CompactionBetweenEpochsPreservesFixpoints) {
  EdgeListGraph g = TestGraph(300, 85);
  const AlgoSpec spec = Algo("wcc");
  JobConfig cfg = Base(EngineMode::kBPull);
  auto engine = MakeEngine(cfg, spec).ValueOrDie();
  ASSERT_TRUE(engine->Load(g).ok());
  ASSERT_TRUE(engine->Run().ok());
  EdgeListGraph mutated = g;
  for (const auto& batch : Stream(g, 3, 30, 0.3, 911)) {
    ASSERT_TRUE(engine->RunEpoch(batch, nullptr).ok());
    ASSERT_TRUE(engine->CompactAll(1).ok());
    ApplyBatchToGraph(&mutated, batch);
    EXPECT_EQ(engine->GatherValuesAsDouble().ValueOrDie(),
              ColdValues(cfg, spec, mutated));
  }
}

}  // namespace
}  // namespace hybridgraph
