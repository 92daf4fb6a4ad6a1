// Differential and golden tests for the frontier-aware adaptive MessagePath:
// BFS and SSSP on seeded RMAT / chain / star graphs must agree exactly with
// the single-threaded references AND with the pure push / pure b-pull
// fixpoints (the per-cell direction choice may change how messages move,
// never what arrives); modeled metrics and the per-cell decision log must be
// bit-identical at any thread count; and the decision grid for a fixed seed
// is pinned as a golden so heuristic regressions show up as diffs.
#include "core/paths/adaptive_path.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algos/bfs.h"
#include "algos/sssp.h"
#include "core/metrics_csv.h"
#include "core/paths/bpull_path.h"
#include "core/paths/push_path.h"
#include "core/superstep_driver.h"
#include "graph/generator.h"
#include "tests/core/reference_impls.h"

namespace hybridgraph {
namespace {

/// The three frontier shapes of the suite: skewed communities (RMAT), a
/// single-vertex frontier for the whole run (chain), and one maximally dense
/// superstep (star).
struct Shape {
  const char* name;
  EdgeListGraph graph;
};

std::vector<Shape> TestShapes() {
  std::vector<Shape> shapes;
  shapes.push_back({"rmat", GenerateRmat(600, 3600, /*seed=*/5)});
  shapes.push_back({"chain", GenerateChain(150, /*seed=*/3)});
  shapes.push_back({"star", GenerateStar(400, /*seed=*/4)});
  return shapes;
}

template <typename P>
struct Rig {
  std::unique_ptr<SuperstepDriver<P>> driver;
  std::unique_ptr<PushPath<P>> push;
  std::unique_ptr<BPullPath<P>> bpull;
  std::unique_ptr<AdaptivePath<P>> adaptive;
};

template <typename P>
Rig<P> MakeRig(const JobConfig& cfg, P program) {
  Rig<P> rig;
  rig.driver = std::make_unique<SuperstepDriver<P>>(cfg, program);
  rig.push = std::make_unique<PushPath<P>>(rig.driver.get());
  rig.bpull = std::make_unique<BPullPath<P>>(rig.driver.get());
  rig.driver->InstallPath(rig.push.get(),
                          /*active=*/cfg.mode != EngineMode::kBPull &&
                              cfg.mode != EngineMode::kAdaptive);
  rig.driver->InstallPath(rig.bpull.get(),
                          /*active=*/cfg.mode == EngineMode::kBPull ||
                              cfg.mode == EngineMode::kHybrid);
  if (cfg.mode == EngineMode::kAdaptive) {
    rig.adaptive = std::make_unique<AdaptivePath<P>>(rig.driver.get());
    rig.driver->InstallPath(rig.adaptive.get(), /*active=*/true);
  }
  return rig;
}

JobConfig BaseConfig(EngineMode mode, uint32_t threads) {
  JobConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 4;
  cfg.num_threads = threads;
  cfg.msg_buffer_per_node = 120;  // forces spilling under push cells
  cfg.max_supersteps = 200;       // the chain needs its full diameter
  return cfg;
}

template <typename P>
std::vector<typename P::Value> RunToFixpoint(const EdgeListGraph& g, P program,
                                             EngineMode mode,
                                             uint32_t threads) {
  auto rig = MakeRig(BaseConfig(mode, threads), program);
  EXPECT_TRUE(rig.driver->Load(g).ok()) << EngineModeName(mode);
  EXPECT_TRUE(rig.driver->Run().ok()) << EngineModeName(mode);
  EXPECT_TRUE(rig.driver->converged()) << EngineModeName(mode);
  return rig.driver->GatherValues().ValueOrDie();
}

class AdaptiveDifferential : public ::testing::TestWithParam<uint32_t> {};

TEST_P(AdaptiveDifferential, BfsMatchesReferenceAndPureModes) {
  for (const Shape& shape : TestShapes()) {
    BfsProgram program;
    program.source = 0;
    const auto expected = ReferenceBfs(shape.graph, program.source);
    const auto adaptive = RunToFixpoint(shape.graph, program,
                                        EngineMode::kAdaptive, GetParam());
    ASSERT_EQ(adaptive.size(), expected.size()) << shape.name;
    EXPECT_EQ(adaptive, expected) << shape.name;
    // The pure fixpoints must be EXACTLY equal: min-combining is
    // order-independent, so how messages traveled cannot show in the result.
    EXPECT_EQ(adaptive,
              RunToFixpoint(shape.graph, program, EngineMode::kPush, GetParam()))
        << shape.name;
    EXPECT_EQ(adaptive, RunToFixpoint(shape.graph, program, EngineMode::kBPull,
                                      GetParam()))
        << shape.name;
  }
}

TEST_P(AdaptiveDifferential, SsspMatchesReferenceAndPureModes) {
  for (const Shape& shape : TestShapes()) {
    SsspProgram program;
    program.source = 0;
    const auto expected = ReferenceSssp(shape.graph, program.source);
    const auto adaptive = RunToFixpoint(shape.graph, program,
                                        EngineMode::kAdaptive, GetParam());
    ASSERT_EQ(adaptive.size(), expected.size()) << shape.name;
    for (size_t v = 0; v < adaptive.size(); ++v) {
      ASSERT_FLOAT_EQ(adaptive[v], expected[v]) << shape.name << " v=" << v;
    }
    EXPECT_EQ(adaptive,
              RunToFixpoint(shape.graph, program, EngineMode::kPush, GetParam()))
        << shape.name;
    EXPECT_EQ(adaptive, RunToFixpoint(shape.graph, program, EngineMode::kBPull,
                                      GetParam()))
        << shape.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, AdaptiveDifferential,
                         ::testing::Values(1u, 8u), [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

// --------------------------------------------------- thread-count invariance

TEST(AdaptiveDeterminism, MetricsAndDecisionLogBitIdenticalAcrossThreads) {
  const auto g = GenerateRmat(600, 3600, 5);
  BfsProgram program;
  program.source = 0;

  auto run = [&](uint32_t threads) {
    auto rig = MakeRig(BaseConfig(EngineMode::kAdaptive, threads), program);
    EXPECT_TRUE(rig.driver->Load(g).ok());
    EXPECT_TRUE(rig.driver->Run().ok());
    return std::make_pair(rig.driver->stats().supersteps,
                          rig.adaptive->decision_log());
  };
  const auto [m1, log1] = run(1);
  const auto [m8, log8] = run(8);

  ASSERT_EQ(m1.size(), m8.size());
  for (size_t t = 0; t < m1.size(); ++t) {
    EXPECT_EQ(ModeledColumnDiffs(m1[t], m8[t]), std::vector<std::string>{})
        << "superstep " << t;
  }
  EXPECT_EQ(log1, log8);
  EXPECT_FALSE(log1.empty());
}

// ------------------------------------------------- advert round-trip saving

TEST(AdaptiveRoundTrips, AllPushRunIssuesNoPullRequests) {
  // On a chain every superstep's frontier is one degree-1 vertex: every cell
  // decision is push, so the advert each node posts is empty and the next
  // superstep's b-pull collection must skip ALL round trips. Before the
  // advert exchange, adaptive consumption requested every (Vblock, node)
  // pair every superstep just in case a pull had been staged.
  const auto g = GenerateChain(150, 3);
  BfsProgram program;
  program.source = 0;
  JobConfig cfg = BaseConfig(EngineMode::kAdaptive, 1);
  // One Vblock per node keeps every row's edge count (~37) strictly above
  // the β=18 scout-degree gate; Eq. (5) sizing would make ~18-edge rows
  // that sit exactly on the boundary and legitimately flip to pull.
  cfg.vblocks_per_node = 1;
  auto rig = MakeRig(cfg, program);
  ASSERT_TRUE(rig.driver->Load(g).ok());
  ASSERT_TRUE(rig.driver->Run().ok());
  ASSERT_TRUE(rig.driver->converged());
  EXPECT_EQ(rig.driver->stats().TotalPullRequests(), 0u);
  // Sanity: the run did do superstep work the old code would have paid
  // round trips for.
  EXPECT_GT(rig.driver->stats().supersteps.size(), 100u);
}

TEST(AdaptiveRoundTrips, MixedRunRequestsOnlyAdvertisedCells) {
  // RMAT BFS passes through pull-dense supersteps: requests must appear
  // there (the advert marks served Vblocks) but stay bounded by the number
  // of pull cells — never one per (Vblock, node) per superstep.
  const auto g = GenerateRmat(600, 3600, 5);
  BfsProgram program;
  program.source = 0;
  auto rig = MakeRig(BaseConfig(EngineMode::kAdaptive, 1), program);
  ASSERT_TRUE(rig.driver->Load(g).ok());
  ASSERT_TRUE(rig.driver->Run().ok());
  uint64_t pull_cells = 0;
  for (const auto& s : rig.driver->stats().supersteps) pull_cells += s.pull_cells;
  const uint64_t requests = rig.driver->stats().TotalPullRequests();
  EXPECT_GT(requests, 0u);
  EXPECT_LE(requests, pull_cells);
}

// ---------------------------------------------------------- CSV new columns

TEST(AdaptiveMetricsCsv, PerCellColumnsPresentAndPopulated) {
  const auto g = GenerateRmat(600, 3600, 5);
  BfsProgram program;
  program.source = 0;
  auto rig = MakeRig(BaseConfig(EngineMode::kAdaptive, 1), program);
  ASSERT_TRUE(rig.driver->Load(g).ok());
  ASSERT_TRUE(rig.driver->Run().ok());

  const std::string csv = SuperstepMetricsCsv(rig.driver->stats());
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_NE(header.find(",push_cells,pull_cells"), std::string::npos);

  uint64_t push_cells = 0, pull_cells = 0;
  for (const auto& s : rig.driver->stats().supersteps) {
    EXPECT_EQ(s.mode, EngineMode::kAdaptive);
    push_cells += s.push_cells;
    pull_cells += s.pull_cells;
  }
  // An RMAT BFS passes through sparse AND dense frontier phases, so both
  // directions must have been chosen somewhere in the run.
  EXPECT_GT(push_cells, 0u);
  EXPECT_GT(pull_cells, 0u);

  // Non-adaptive runs never populate the per-cell columns.
  auto push_rig = MakeRig(BaseConfig(EngineMode::kPush, 1), program);
  ASSERT_TRUE(push_rig.driver->Load(g).ok());
  ASSERT_TRUE(push_rig.driver->Run().ok());
  for (const auto& s : push_rig.driver->stats().supersteps) {
    EXPECT_EQ(s.push_cells, 0u);
    EXPECT_EQ(s.pull_cells, 0u);
  }
}

// ------------------------------------------------------ golden decision grid

/// Golden pins of the exact per-cell decision grid (fixed seed + config =>
/// fixed log). A diff here means the α/β heuristic, the cost inputs, or the
/// layout changed — inspect the new grid and re-pin deliberately if intended.
std::string RunDecisionLog(const EdgeListGraph& g, int max_supersteps) {
  BfsProgram program;
  program.source = 0;
  JobConfig cfg;
  cfg.mode = EngineMode::kAdaptive;
  cfg.num_nodes = 2;
  cfg.vblocks_per_node = 2;  // fixed 4x4 grid, independent of Eq. 5/6
  cfg.num_threads = 1;
  cfg.msg_buffer_per_node = 120;
  cfg.max_supersteps = max_supersteps;
  auto rig = MakeRig(cfg, program);
  EXPECT_TRUE(rig.driver->Load(g).ok());
  EXPECT_TRUE(rig.driver->Run().ok());
  return rig.adaptive->decision_log();
}

TEST(AdaptiveGoldenGrid, RmatBfsDecisionSequence) {
  // The direction-optimizing sweep, visible per cell. Re-pinned when the
  // gate and cost model switched from the responder COUNT to the responder
  // DEGREE SUM, which moves two rows:
  //  - t=0: the one-vertex frontier is RMAT's top hub, whose out-degree
  //    saturates its row — the old count gate (1·β < |b_j|) mislabeled it
  //    sparse and pushed the hub's whole fan-out; the scout-degree gate
  //    prices it honestly and pulls.
  //  - t=3 j=3: the tail row looks dense by vertex count but its responders
  //    hold few edges, so the degree-share estimate makes push cheaper —
  //    previously the uniform cell_edges/row_edges split overpriced it.
  // The dense middle hops (t=1..2) pull everywhere as before, and t=3 stays
  // genuinely MIXED (three push rows, one pull row at t=3 under the old
  // pin; now the mix sits at t=0 vs t=3). A whole-superstep mode cannot
  // express either.
  const std::string log = RunDecisionLog(GenerateRmat(240, 1800, 9), 10);
  const std::string kExpected =
      "t=0 n=0 j=0 BBBB\n"
      "t=1 n=0 j=0 BBBB\n"
      "t=1 n=0 j=1 BBBB\n"
      "t=1 n=1 j=2 BBBB\n"
      "t=1 n=1 j=3 BBBB\n"
      "t=2 n=0 j=0 BBBB\n"
      "t=2 n=0 j=1 BBBB\n"
      "t=2 n=1 j=2 BBBB\n"
      "t=2 n=1 j=3 BBBB\n"
      "t=3 n=0 j=0 PPPP\n"
      "t=3 n=0 j=1 PPPP\n"
      "t=3 n=1 j=2 PPPP\n"
      "t=3 n=1 j=3 PPPP\n";
  EXPECT_EQ(log, kExpected);
}

TEST(AdaptiveGoldenGrid, StarBfsDecisionSequence) {
  // Star around vertex 0: superstep 0 is the hub's single-vertex frontier —
  // but that one responder owns EVERY out-edge of its row, the textbook
  // case the vertex-count gate got wrong (1·β < |b_j| said sparse, so the
  // hub pushed 239 messages; the scout-degree gate recognizes the row as
  // saturated and pulls the one Eblock scan instead). Superstep 1 every
  // leaf answers back toward the hub — the hub's own Vblock row is fully
  // dense (pull all cells) while the leaf-only rows are dense ONLY toward
  // the hub's cell ('.' elsewhere: leaves have no edges into the other
  // Vblocks, so those cells are empty).
  const std::string log = RunDecisionLog(GenerateStar(240, 4), 10);
  const std::string kExpected =
      "t=0 n=0 j=0 BBBB\n"
      "t=1 n=0 j=0 BBBB\n"
      "t=1 n=0 j=1 B...\n"
      "t=1 n=1 j=2 B...\n"
      "t=1 n=1 j=3 B...\n";
  EXPECT_EQ(log, kExpected);
}

}  // namespace
}  // namespace hybridgraph
