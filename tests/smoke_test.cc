// End-to-end smoke: every engine mode runs PageRank and SSSP on a small
// graph and produces identical results.
#include <gtest/gtest.h>

#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "core/engine.h"
#include "graph/generator.h"

namespace hybridgraph {
namespace {

EdgeListGraph SmallGraph() { return GeneratePowerLaw(500, 8.0, 0.7, 7); }

template <typename P>
std::vector<typename P::Value> RunMode(EngineMode mode, P program,
                                       int max_supersteps,
                                       uint64_t buffer = 50) {
  JobConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 4;
  cfg.msg_buffer_per_node = buffer;
  cfg.max_supersteps = max_supersteps;
  Engine<P> engine(cfg, program);
  auto g = SmallGraph();
  EXPECT_TRUE(engine.Load(g).ok());
  EXPECT_TRUE(engine.Run().ok());
  auto values = engine.GatherValues();
  EXPECT_TRUE(values.ok());
  return std::move(values).ValueOrDie();
}

TEST(Smoke, PageRankModesAgree) {
  PageRankProgram pr;
  auto push = RunMode(EngineMode::kPush, pr, 5);
  auto pushm = RunMode(EngineMode::kPushM, pr, 5);
  auto bpull = RunMode(EngineMode::kBPull, pr, 5);
  auto hybrid = RunMode(EngineMode::kHybrid, pr, 5);
  ASSERT_EQ(push.size(), bpull.size());
  for (size_t i = 0; i < push.size(); ++i) {
    EXPECT_NEAR(push[i], bpull[i], 1e-9) << i;
    EXPECT_NEAR(push[i], pushm[i], 1e-9) << i;
    EXPECT_NEAR(push[i], hybrid[i], 1e-9) << i;
  }
  // Rank mass leaks through dangling vertices (standard Pregel PageRank);
  // it must stay positive and bounded by 1.
  double sum = 0;
  for (double v : push) sum += v;
  EXPECT_GT(sum, 0.2);
  EXPECT_LE(sum, 1.0 + 1e-9);
}

template <typename P>
std::vector<typename P::Value> RunVPull(P program, int max_supersteps,
                                        uint64_t cache = 100) {
  JobConfig cfg;
  cfg.mode = EngineMode::kVPull;
  cfg.num_nodes = 4;
  cfg.vpull_vertex_cache = cache;
  cfg.max_supersteps = max_supersteps;
  Engine<P> engine(cfg, program);
  auto g = SmallGraph();
  EXPECT_TRUE(engine.Load(g).ok());
  EXPECT_TRUE(engine.Run().ok());
  auto values = engine.GatherValues();
  EXPECT_TRUE(values.ok());
  return std::move(values).ValueOrDie();
}

TEST(Smoke, VPullMatchesPush) {
  PageRankProgram pr;
  auto push = RunMode(EngineMode::kPush, pr, 5);
  auto vpull = RunVPull(pr, 5);
  ASSERT_EQ(push.size(), vpull.size());
  for (size_t i = 0; i < push.size(); ++i) {
    EXPECT_NEAR(push[i], vpull[i], 1e-9) << i;
  }
  SsspProgram sssp;
  sssp.source = 3;
  auto push_d = RunMode(EngineMode::kPush, sssp, 60);
  auto vpull_d = RunVPull(sssp, 60);
  for (size_t i = 0; i < push_d.size(); ++i) {
    EXPECT_EQ(push_d[i], vpull_d[i]) << i;
  }
}

TEST(Smoke, SsspModesAgree) {
  SsspProgram sssp;
  sssp.source = 3;
  auto push = RunMode(EngineMode::kPush, sssp, 60);
  auto bpull = RunMode(EngineMode::kBPull, sssp, 60);
  auto hybrid = RunMode(EngineMode::kHybrid, sssp, 60);
  ASSERT_EQ(push.size(), bpull.size());
  int reached = 0;
  for (size_t i = 0; i < push.size(); ++i) {
    EXPECT_EQ(push[i], bpull[i]) << i;
    EXPECT_EQ(push[i], hybrid[i]) << i;
    if (push[i] < SsspProgram::kInf) ++reached;
  }
  EXPECT_GT(reached, 10);
}

}  // namespace
}  // namespace hybridgraph
