// Cross-engine agreement for the non-combinable workloads (LPA, SA): the
// GAS v-pull baseline must produce the same results as the BSP engines, and
// paper-shape regressions that pin the headline comparisons at test scale.
#include <gtest/gtest.h>

#include "algos/lpa.h"
#include "algos/sa.h"
#include "algos/sssp.h"
#include "core/engine.h"
#include "graph/generator.h"

namespace hybridgraph {
namespace {

EdgeListGraph TestGraph(uint64_t seed = 61) {
  return GeneratePowerLaw(700, 8.0, 0.8, seed);
}

JobConfig Base(EngineMode mode) {
  JobConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 4;
  cfg.msg_buffer_per_node = 150;
  cfg.max_supersteps = 5;
  return cfg;
}

TEST(CrossEngine, LpaAgreesAcrossAllEngines) {
  const auto g = TestGraph();
  std::vector<uint32_t> reference;
  {
    Engine<LpaProgram> engine(Base(EngineMode::kPush), LpaProgram{});
    ASSERT_TRUE(engine.Load(g).ok());
    ASSERT_TRUE(engine.Run().ok());
    reference = engine.GatherValues().ValueOrDie();
  }
  {
    Engine<LpaProgram> engine(Base(EngineMode::kBPull), LpaProgram{});
    ASSERT_TRUE(engine.Load(g).ok());
    ASSERT_TRUE(engine.Run().ok());
    EXPECT_EQ(engine.GatherValues().ValueOrDie(), reference);
  }
  {
    Engine<LpaProgram> engine(Base(EngineMode::kVPull), LpaProgram{});
    ASSERT_TRUE(engine.Load(g).ok());
    ASSERT_TRUE(engine.Run().ok());
    EXPECT_EQ(engine.GatherValues().ValueOrDie(), reference);
  }
}

TEST(CrossEngine, SaAgreesAcrossAllEngines) {
  const auto g = TestGraph(62);
  SaProgram program;
  program.source_stride = 70;
  JobConfig cfg = Base(EngineMode::kPush);
  cfg.max_supersteps = 25;

  std::vector<SaProgram::Value> reference;
  {
    Engine<SaProgram> engine(cfg, program);
    ASSERT_TRUE(engine.Load(g).ok());
    ASSERT_TRUE(engine.Run().ok());
    reference = engine.GatherValues().ValueOrDie();
  }
  {
    JobConfig c2 = cfg;
    c2.mode = EngineMode::kHybrid;
    Engine<SaProgram> engine(c2, program);
    ASSERT_TRUE(engine.Load(g).ok());
    ASSERT_TRUE(engine.Run().ok());
    const auto got = engine.GatherValues().ValueOrDie();
    for (size_t v = 0; v < got.size(); ++v) {
      ASSERT_EQ(got[v].adopted, reference[v].adopted) << v;
    }
  }
  {
    JobConfig c2 = cfg;
    c2.mode = EngineMode::kVPull;
    Engine<SaProgram> engine(c2, program);
    ASSERT_TRUE(engine.Load(g).ok());
    ASSERT_TRUE(engine.Run().ok());
    const auto got = engine.GatherValues().ValueOrDie();
    for (size_t v = 0; v < got.size(); ++v) {
      ASSERT_EQ(got[v].adopted, reference[v].adopted) << v;
    }
  }
}

TEST(CrossEngine, HybridNeverFarWorseThanBestFixedMode) {
  // The paper's core promise: hybrid "always tries to choose a profitable
  // one" — allow a modest margin for switch overheads and prediction lag.
  for (uint64_t seed : {91u, 92u, 93u}) {
    const auto g = GeneratePowerLaw(900, 9.0, 0.85, seed,
                                    /*locality=*/0.3 + 0.2 * (seed % 3));
    SsspProgram program;
    program.source = 5;
    auto modeled = [&](EngineMode mode) {
      JobConfig cfg = Base(mode);
      cfg.max_supersteps = 120;
      Engine<SsspProgram> engine(cfg, program);
      EXPECT_TRUE(engine.Load(g).ok());
      EXPECT_TRUE(engine.Run().ok());
      return engine.stats().modeled_seconds;
    };
    const double push = modeled(EngineMode::kPush);
    const double bpull = modeled(EngineMode::kBPull);
    const double hybrid = modeled(EngineMode::kHybrid);
    // Prediction lag and switch overheads cost something on these tiny
    // graphs; the bound guards against picking the wrong mode outright
    // (which costs 5-30x, see message_flow_test).
    EXPECT_LT(hybrid, std::min(push, bpull) * 2.5) << "seed " << seed;
  }
}

TEST(CrossEngine, DeterministicAcrossRepeatedRuns) {
  const auto g = TestGraph(63);
  auto run = [&] {
    JobConfig cfg = Base(EngineMode::kHybrid);
    cfg.max_supersteps = 30;
    SsspProgram program;
    program.source = 9;
    Engine<SsspProgram> engine(cfg, program);
    EXPECT_TRUE(engine.Load(g).ok());
    EXPECT_TRUE(engine.Run().ok());
    return std::make_pair(engine.GatherValues().ValueOrDie(),
                          engine.stats().modeled_seconds);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

}  // namespace
}  // namespace hybridgraph
