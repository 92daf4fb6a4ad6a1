// Deterministic fault injection end-to-end: seeded fail-point schedules
// threaded through storage, spill, checkpoint and TCP seams must replay
// bit-identically, propagate as error Statuses (never crash the process),
// and — for result-preserving faults (delays, recovered crashes, retried
// drops) — leave GatherValues() bit-identical to a fault-free run.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "core/recovery.h"
#include "graph/generator.h"
#include "hybridgraph/any_engine.h"
#include "tests/core/reference_impls.h"
#include "util/failpoint.h"

namespace hybridgraph {
namespace {

const EdgeListGraph& FaultGraph() {
  static const EdgeListGraph g = GeneratePowerLaw(500, 7.0, 0.8, 31);
  return g;
}

JobConfig BaseConfig(EngineMode mode) {
  JobConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 4;
  cfg.msg_buffer_per_node = 120;  // small enough to exercise spilling
  cfg.max_supersteps = 6;
  return cfg;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPointRegistry::Instance().DisarmAll(); }
};

std::vector<uint8_t> RunPageRankRaw(JobConfig cfg) {
  auto engine = MakeEngine(cfg, AlgoKind::kPageRank).ValueOrDie();
  EXPECT_TRUE(engine->Load(FaultGraph()).ok());
  EXPECT_TRUE(engine->Run().ok());
  return engine->GatherValuesRaw().ValueOrDie();
}

constexpr EngineMode kAllModes[] = {
    EngineMode::kPush,   EngineMode::kPushM,    EngineMode::kVPull,
    EngineMode::kBPull,  EngineMode::kHybrid,   EngineMode::kAdaptive,
    EngineMode::kGraphHp};

TEST_F(FaultInjectionTest, DelayScheduleIsResultInvariantAcrossThreadCounts) {
  // Delays perturb timing, not data: under a randomized seeded delay schedule
  // every mode must produce values bit-identical to its fault-free run, at
  // one worker thread and at eight.
  for (EngineMode mode : kAllModes) {
    SCOPED_TRACE(EngineModeName(mode));
    JobConfig cfg = BaseConfig(mode);
    const std::vector<uint8_t> expected = RunPageRankRaw(cfg);
    cfg.failpoints =
        "storage.read=delay:p=0.2,seed=11,us=1;"
        "storage.write=delay:p=0.3,seed=12,us=1;"
        "spill.flush=delay:p=0.5,seed=13,us=1";
    for (uint32_t threads : {1u, 8u}) {
      cfg.num_threads = threads;
      const std::vector<uint8_t> got = RunPageRankRaw(cfg);
      ASSERT_EQ(got.size(), expected.size());
      EXPECT_EQ(std::memcmp(got.data(), expected.data(), got.size()), 0)
          << "threads=" << threads;
      FailPointRegistry::Instance().DisarmAll();
    }
  }
}

TEST_F(FaultInjectionTest, StorageErrorPropagatesAsStatusNeverCrashes) {
  for (EngineMode mode : kAllModes) {
    SCOPED_TRACE(EngineModeName(mode));
    JobConfig cfg = BaseConfig(mode);
    cfg.failpoints = "storage.write=error:p=1,code=io";
    auto engine = MakeEngine(cfg, AlgoKind::kPageRank).ValueOrDie();
    Status st = engine->Load(FaultGraph());
    if (st.ok()) st = engine->Run();
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kIoError) << st.message();
    FailPointRegistry::Instance().DisarmAll();
  }
}

TEST_F(FaultInjectionTest, SpillFlushErrorSurfacesFromRun) {
  JobConfig cfg = BaseConfig(EngineMode::kPush);
  cfg.failpoints = "spill.flush=error:p=1,code=io";
  auto engine = MakeEngine(cfg, AlgoKind::kPageRank).ValueOrDie();
  Status st = engine->Load(FaultGraph());
  if (st.ok()) st = engine->Run();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.message();
}

TEST_F(FaultInjectionTest, FixedSeedReplaysIdenticalErrorSchedule) {
  // The same seed must fail on the same hit with the same message, run after
  // run — the reproducing property the fuzz harness relies on.
  auto run_once = []() {
    JobConfig cfg = BaseConfig(EngineMode::kBPull);
    cfg.failpoints = "storage.read=error:p=0.01,seed=77,code=corruption";
    auto engine = MakeEngine(cfg, AlgoKind::kPageRank).ValueOrDie();
    Status st = engine->Load(FaultGraph());
    if (st.ok()) st = engine->Run();
    return st;
  };
  const Status first = run_once();
  FailPointRegistry::Instance().DisarmAll();
  const Status second = run_once();
  EXPECT_EQ(first.code(), second.code());
  EXPECT_EQ(first.message(), second.message());
}

TEST_F(FaultInjectionTest, InjectedCrashRecoversViaCheckpoints) {
  // A crash fired from inside a superstep (not at a barrier) must be caught
  // by the runner and recovered from the last checkpoint, with final results
  // matching the fault-free run. The site is "spill.flush": it is only hit
  // while supersteps execute, never during (re)loading.
  const auto g = FaultGraph();
  JobConfig cfg = BaseConfig(EngineMode::kPush);
  cfg.max_supersteps = 8;
  Engine<PageRankProgram> fault_free(cfg, PageRankProgram{});
  ASSERT_TRUE(fault_free.Load(g).ok());
  ASSERT_TRUE(fault_free.Run().ok());
  const auto expected = fault_free.GatherValues().ValueOrDie();

  FailPointScope scope("spill.flush=crash:after=6,max=1");
  ASSERT_TRUE(scope.status().ok());
  CheckpointingRunner<PageRankProgram> runner(cfg, PageRankProgram{},
                                              /*checkpoint_every=*/2);
  ASSERT_TRUE(runner.Run(g).ok());
  EXPECT_EQ(runner.recoveries(), 1);
  const auto got = runner.GatherValues().ValueOrDie();
  ASSERT_EQ(got.size(), expected.size());
  for (size_t v = 0; v < got.size(); ++v) {
    ASSERT_NEAR(got[v], expected[v], 1e-12) << "v=" << v;
  }
}

TEST_F(FaultInjectionTest, CrashRecoveryCrossesThreadCounts) {
  // Crash at 8 worker threads, recover, and still match the sequential
  // fault-free reference — the fire decision is a function of the hit index,
  // not of thread interleaving.
  const auto g = FaultGraph();
  JobConfig cfg = BaseConfig(EngineMode::kPush);
  cfg.max_supersteps = 8;
  Engine<PageRankProgram> fault_free(cfg, PageRankProgram{});  // 1 thread
  ASSERT_TRUE(fault_free.Load(g).ok());
  ASSERT_TRUE(fault_free.Run().ok());
  const auto expected = fault_free.GatherValues().ValueOrDie();

  FailPointScope scope("spill.flush=crash:after=10,max=1");
  ASSERT_TRUE(scope.status().ok());
  cfg.num_threads = 8;
  CheckpointingRunner<PageRankProgram> runner(cfg, PageRankProgram{},
                                              /*checkpoint_every=*/3);
  ASSERT_TRUE(runner.Run(g).ok());
  EXPECT_EQ(runner.recoveries(), 1);
  const auto got = runner.GatherValues().ValueOrDie();
  ASSERT_EQ(got.size(), expected.size());
  for (size_t v = 0; v < got.size(); ++v) {
    ASSERT_NEAR(got[v], expected[v], 1e-12) << "v=" << v;
  }
}

std::vector<std::string> SpillFilesUnder(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string path = entry.path().string();
    if (path.find("/spill/") != std::string::npos) files.push_back(path);
  }
  return files;
}

TEST_F(FaultInjectionTest, RecoverySweepsOrphanedSpillRuns) {
  // A node dying mid-spill leaves run files on real disk that its successor
  // has no record of: runs registered before the crash, plus (in the torn
  // case) a blob written but never registered. RestoreCheckpoint must sweep
  // every spill prefix so no stray node*/spill/* file survives recovery.
  const auto g = FaultGraph();
  const std::string dir =
      ::testing::TempDir() + "/hg_spill_orphans_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);
  JobConfig cfg = BaseConfig(EngineMode::kPush);
  cfg.use_file_storage = true;
  cfg.storage_dir = dir;

  Engine<PageRankProgram> fault_free(BaseConfig(EngineMode::kPush),
                                     PageRankProgram{});
  ASSERT_TRUE(fault_free.Load(g).ok());
  ASSERT_TRUE(fault_free.Run().ok());
  const auto expected = fault_free.GatherValues().ValueOrDie();

  Engine<PageRankProgram> victim(cfg, PageRankProgram{});
  ASSERT_TRUE(victim.Load(g).ok());
  ASSERT_TRUE(victim.RunSuperstep().ok());
  ASSERT_TRUE(victim.RunSuperstep().ok());
  Buffer image;
  ASSERT_TRUE(victim.WriteCheckpoint(&image).ok());
  {
    // Two spill syncs land, then the node dies mid-superstep: the first two
    // runs of the crashed superstep stay registered on disk while the
    // in-memory record of them is lost with the process.
    FailPointScope fp("storage.sync=crash:after=2,max=1");
    ASSERT_TRUE(fp.status().ok());
    Status st = victim.RunSuperstep();
    ASSERT_FALSE(st.ok());
    ASSERT_TRUE(IsInjectedCrash(st)) << st.message();
  }
  // Torn variant: a blob written right before the death, never registered.
  {
    const std::string stray =
        dir + "/node0/node0/spill/b/run-000099";
    std::filesystem::create_directories(
        std::filesystem::path(stray).parent_path());
    std::ofstream f(stray, std::ios::binary);
    const char junk[12] = {1, 0};
    f.write(junk, sizeof junk);
    ASSERT_TRUE(f.good());
  }
  ASSERT_FALSE(SpillFilesUnder(dir).empty());

  // Successor incarnation over the same storage: restore must sweep both
  // inbox spill prefixes before re-spilling the checkpointed inbox.
  Engine<PageRankProgram> recovered(cfg, PageRankProgram{});
  ASSERT_TRUE(recovered.Load(g).ok());
  ASSERT_TRUE(recovered.RestoreCheckpoint(image.AsSlice()).ok());
  for (const std::string& f : SpillFilesUnder(dir)) {
    // Only the restored inbox's own re-spilled overflow may exist: one run
    // per node, in the current (a) prefix, freshly registered. Every file of
    // the dead incarnation — crashed-superstep runs, the planted stray — is
    // gone.
    EXPECT_NE(f.find("/spill/a/run-000000"), std::string::npos)
        << "stray spill file survived recovery: " << f;
  }

  // And the recovered run still converges to the fault-free fixpoint.
  while (recovered.superstep() < cfg.max_supersteps && !recovered.converged()) {
    ASSERT_TRUE(recovered.RunSuperstep().ok());
  }
  const auto got = recovered.GatherValues().ValueOrDie();
  ASSERT_EQ(got.size(), expected.size());
  for (size_t v = 0; v < got.size(); ++v) {
    ASSERT_NEAR(got[v], expected[v], 1e-12) << "v=" << v;
  }
  std::filesystem::remove_all(dir);
}

TEST_F(FaultInjectionTest, TcpDropsAreRetriedAndCounted) {
  // Injected frame drops on the TCP path are absorbed by the retry layer:
  // results match the in-process transport and the recovery work shows up in
  // SuperstepMetrics (net_retries), keeping the fault visible to operators.
  const auto g = FaultGraph();
  JobConfig cfg = BaseConfig(EngineMode::kBPull);
  cfg.max_supersteps = 4;
  const std::vector<uint8_t> expected = RunPageRankRaw(cfg);

  cfg.transport = TransportKind::kTcp;
  cfg.tcp_max_retries = 6;
  cfg.failpoints = "tcp.drop=error:p=0.05,seed=5,code=net";
  auto engine = MakeEngine(cfg, AlgoKind::kPageRank).ValueOrDie();
  ASSERT_TRUE(engine->Load(g).ok());
  ASSERT_TRUE(engine->Run().ok());
  const std::vector<uint8_t> got = engine->GatherValuesRaw().ValueOrDie();
  ASSERT_EQ(got.size(), expected.size());
  EXPECT_EQ(std::memcmp(got.data(), expected.data(), got.size()), 0);

  uint64_t total_retries = 0;
  for (const auto& s : engine->stats().supersteps) total_retries += s.net_retries;
  EXPECT_GE(total_retries, 1u);
  EXPECT_GE(FailPointRegistry::Instance().fires("tcp.drop"), 1u);
}

TEST_F(FaultInjectionTest, BadFailpointConfigRejectedByValidate) {
  JobConfig cfg = BaseConfig(EngineMode::kPush);
  cfg.failpoints = "storage.write=explode";
  auto engine = MakeEngine(cfg, AlgoKind::kPageRank).ValueOrDie();
  Status st = engine->Load(FaultGraph());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("failpoints"), std::string::npos) << st.message();
}

}  // namespace
}  // namespace hybridgraph
