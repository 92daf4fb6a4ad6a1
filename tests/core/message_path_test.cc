// Strategy conformance: every MessagePath (push, pushM, b-pull, vpull,
// graphhp, the adaptive per-cell mix and the hybrid combination) must
// compute reference-identical results when
// driven through the same SuperstepDriver fixture — the paths differ only in
// how messages move, never in what the program computes. Each conformance
// check runs fully sequential (1 thread) and parallel (8 threads).
#include "core/message_path.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "algos/wcc.h"
#include "core/paths/adaptive_path.h"
#include "core/paths/bpull_path.h"
#include "core/paths/ghp_path.h"
#include "core/paths/push_m_path.h"
#include "core/paths/push_path.h"
#include "core/paths/vpull_path.h"
#include "core/superstep_driver.h"
#include "graph/generator.h"
#include "tests/core/reference_impls.h"

namespace hybridgraph {
namespace {

EdgeListGraph TestGraph(uint64_t seed = 11) {
  return GeneratePowerLaw(800, 7.0, 0.8, seed);
}

/// A driver plus the installed strategies — the same wiring the Engine /
/// VPullEngine facades do, but exposed so tests can drive any path through
/// one shared fixture.
template <typename P>
struct DriverRig {
  std::unique_ptr<SuperstepDriver<P>> driver;
  std::unique_ptr<PushPath<P>> push;
  std::unique_ptr<BPullPath<P>> bpull;
  std::unique_ptr<VPullPath<P>> vpull;
  std::unique_ptr<AdaptivePath<P>> adaptive;
  std::unique_ptr<GhpPath<P>> ghp;

  Result<std::vector<typename P::Value>> Gather() {
    if (vpull) return vpull->GatherValues();
    return driver->GatherValues();
  }
};

template <typename P>
DriverRig<P> MakeRig(const JobConfig& cfg, P program) {
  DriverRig<P> rig;
  if (cfg.mode == EngineMode::kVPull) {
    rig.driver = std::make_unique<SuperstepDriver<P>>(cfg, program,
                                                      /*gas_engine=*/true);
    rig.vpull = std::make_unique<VPullPath<P>>(rig.driver.get());
    rig.driver->InstallPath(rig.vpull.get(), /*active=*/true);
    return rig;
  }
  rig.driver = std::make_unique<SuperstepDriver<P>>(cfg, program,
                                                    /*gas_engine=*/false);
  if (cfg.mode == EngineMode::kPushM) {
    rig.push = std::make_unique<PushMPath<P>>(rig.driver.get());
  } else {
    rig.push = std::make_unique<PushPath<P>>(rig.driver.get());
  }
  rig.bpull = std::make_unique<BPullPath<P>>(rig.driver.get());
  rig.driver->InstallPath(rig.push.get(),
                          /*active=*/cfg.mode != EngineMode::kBPull &&
                              cfg.mode != EngineMode::kAdaptive &&
                              cfg.mode != EngineMode::kGraphHp);
  rig.driver->InstallPath(rig.bpull.get(),
                          /*active=*/cfg.mode == EngineMode::kBPull ||
                              cfg.mode == EngineMode::kHybrid);
  if (cfg.mode == EngineMode::kAdaptive) {
    rig.adaptive = std::make_unique<AdaptivePath<P>>(rig.driver.get());
    rig.driver->InstallPath(rig.adaptive.get(), /*active=*/true);
  }
  if (cfg.mode == EngineMode::kGraphHp ||
      (cfg.mode == EngineMode::kHybrid && cfg.hybrid_regime_graphhp)) {
    rig.ghp = std::make_unique<GhpPath<P>>(rig.driver.get());
    rig.driver->InstallPath(rig.ghp.get(), /*active=*/true);
  }
  return rig;
}

JobConfig BaseConfig(EngineMode mode, uint32_t threads) {
  JobConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 4;
  cfg.num_threads = threads;
  cfg.msg_buffer_per_node = 120;  // forces spilling under push
  cfg.max_supersteps = 50;
  return cfg;
}

constexpr EngineMode kAllModes[] = {
    EngineMode::kPush,   EngineMode::kPushM,    EngineMode::kVPull,
    EngineMode::kBPull,  EngineMode::kHybrid,   EngineMode::kAdaptive,
    EngineMode::kGraphHp};

class MessagePathConformance : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MessagePathConformance, PageRankMatchesReference) {
  const auto g = TestGraph();
  constexpr int kSteps = 6;
  const auto expected = ReferencePageRank(g, kSteps);
  for (EngineMode mode : kAllModes) {
    JobConfig cfg = BaseConfig(mode, GetParam());
    cfg.max_supersteps = kSteps;
    auto rig = MakeRig(cfg, PageRankProgram{});
    ASSERT_TRUE(rig.driver->Load(g).ok()) << EngineModeName(mode);
    ASSERT_TRUE(rig.driver->Run().ok()) << EngineModeName(mode);
    const auto got = rig.Gather().ValueOrDie();
    ASSERT_EQ(got.size(), expected.size());
    for (size_t v = 0; v < got.size(); ++v) {
      ASSERT_NEAR(got[v], expected[v], 1e-12)
          << "mode=" << EngineModeName(mode) << " v=" << v;
    }
  }
}

TEST_P(MessagePathConformance, SsspMatchesBellmanFord) {
  const auto g = TestGraph();
  SsspProgram program;
  program.source = 17;
  const auto expected = ReferenceSssp(g, program.source);
  for (EngineMode mode : kAllModes) {
    JobConfig cfg = BaseConfig(mode, GetParam());
    cfg.max_supersteps = 200;
    auto rig = MakeRig(cfg, program);
    ASSERT_TRUE(rig.driver->Load(g).ok()) << EngineModeName(mode);
    ASSERT_TRUE(rig.driver->Run().ok()) << EngineModeName(mode);
    EXPECT_TRUE(rig.driver->converged()) << EngineModeName(mode);
    const auto got = rig.Gather().ValueOrDie();
    ASSERT_EQ(got.size(), expected.size());
    for (size_t v = 0; v < got.size(); ++v) {
      ASSERT_FLOAT_EQ(got[v], expected[v])
          << "mode=" << EngineModeName(mode) << " v=" << v;
    }
  }
}

TEST_P(MessagePathConformance, WccMatchesMinLabelFlood) {
  const auto g = TestGraph(23);
  const auto expected = ReferenceMinLabel(g);
  for (EngineMode mode : kAllModes) {
    JobConfig cfg = BaseConfig(mode, GetParam());
    cfg.max_supersteps = 200;
    auto rig = MakeRig(cfg, WccProgram{});
    ASSERT_TRUE(rig.driver->Load(g).ok()) << EngineModeName(mode);
    ASSERT_TRUE(rig.driver->Run().ok()) << EngineModeName(mode);
    EXPECT_TRUE(rig.driver->converged()) << EngineModeName(mode);
    const auto got = rig.Gather().ValueOrDie();
    EXPECT_EQ(got, expected) << EngineModeName(mode);
  }
}

TEST_P(MessagePathConformance, MetricsTagTheProducingPath) {
  // Every superstep record must carry the mode of the path that produced it,
  // and single-mode runs must never report another path's mode.
  const auto g = TestGraph();
  for (EngineMode mode : {EngineMode::kPush, EngineMode::kPushM,
                          EngineMode::kVPull, EngineMode::kBPull,
                          EngineMode::kAdaptive, EngineMode::kGraphHp}) {
    JobConfig cfg = BaseConfig(mode, GetParam());
    cfg.max_supersteps = 5;
    auto rig = MakeRig(cfg, PageRankProgram{});
    ASSERT_TRUE(rig.driver->Load(g).ok()) << EngineModeName(mode);
    ASSERT_TRUE(rig.driver->Run().ok()) << EngineModeName(mode);
    ASSERT_FALSE(rig.driver->stats().supersteps.empty());
    for (const auto& s : rig.driver->stats().supersteps) {
      EXPECT_EQ(s.mode, mode) << EngineModeName(mode) << " superstep "
                              << s.superstep;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, MessagePathConformance,
                         ::testing::Values(1u, 8u),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

TEST(MessagePathCapabilities, PathsDeclareTheirNeeds) {
  JobConfig cfg = BaseConfig(EngineMode::kHybrid, 1);
  SuperstepDriver<PageRankProgram> driver(cfg, PageRankProgram{},
                                          /*gas_engine=*/false);
  PushPath<PageRankProgram> push(&driver);
  PushMPath<PageRankProgram> pushm(&driver);
  BPullPath<PageRankProgram> bpull(&driver);
  VPullPath<PageRankProgram> vpull(&driver);
  AdaptivePath<PageRankProgram> adaptive(&driver);

  EXPECT_EQ(push.mode(), EngineMode::kPush);
  EXPECT_TRUE(push.needs_adjacency());
  EXPECT_FALSE(push.needs_veblocks());

  EXPECT_EQ(pushm.mode(), EngineMode::kPushM);
  EXPECT_TRUE(pushm.needs_adjacency());

  EXPECT_EQ(bpull.mode(), EngineMode::kBPull);
  EXPECT_FALSE(bpull.needs_adjacency());
  EXPECT_TRUE(bpull.needs_veblocks());

  EXPECT_EQ(vpull.mode(), EngineMode::kVPull);
  EXPECT_FALSE(vpull.needs_adjacency());
  EXPECT_FALSE(vpull.needs_veblocks());
  EXPECT_FALSE(vpull.supports_aggregator());
  EXPECT_FALSE(vpull.hybrid_metrics());

  // The adaptive path needs both layouts (push cells walk adjacency, pull
  // cells serve Eblocks) and answers pulls itself; per-cell mixing makes the
  // single-direction Q_t metric inapplicable.
  EXPECT_EQ(adaptive.mode(), EngineMode::kAdaptive);
  EXPECT_TRUE(adaptive.needs_adjacency());
  EXPECT_TRUE(adaptive.needs_veblocks());
  EXPECT_TRUE(adaptive.serves_pulls());
  EXPECT_FALSE(adaptive.hybrid_metrics());

  // Only pull-serving paths advertise ServePull.
  EXPECT_FALSE(push.serves_pulls());
  EXPECT_FALSE(pushm.serves_pulls());
  EXPECT_TRUE(bpull.serves_pulls());

  // Block paths participate in aggregation and hybrid accounting.
  EXPECT_TRUE(push.supports_aggregator());
  EXPECT_TRUE(bpull.hybrid_metrics());

  // GraphHP: push wire protocol plus the boundary/inner split, so it needs
  // both layouts. The sub-iteration hook is gated on the program's
  // locally-iterable trait: a no-op for PageRank (sum fold).
  GhpPath<PageRankProgram> ghp(&driver);
  EXPECT_EQ(ghp.mode(), EngineMode::kGraphHp);
  EXPECT_TRUE(ghp.needs_adjacency());
  EXPECT_TRUE(ghp.needs_veblocks());
  EXPECT_FALSE(ghp.serves_pulls());
  EXPECT_TRUE(ghp.supports_aggregator());
  NodeState node;
  std::vector<uint8_t> respond = {1, 1, 1};
  std::vector<uint8_t> values;
  bool dirty = false;
  EXPECT_TRUE(ghp.AfterVblockUpdate(node, 0, respond, values, &dirty).ok());
  EXPECT_EQ(respond, std::vector<uint8_t>({1, 1, 1}));
  EXPECT_FALSE(dirty);
}

TEST(MessagePathCapabilities, OnlyGraphHpSubIteratesAfterVblockUpdate) {
  // On a chain every edge but the Vblock's last stays inside it. For SSSP
  // the GraphHP hook runs the sub-iterations (superstep 0 carries every
  // intra-Vblock message into the inbox) and keeps only the respondents
  // whose out-edges cross the Vblock; the default hook leaves all flags.
  const EdgeListGraph g = GenerateChain(64, /*seed=*/3);
  for (const EngineMode mode : {EngineMode::kPush, EngineMode::kGraphHp}) {
    auto rig = MakeRig(BaseConfig(mode, 1), SsspProgram{});
    ASSERT_TRUE(rig.driver->Load(g).ok()) << EngineModeName(mode);
    MessagePath<SsspProgram>& path =
        rig.ghp ? static_cast<MessagePath<SsspProgram>&>(*rig.ghp)
                : *rig.push;
    NodeState& node = rig.driver->nodes()[0];
    const uint32_t vb = rig.driver->partition().FirstVblockOf(0);
    const VertexRange r = rig.driver->partition().VblockRange(vb);
    std::vector<uint8_t> values;
    ASSERT_TRUE(node.vstore->ReadBlock(vb, &values, IoClass::kSeqRead).ok());
    std::vector<uint8_t> respond(r.size(), 1);
    bool dirty = false;
    ASSERT_TRUE(
        path.AfterVblockUpdate(node, vb, respond, values, &dirty).ok());
    EXPECT_FALSE(dirty);  // superstep 0 delivers nothing locally
    if (mode == EngineMode::kPush) {
      EXPECT_EQ(respond, std::vector<uint8_t>(r.size(), 1));
      EXPECT_EQ(node.local_msg_bytes, 0u);
      continue;
    }
    for (uint32_t x = 0; x < r.size(); ++x) {
      EXPECT_EQ(respond[x], node.ve->CrossOutDegree(r.begin + x) > 0 ? 1 : 0)
          << "vertex " << r.begin + x;
    }
    EXPECT_EQ(respond.back(), 1);  // the chain edge leaving the Vblock
    EXPECT_GT(node.local_msg_bytes, 0u);
  }
}

TEST(MessagePathCapabilities, ServePullOnlyOnPullPaths) {
  // The driver routes kPullRequest to the b-pull slot; a path that does not
  // serve pulls must say so rather than silently answer.
  JobConfig cfg = BaseConfig(EngineMode::kPush, 1);
  SuperstepDriver<PageRankProgram> driver(cfg, PageRankProgram{},
                                          /*gas_engine=*/false);
  PushPath<PageRankProgram> push(&driver);
  NodeState node;
  Buffer response;
  const Status st = push.ServePull(node, 0, Slice(), &response);
  EXPECT_FALSE(st.ok());
}

// ------------------------------------------------- malformed wire payloads

// A Pull-Request naming a Vblock outside the partition must be rejected by
// the shared Pull-Respond kernel before it indexes anything, in both the
// legacy single-target and the deduped batched form, for both pull servers.
TEST(WireBounds, PullRequestTargetOutOfRangeIsCorruption) {
  const auto g = TestGraph();
  for (const EngineMode mode : {EngineMode::kBPull, EngineMode::kAdaptive}) {
    auto rig = MakeRig(BaseConfig(mode, 1), SsspProgram{});
    ASSERT_TRUE(rig.driver->Load(g).ok()) << EngineModeName(mode);
    const uint32_t num_vb = rig.driver->partition().num_vblocks();
    Buffer legacy;
    Encoder(&legacy).PutFixed32(num_vb);
    Buffer batched;
    Encoder enc(&batched);
    enc.PutFixed32(2);
    enc.PutFixed32(0);
    enc.PutFixed32(UINT32_MAX);
    for (const Buffer* payload : {&legacy, &batched}) {
      std::vector<uint8_t> response;
      const Status st = rig.driver->transport().Call(
          1, 0, RpcMethod::kPullRequest, payload->AsSlice(), &response);
      EXPECT_EQ(st.code(), StatusCode::kCorruption)
          << EngineModeName(mode) << ": " << st.ToString();
    }
  }
}

// Adaptive adverts name the receiver's Vblocks; one naming any other Vblock,
// or followed by stray bytes, must fail the next consume as Corruption
// instead of writing outside the request mask.
TEST(WireBounds, PullAdvertOutOfRangeOrTrailingIsCorruption) {
  const auto g = TestGraph();
  for (const bool trailing : {false, true}) {
    auto rig = MakeRig(BaseConfig(EngineMode::kAdaptive, 1), SsspProgram{});
    ASSERT_TRUE(rig.driver->Load(g).ok());
    ASSERT_TRUE(rig.driver->RunSuperstep().ok());
    Buffer advert;
    Encoder enc(&advert);
    if (trailing) {
      enc.PutFixed32(0);
      enc.PutU8(7);
    } else {
      enc.PutFixed32(1);
      enc.PutFixed32(rig.driver->partition().LastVblockOf(0));  // node 1's
    }
    ASSERT_TRUE(rig.driver->transport()
                    .Post(1, 0, RpcMethod::kPullAdvert, advert.AsSlice())
                    .ok());
    const Status st = rig.driver->RunSuperstep();
    EXPECT_EQ(st.code(), StatusCode::kCorruption)
        << "trailing=" << trailing << ": " << st.ToString();
  }
}

// A push batch naming a vertex the receiving node does not own must fail the
// drain as Corruption before the id becomes a local index: below the range
// the index underflows (pushM would read moc_cached out of bounds, push
// would later write the pending slot out of bounds), above it overruns.
TEST(WireBounds, PushBatchDestinationOutOfRangeIsCorruption) {
  const auto g = TestGraph();
  for (const EngineMode mode : {EngineMode::kPush, EngineMode::kPushM}) {
    for (const bool below : {true, false}) {
      auto rig = MakeRig(BaseConfig(mode, 1), PageRankProgram{});
      ASSERT_TRUE(rig.driver->Load(g).ok()) << EngineModeName(mode);
      // Node 1's range starts above vertex 0; node 0's ends below UINT32_MAX.
      const NodeId receiver = below ? 1 : 0;
      const uint32_t dst = below ? 0 : UINT32_MAX;
      Buffer batch;
      Encoder enc(&batch);
      enc.PutVarint64(1);
      enc.PutFixed32(dst);
      enc.PutDouble(1.0);  // one PageRank message
      ASSERT_TRUE(rig.driver->transport()
                      .Post(2, receiver, RpcMethod::kPushMessages,
                            batch.AsSlice())
                      .ok());
      const Status st = rig.driver->RunSuperstep();
      EXPECT_EQ(st.code(), StatusCode::kCorruption)
          << EngineModeName(mode) << " dst=" << dst << ": " << st.ToString();
    }
  }
}

// A Pull-Respond answer naming a vertex outside the requester's range must
// fail the requester's Phase A as Corruption before it indexes the pending
// set, in both the per-Vblock and the deduped request form.
TEST(WireBounds, PullResponseDestinationOutOfRangeIsCorruption) {
  const auto g = TestGraph();
  for (const bool dedup : {false, true}) {
    JobConfig cfg = BaseConfig(EngineMode::kBPull, 1);
    cfg.request_respond_dedup = dedup;
    auto rig = MakeRig(cfg, SsspProgram{});
    ASSERT_TRUE(rig.driver->Load(g).ok());
    // Node 0 answers every pull with one group for a vertex no node owns.
    rig.driver->transport().RegisterHandler(
        0, RpcMethod::kPullRequest, [](NodeId, Slice, Buffer* response) {
          Encoder enc(response);
          enc.PutVarint64(1);           // groups
          enc.PutFixed32(UINT32_MAX);   // dst
          enc.PutVarint64(1);           // payloads
          const std::vector<uint8_t> payload(SsspProgram::kMessageSize, 0);
          enc.PutRaw(payload.data(), payload.size());
          return Status::OK();
        });
    Status st;
    for (int step = 0; step < 3 && st.ok(); ++step) {
      st = rig.driver->RunSuperstep();
    }
    EXPECT_EQ(st.code(), StatusCode::kCorruption)
        << "dedup=" << dedup << ": " << st.ToString();
  }
}

// ------------------------------------------------------------- trace spans

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

size_t CountOccurrences(const std::string& hay, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(TraceSpans, HybridRunWritesChromeTracingJson) {
  const std::string path =
      ::testing::TempDir() + "/hg_trace_spans_test.json";
  std::remove(path.c_str());

  const auto g = TestGraph();
  JobConfig cfg = BaseConfig(EngineMode::kHybrid, 2);
  cfg.max_supersteps = 4;
  cfg.trace_path = path;
  auto rig = MakeRig(cfg, PageRankProgram{});
  ASSERT_TRUE(rig.driver->Load(g).ok());
  ASSERT_TRUE(rig.driver->Run().ok());
  EXPECT_GT(rig.driver->trace()->num_events(), 0u);

  const std::string json = ReadFileOrEmpty(path);
  ASSERT_FALSE(json.empty());
  // Trace Event Format essentials chrome://tracing requires.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Well-formed JSON object: balanced braces/brackets, object at top level.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(CountOccurrences(json, "{"), CountOccurrences(json, "}"));
  EXPECT_EQ(CountOccurrences(json, "["), CountOccurrences(json, "]"));
  // One driver-level span (pid 0) per phase per superstep, plus per-node
  // spans (pid = node+1) underneath.
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"consume\""),
            static_cast<size_t>(cfg.max_supersteps) * (1 + cfg.num_nodes));
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"update\""),
            static_cast<size_t>(cfg.max_supersteps) * (1 + cfg.num_nodes));
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"drain\""),
            static_cast<size_t>(cfg.max_supersteps) * (1 + cfg.num_nodes));
  // Span args carry the superstep and the mode name.
  EXPECT_NE(json.find("\"superstep\""), std::string::npos);
  EXPECT_NE(json.find("\"mode\""), std::string::npos);

  std::remove(path.c_str());
}

TEST(TraceSpans, PrefetchRunEmitsOverlapAndPrefetchSpans) {
  const std::string path =
      ::testing::TempDir() + "/hg_trace_prefetch_test.json";
  std::remove(path.c_str());

  const auto g = TestGraph();
  JobConfig cfg = BaseConfig(EngineMode::kPush, 2);
  cfg.max_supersteps = 3;
  cfg.io.prefetch_depth = 4;
  cfg.trace_path = path;
  auto rig = MakeRig(cfg, PageRankProgram{});
  ASSERT_TRUE(rig.driver->Load(g).ok());
  ASSERT_TRUE(rig.driver->Run().ok());

  const std::string json = ReadFileOrEmpty(path);
  ASSERT_FALSE(json.empty());
  // One warmup window per node per superstep (inside the drain phase)...
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"drain.overlap\""),
            static_cast<size_t>(cfg.max_supersteps) * cfg.num_nodes);
  // ...and one background-read window per claimed staged read.
  uint64_t hits = 0;
  for (const auto& s : rig.driver->stats().supersteps) {
    hits += s.prefetch_hits;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"io.prefetch\""),
            static_cast<size_t>(hits));

  std::remove(path.c_str());
}

TEST(TraceSpans, DisabledByDefaultAndZeroEvents) {
  const auto g = TestGraph();
  JobConfig cfg = BaseConfig(EngineMode::kBPull, 1);
  cfg.max_supersteps = 2;
  auto rig = MakeRig(cfg, PageRankProgram{});
  ASSERT_TRUE(rig.driver->Load(g).ok());
  ASSERT_TRUE(rig.driver->Run().ok());
  EXPECT_FALSE(rig.driver->trace()->enabled());
  EXPECT_EQ(rig.driver->trace()->num_events(), 0u);
}

TEST(TraceSpans, PhaseWallTimesPopulateMetrics) {
  const auto g = TestGraph();
  JobConfig cfg = BaseConfig(EngineMode::kPush, 1);
  cfg.max_supersteps = 3;
  auto rig = MakeRig(cfg, PageRankProgram{});
  ASSERT_TRUE(rig.driver->Load(g).ok());
  ASSERT_TRUE(rig.driver->Run().ok());
  for (const auto& s : rig.driver->stats().supersteps) {
    EXPECT_GE(s.phase_consume_wall_s, 0.0);
    EXPECT_GE(s.phase_update_wall_s, 0.0);
    EXPECT_GE(s.phase_drain_wall_s, 0.0);
    // The update sweep always does real work.
    EXPECT_GT(s.phase_update_wall_s, 0.0);
  }
}

}  // namespace
}  // namespace hybridgraph
