// Micro-benchmarks (google-benchmark) of the substrate hot paths: codec,
// message batch encode/decode, storage access, spill merge, Eblock scan, and
// the flat message-plane kernels (staging, push apply, spill run, merge).
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>

#include "core/message_flow.h"
#include "core/node_state.h"
#include "core/send_staging.h"
#include "graph/generator.h"
#include "graph/ve_block_store.h"
#include "io/message_spill.h"
#include "io/storage.h"
#include "net/message_codec.h"
#include "util/codec.h"
#include "util/message_arena.h"
#include "util/rng.h"

namespace hybridgraph {
namespace {

void BM_VarintEncode(benchmark::State& state) {
  Rng rng(1);
  std::vector<uint64_t> values(1024);
  for (auto& v : values) v = rng.Next() >> (rng.Next() % 64);
  Buffer buf;
  for (auto _ : state) {
    buf.Clear();
    Encoder enc(&buf);
    for (uint64_t v : values) enc.PutVarint64(v);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_VarintEncode);

void BM_VarintDecode(benchmark::State& state) {
  Rng rng(1);
  Buffer buf;
  Encoder enc(&buf);
  constexpr int kN = 1024;
  for (int i = 0; i < kN; ++i) enc.PutVarint64(rng.Next() >> (rng.Next() % 64));
  for (auto _ : state) {
    Decoder dec(buf.AsSlice());
    uint64_t v;
    for (int i = 0; i < kN; ++i) {
      benchmark::DoNotOptimize(dec.GetVarint64(&v));
    }
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_VarintDecode);

void BM_FlatBatchRoundTrip(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> msgs;
  std::vector<uint8_t> payload(8, 0xAB);
  for (int i = 0; i < n; ++i) msgs.emplace_back(i * 7, payload);
  for (auto _ : state) {
    Buffer buf;
    FlatBatchCodec::Encode(msgs, 8, &buf);
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>> out;
    benchmark::DoNotOptimize(FlatBatchCodec::Decode(buf.AsSlice(), 8, &out));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FlatBatchRoundTrip)->Arg(256)->Arg(4096);

void BM_MemStorageReadRange(benchmark::State& state) {
  MemStorage storage;
  std::vector<uint8_t> blob(1 << 20, 7);
  (void)storage.Write("k", Slice(blob), IoClass::kSeqWrite);
  Rng rng(3);
  for (auto _ : state) {
    const uint64_t off = rng.NextBounded((1 << 20) - 16);
    benchmark::DoNotOptimize(storage.Read(
        "k", {.offset = off, .length = 16, .io_class = IoClass::kRandRead}));
  }
}
BENCHMARK(BM_MemStorageReadRange);

void BM_SpillMerge(benchmark::State& state) {
  const int runs = 8;
  const int per_run = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    MemStorage storage;
    MessageSpill spill(&storage, "b", 8);
    Rng rng(5);
    std::vector<uint8_t> payload(8, 1);
    for (int r = 0; r < runs; ++r) {
      std::vector<SpillEntry> entries;
      entries.reserve(per_run);
      for (int i = 0; i < per_run; ++i) {
        entries.push_back({static_cast<uint32_t>(rng.NextBounded(10000)),
                           payload});
      }
      (void)spill.SpillRun(std::move(entries));
    }
    state.ResumeTiming();
    std::vector<SpillEntry> out;
    benchmark::DoNotOptimize(spill.MergeReadAll(&out));
  }
  state.SetItemsProcessed(state.iterations() * runs * per_run);
}
BENCHMARK(BM_SpillMerge)->Arg(1000)->Arg(10000);

// ------------------------------------------------------- flat message plane
// Shapes of the pr-push-spill perfbench workload: 8-byte PageRank messages,
// a 16 KiB sending threshold (1,365 records per frame), B_i = 2,500 and the
// 171 spilled runs one node merges per superstep.
constexpr size_t kPlaneMsg = 8;
constexpr uint64_t kSendingThreshold = 16 * 1024;
constexpr uint32_t kFrameRecords = kSendingThreshold / (4 + kPlaneMsg) + 1;

MessageArena RandomArena(uint32_t n, uint32_t num_vertices, uint64_t seed) {
  MessageArena msgs(kPlaneMsg);
  Rng rng(seed);
  uint8_t payload[kPlaneMsg] = {};
  for (uint32_t i = 0; i < n; ++i) {
    std::memcpy(payload, &i, sizeof(i));
    msgs.Append(static_cast<uint32_t>(rng.NextBounded(num_vertices)), payload);
  }
  return msgs;
}

void BM_StagingAppendEncode(benchmark::State& state) {
  constexpr uint32_t kDests = 5;
  const MessageArena msgs = RandomArena(100000, 15500, 1);
  SendStaging staging;
  staging.Init(kDests, kPlaneMsg, nullptr);
  Buffer frame;
  for (auto _ : state) {
    for (size_t i = 0; i < msgs.size(); ++i) {
      const uint32_t d = msgs.dst(i) % kDests;
      staging.Append(d, msgs.dst(i), msgs.payload(i));
      if (staging.count(d) * (4 + kPlaneMsg) >= kSendingThreshold) {
        frame.Clear();
        staging.EncodeBatch(d, &frame);
        staging.Clear(d);
        benchmark::DoNotOptimize(frame.data());
      }
    }
    for (uint32_t d = 0; d < kDests; ++d) staging.Clear(d);
  }
  state.SetItemsProcessed(state.iterations() * msgs.size());
}
BENCHMARK(BM_StagingAppendEncode);

void BM_ApplyPushBatchOverflow(benchmark::State& state) {
  // One superstep's worth of frames into one node: the first B_i messages
  // stay in memory, every later one goes through the overflow arena into a
  // spilled run.
  constexpr uint32_t kVertices = 3100;
  constexpr int kFrames = 40;
  MemStorage storage;
  NodeState node;
  node.range = {0, kVertices};
  node.inbox_next.Init(kPlaneMsg, std::make_unique<MessageSpill>(
                                      &storage, "n/spill", kPlaneMsg));
  node.push_overflow.Init(kPlaneMsg);
  PushApplyPolicy policy;
  policy.msg_size = kPlaneMsg;
  policy.buffer_cap = 2500;
  Buffer frame;
  FlatBatchCodec::Encode(RandomArena(kFrameRecords, kVertices, 2), &frame);
  for (auto _ : state) {
    for (int f = 0; f < kFrames; ++f) {
      benchmark::DoNotOptimize(
          ApplyPushBatch(node, frame.AsSlice(), policy).ok());
    }
    state.PauseTiming();
    node.inbox_next.ClearMem();
    (void)node.inbox_next.spill()->Clear();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kFrames * kFrameRecords);
}
BENCHMARK(BM_ApplyPushBatchOverflow);

void BM_FlatSpillRun(benchmark::State& state) {
  constexpr int kRuns = 40;
  const MessageArena run = RandomArena(kFrameRecords, 3100, 3);
  MemStorage storage;
  MessageSpill spill(&storage, "s", kPlaneMsg);
  for (auto _ : state) {
    for (int r = 0; r < kRuns; ++r) {
      benchmark::DoNotOptimize(spill.SpillRun(run).ok());
    }
    state.PauseTiming();
    (void)spill.Clear();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kRuns * kFrameRecords);
}
BENCHMARK(BM_FlatSpillRun);

void BM_Merge171Runs(benchmark::State& state) {
  constexpr int kRuns = 171;
  MemStorage storage;
  MessageSpill spill(&storage, "m", kPlaneMsg);
  for (int r = 0; r < kRuns; ++r) {
    (void)spill.SpillRun(RandomArena(kFrameRecords, 3100, 10 + r));
  }
  for (auto _ : state) {
    auto it = spill.NewMergeIterator(MessageSpill::kDefaultMergeBufferBytes);
    uint64_t sum = 0;
    while ((*it)->Valid()) {
      sum += (*it)->entry().dst;
      (void)(*it)->Next();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kRuns * kFrameRecords);
}
BENCHMARK(BM_Merge171Runs);

void BM_EblockScan(benchmark::State& state) {
  const auto graph = GeneratePowerLaw(5000, 12.0, 0.8, 9);
  auto partition = RangePartition::CreateUniform(5000, 2, 8).ValueOrDie();
  std::vector<RawEdge> local;
  for (const auto& e : graph.edges) {
    if (partition.NodeOf(e.src) == 0) local.push_back(e);
  }
  MemStorage storage;
  auto store = VeBlockStore::Build(&storage, partition, 0, local,
                                   graph.InDegrees())
                   .ValueOrDie();
  VeBlockStore::ScanResult scan;
  for (auto _ : state) {
    for (uint32_t svb = 0; svb < 8; ++svb) {
      for (uint32_t dvb = 0; dvb < 16; ++dvb) {
        benchmark::DoNotOptimize(store->ScanEblock(svb, dvb, &scan));
      }
    }
  }
}
BENCHMARK(BM_EblockScan);

}  // namespace
}  // namespace hybridgraph

BENCHMARK_MAIN();
