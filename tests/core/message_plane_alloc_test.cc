// Heap allocations of the flat message plane in steady state. The global
// operator new is replaced with a counting one (hence a binary of its own);
// a per-message heap object anywhere on stage -> encode -> apply -> spill ->
// merge would show up as O(messages) allocations per batch. Sanitizer builds
// interpose their own allocator, so there the replacement is left out and
// the tests skip.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

#include "core/message_flow.h"
#include "core/node_state.h"
#include "core/send_staging.h"
#include "io/message_spill.h"
#include "io/storage.h"
#include "net/message_codec.h"
#include "util/message_arena.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HG_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define HG_ALLOC_COUNTING 0
#endif
#endif
#ifndef HG_ALLOC_COUNTING
#define HG_ALLOC_COUNTING 1
#endif

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

#if HG_ALLOC_COUNTING
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace hybridgraph {
namespace {

constexpr size_t kMsg = 8;
/// Allocation budget per batch, independent of its message count: the run
/// key, and the blob plus its map node inside MemStorage (4 measured with
/// libstdc++; one heap object per message would be >= 1000).
constexpr uint64_t kPerBatchBudget = 8;

/// Allocations made while running `fn`.
template <typename Fn>
uint64_t CountAllocations(Fn&& fn) {
  const uint64_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

Buffer MakeBatch(uint32_t n, uint32_t num_vertices) {
  MessageArena msgs(kMsg);
  uint8_t payload[kMsg] = {};
  for (uint32_t i = 0; i < n; ++i) {
    std::memcpy(payload, &i, sizeof(i));
    msgs.Append((i * 2654435761u) % num_vertices, payload);
  }
  Buffer batch;
  FlatBatchCodec::Encode(msgs, &batch);
  return batch;
}

class MessagePlaneAllocs : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!HG_ALLOC_COUNTING) GTEST_SKIP() << "sanitizer allocator interposed";
  }
};

TEST_F(MessagePlaneAllocs, SteadyStateApplyPushBatchIsConstantPerBatch) {
  constexpr uint32_t kVertices = 4096;
  MemStorage storage;
  NodeState node;
  node.range = {0, kVertices};
  node.inbox_next.Init(
      kMsg, std::make_unique<MessageSpill>(&storage, "n/spill", kMsg));
  node.push_overflow.Init(kMsg);
  PushApplyPolicy policy;
  policy.msg_size = kMsg;
  policy.buffer_cap = 100;  // B_i fills on the first batch; the rest spill

  const Buffer small = MakeBatch(1000, kVertices);
  const Buffer large = MakeBatch(4000, kVertices);
  // Warm-up grows the reused arenas to their steady-state capacity.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(ApplyPushBatch(node, large.AsSlice(), policy).ok());
  }
  const uint64_t runs_before = node.inbox_next.spill()->num_runs();
  const uint64_t a_small = CountAllocations([&] {
    ASSERT_TRUE(ApplyPushBatch(node, small.AsSlice(), policy).ok());
  });
  const uint64_t a_large = CountAllocations([&] {
    ASSERT_TRUE(ApplyPushBatch(node, large.AsSlice(), policy).ok());
  });
  EXPECT_EQ(node.inbox_next.spill()->num_runs(), runs_before + 2);
  EXPECT_LE(a_small, kPerBatchBudget);
  EXPECT_LE(a_large, kPerBatchBudget);
}

TEST_F(MessagePlaneAllocs, SteadyStateSpillRunIsConstantPerRun) {
  MemStorage storage;
  MessageSpill spill(&storage, "s", kMsg);
  MessageArena run(kMsg);
  uint8_t payload[kMsg] = {};
  for (uint32_t i = 0; i < 1000; ++i) run.Append(i % 97, payload);
  ASSERT_TRUE(spill.SpillRun(run).ok());
  const uint64_t allocs =
      CountAllocations([&] { ASSERT_TRUE(spill.SpillRun(run).ok()); });
  EXPECT_LE(allocs, kPerBatchBudget);
}

TEST_F(MessagePlaneAllocs, SteadyStateStagingAppendAndEncodeAllocateNothing) {
  SendStaging staging;
  staging.Init(4, kMsg, nullptr);
  uint8_t payload[kMsg] = {};
  Buffer frame;
  auto fill_and_encode = [&] {
    for (uint32_t i = 0; i < 1365; ++i) staging.Append(i % 4, i, payload);
    for (uint32_t d = 0; d < 4; ++d) {
      frame.Clear();
      staging.EncodeBatch(d, &frame);
      staging.Clear(d);
    }
  };
  fill_and_encode();
  EXPECT_EQ(CountAllocations(fill_and_encode), 0u);
}

TEST_F(MessagePlaneAllocs, MergeDrainWithinLoadedChunksAllocatesNothing) {
  constexpr int kRuns = 20;
  MemStorage storage;
  MessageSpill spill(&storage, "m", kMsg);
  MessageArena run(kMsg);
  uint8_t payload[kMsg] = {};
  for (uint32_t i = 0; i < 1000; ++i) run.Append(i % 331, payload);
  for (int r = 0; r < kRuns; ++r) ASSERT_TRUE(spill.SpillRun(run).ok());
  // 1000 records x 12 bytes fit one default merge chunk: Open loads every
  // run, so draining the merge needs no allocation at all.
  auto it = spill.NewMergeIterator(MessageSpill::kDefaultMergeBufferBytes);
  ASSERT_TRUE(it.ok());
  uint64_t emitted = 0;
  const uint64_t allocs = CountAllocations([&] {
    while ((*it)->Valid()) {
      ++emitted;
      ASSERT_TRUE((*it)->Next().ok());
    }
  });
  EXPECT_EQ(emitted, static_cast<uint64_t>(kRuns) * 1000);
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace hybridgraph
