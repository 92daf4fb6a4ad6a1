// The flat message plane: sender staging, in-place push apply, flat spill
// runs and the replace-top merge heap must reproduce exactly the bytes and
// orders of the per-message forms (vector-of-pairs batches, SpillEntry runs,
// a stable sort by destination) that the wire and run formats are defined
// by.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "core/message_flow.h"
#include "core/node_state.h"
#include "core/send_staging.h"
#include "io/message_spill.h"
#include "io/storage.h"
#include "net/message_codec.h"
#include "util/codec.h"
#include "util/message_arena.h"
#include "util/rng.h"

namespace hybridgraph {
namespace {

constexpr size_t kMsg = 8;

std::vector<uint8_t> Payload(uint64_t v) {
  std::vector<uint8_t> p(kMsg);
  std::memcpy(p.data(), &v, kMsg);
  return p;
}

uint64_t ValueOf(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, kMsg);
  return v;
}

/// Order-sensitive combiner: folding a, b, c yields (a*31 + b)*31 + c, so a
/// change in fold order changes the result.
void FoldCombine(uint8_t* acc, const uint8_t* other) {
  const uint64_t v = ValueOf(acc) * 31 + ValueOf(other);
  std::memcpy(acc, &v, kMsg);
}

using Records = std::vector<std::pair<uint32_t, std::vector<uint8_t>>>;

/// The push wire format written field by field with the Encoder.
Buffer ReferenceFlatBatch(const Records& records) {
  Buffer buf;
  Encoder enc(&buf);
  enc.PutVarint64(records.size());
  for (const auto& [dst, payload] : records) {
    enc.PutFixed32(dst);
    enc.PutRaw(payload.data(), payload.size());
  }
  return buf;
}

/// The grouped wire format written field by field with the Encoder.
Buffer ReferenceGroupedBatch(
    const std::vector<GroupedBatchCodec::Group>& groups) {
  Buffer buf;
  Encoder enc(&buf);
  enc.PutVarint64(groups.size());
  for (const auto& g : groups) {
    enc.PutFixed32(g.dst);
    enc.PutVarint64(g.payloads.size());
    for (const auto& p : g.payloads) enc.PutRaw(p.data(), p.size());
  }
  return buf;
}

/// The run format from its definition: stable sort by destination, fold
/// equal destinations into the first occurrence when `combine`, then
/// fixed64 count + (fixed32 dst, payload) records.
std::vector<uint8_t> ReferenceRunBlob(std::vector<SpillEntry> entries,
                                      bool combine) {
  std::stable_sort(entries.begin(), entries.end(),
                   [](const SpillEntry& a, const SpillEntry& b) {
                     return a.dst < b.dst;
                   });
  std::vector<SpillEntry> out;
  for (auto& e : entries) {
    if (combine && !out.empty() && out.back().dst == e.dst) {
      FoldCombine(out.back().payload.data(), e.payload.data());
    } else {
      out.push_back(std::move(e));
    }
  }
  Buffer buf;
  Encoder enc(&buf);
  enc.PutFixed64(out.size());
  for (const auto& e : out) {
    enc.PutFixed32(e.dst);
    enc.PutRaw(e.payload.data(), e.payload.size());
  }
  return buf.TakeBytes();
}

std::vector<uint8_t> ReadBlob(MemStorage& storage, const std::string& key) {
  auto r = storage.Read(key);
  EXPECT_TRUE(r.ok()) << key;
  return r.ok() ? r->data : std::vector<uint8_t>{};
}

// --------------------------------------------------------------- staging

TEST(MessagePlane, StagingEncodeMatchesFlatCodec) {
  for (const bool combine : {false, true}) {
    SCOPED_TRACE(combine ? "sender combining" : "append only");
    constexpr uint32_t kDests = 3;
    Rng rng(7);
    SendStaging staging;
    staging.Init(kDests, kMsg, combine ? &FoldCombine : nullptr);
    std::vector<Records> ref(kDests);
    std::vector<std::map<uint32_t, size_t>> ref_index(kDests);
    uint64_t hits = 0;
    for (int i = 0; i < 3000; ++i) {
      const auto node = static_cast<uint32_t>(rng.NextBounded(kDests));
      const auto v = static_cast<uint32_t>(rng.NextBounded(300));
      const std::vector<uint8_t> p = Payload(rng.Next());
      if (combine) {
        const auto [it, inserted] =
            ref_index[node].try_emplace(v, ref[node].size());
        ASSERT_EQ(staging.TryCombine(node, v, p.data()), !inserted);
        if (!inserted) {
          FoldCombine(ref[node][it->second].second.data(), p.data());
          ++hits;
          continue;
        }
      }
      staging.Append(node, v, p.data());
      ref[node].emplace_back(v, p);
    }
    EXPECT_EQ(hits > 0, combine);
    for (uint32_t d = 0; d < kDests; ++d) {
      ASSERT_EQ(staging.count(d), ref[d].size());
      Buffer got;
      Buffer adapter;
      staging.EncodeBatch(d, &got);
      FlatBatchCodec::Encode(ref[d], kMsg, &adapter);
      const Buffer want = ReferenceFlatBatch(ref[d]);
      EXPECT_EQ(got.bytes(), want.bytes()) << "dest " << d;
      EXPECT_EQ(adapter.bytes(), want.bytes()) << "dest " << d;
      staging.Clear(d);
      EXPECT_EQ(staging.count(d), 0u);
    }
    if (combine) {
      // Clear also drops the combining index: the next message for a vertex
      // seen before the flush opens a fresh slot.
      const std::vector<uint8_t> p = Payload(1);
      EXPECT_FALSE(staging.TryCombine(0, ref[0].front().first, p.data()));
    }
  }
}

TEST(MessagePlane, FlatBatchViewMatchesDecodeAndRejectsOversizedCount) {
  Records records;
  for (uint32_t i = 0; i < 40; ++i) records.emplace_back(i * 13, Payload(i));
  const Buffer buf = ReferenceFlatBatch(records);
  FlatBatchView view;
  ASSERT_TRUE(FlatBatchView::Parse(buf.AsSlice(), kMsg, &view).ok());
  ASSERT_EQ(view.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(view.dst(i), records[i].first);
    EXPECT_EQ(ValueOf(view.payload(i)), i);
  }
  Records decoded;
  ASSERT_TRUE(FlatBatchCodec::Decode(buf.AsSlice(), kMsg, &decoded).ok());
  EXPECT_EQ(decoded, records);
  // One byte short of the last record: the count no longer fits.
  EXPECT_EQ(FlatBatchView::Parse(Slice(buf.data(), buf.size() - 1), kMsg, &view)
                .code(),
            StatusCode::kCorruption);
}

TEST(MessagePlane, GroupedBuilderMatchesGroupedWireFormat) {
  // Groups open in first-arrival order and keep their payloads in arrival
  // order however the arrivals interleave.
  Rng rng(3);
  GroupedBatchBuilder builder(kMsg);
  std::vector<GroupedBatchCodec::Group> groups;
  std::map<uint32_t, uint32_t> group_of;
  for (int i = 0; i < 500; ++i) {
    const auto dst = static_cast<uint32_t>(rng.NextBounded(60));
    const std::vector<uint8_t> p = Payload(rng.Next());
    auto [it, inserted] = group_of.try_emplace(dst, 0);
    if (inserted) {
      it->second = builder.OpenGroup(dst);
      groups.push_back({dst, {}});
    }
    builder.Add(it->second, p.data());
    groups[it->second].payloads.push_back(p);
  }
  Buffer got;
  Buffer adapter;
  builder.Encode(&got);
  GroupedBatchCodec::Encode(groups, kMsg, &adapter);
  const Buffer want = ReferenceGroupedBatch(groups);
  EXPECT_EQ(got.bytes(), want.bytes());
  EXPECT_EQ(adapter.bytes(), want.bytes());
  EXPECT_EQ(builder.EncodedSize(), want.size());
  EXPECT_EQ(GroupedBatchCodec::EncodedSize(groups, kMsg), want.size());
  // In-place decode walks the same groups with the same payloads.
  size_t gi = 0;
  ASSERT_TRUE(GroupedBatchCodec::ForEachGroup(
                  want.AsSlice(), kMsg,
                  [&](uint32_t dst, uint64_t n, const uint8_t* p) -> Status {
                    EXPECT_EQ(dst, groups[gi].dst);
                    EXPECT_EQ(n, groups[gi].payloads.size());
                    for (uint64_t j = 0; j < n; ++j) {
                      EXPECT_EQ(ValueOf(p + j * kMsg),
                                ValueOf(groups[gi].payloads[j].data()));
                    }
                    ++gi;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(gi, groups.size());
}

// ------------------------------------------------------------ spill runs

TEST(MessagePlane, FlatSpillRunBlobMatchesSpillEntryForm) {
  for (const bool combine : {false, true}) {
    SCOPED_TRACE(combine ? "combiner armed" : "no combiner");
    MemStorage flat_storage;
    MemStorage entry_storage;
    MessageSpill flat(&flat_storage, "s", kMsg);
    MessageSpill entries(&entry_storage, "s", kMsg);
    if (combine) {
      flat.set_combiner(&FoldCombine);
      entries.set_combiner(&FoldCombine);
    }
    Rng rng(11);
    for (int run = 0; run < 4; ++run) {
      MessageArena arena(kMsg);
      std::vector<SpillEntry> es;
      for (int i = 0; i < 500; ++i) {
        const auto dst = static_cast<uint32_t>(rng.NextBounded(60));
        const std::vector<uint8_t> p = Payload(rng.Next());
        arena.Append(dst, p.data());
        es.push_back({dst, p});
      }
      const std::vector<uint8_t> want = ReferenceRunBlob(es, combine);
      ASSERT_TRUE(flat.SpillRun(arena).ok());
      ASSERT_TRUE(entries.SpillRun(es).ok());
      const std::string key = "s/run-00000" + std::to_string(run);
      EXPECT_EQ(ReadBlob(flat_storage, key), want) << key;
      EXPECT_EQ(ReadBlob(entry_storage, key), want) << key;
      // The flat form reads its arena without changing it.
      for (size_t i = 0; i < es.size(); ++i) {
        ASSERT_EQ(arena.dst(i), es[i].dst);
        ASSERT_EQ(ValueOf(arena.payload(i)), ValueOf(es[i].payload.data()));
      }
    }
    EXPECT_EQ(flat.num_messages(), entries.num_messages());
    EXPECT_EQ(flat.bytes_written(), entries.bytes_written());
    EXPECT_EQ(flat.combined_at_spill(), entries.combined_at_spill());
    EXPECT_EQ(flat.combined_at_spill() > 0, combine);
  }
}

// ----------------------------------------------------------------- merge

TEST(MessagePlane, ManyRunMergeEmitsDstRunPositionOrder) {
  // 171 runs: the per-node, per-superstep run count of a B_i = 2,500 push
  // job on the orkut model. Tiny per-run buffers force many refills.
  constexpr int kRuns = 171;
  for (const bool combine : {false, true}) {
    SCOPED_TRACE(combine ? "combiner armed" : "no combiner");
    MemStorage storage;
    MessageSpill spill(&storage, "m", kMsg);
    if (combine) spill.set_combiner(&FoldCombine);
    Rng rng(5);
    // (dst, run, position) -> payload value, the order the merge must emit.
    std::vector<std::tuple<uint32_t, int, int, uint64_t>> all;
    for (int run = 0; run < kRuns; ++run) {
      MessageArena arena(kMsg);
      const int n = 1 + static_cast<int>(rng.NextBounded(40));
      for (int pos = 0; pos < n; ++pos) {
        const auto dst = static_cast<uint32_t>(rng.NextBounded(50));
        const uint64_t value = rng.Next() >> 8;
        const std::vector<uint8_t> p = Payload(value);
        arena.Append(dst, p.data());
        all.emplace_back(dst, run, pos, value);
      }
      ASSERT_TRUE(spill.SpillRun(arena).ok());
    }
    ASSERT_EQ(spill.num_runs(), static_cast<size_t>(kRuns));
    std::sort(all.begin(), all.end());

    // Expected emission. Combining folds within a run at spill time
    // (position order), then across runs at merge time (run order).
    std::vector<std::pair<uint32_t, uint64_t>> want;
    size_t i = 0;
    while (i < all.size()) {
      const uint32_t dst = std::get<0>(all[i]);
      if (!combine) {
        want.emplace_back(dst, std::get<3>(all[i]));
        ++i;
        continue;
      }
      uint8_t acc[kMsg] = {};
      bool have_acc = false;
      while (i < all.size() && std::get<0>(all[i]) == dst) {
        const int run = std::get<1>(all[i]);
        uint8_t run_acc[kMsg] = {};
        std::memcpy(run_acc, Payload(std::get<3>(all[i])).data(), kMsg);
        for (++i; i < all.size() && std::get<0>(all[i]) == dst &&
                  std::get<1>(all[i]) == run;
             ++i) {
          FoldCombine(run_acc, Payload(std::get<3>(all[i])).data());
        }
        if (have_acc) {
          FoldCombine(acc, run_acc);
        } else {
          std::memcpy(acc, run_acc, kMsg);
          have_acc = true;
        }
      }
      want.emplace_back(dst, ValueOf(acc));
    }

    auto it = spill.NewMergeIterator(/*buffer_bytes_per_run=*/3 * (4 + kMsg));
    ASSERT_TRUE(it.ok()) << it.status().ToString();
    std::vector<std::pair<uint32_t, uint64_t>> got;
    while ((*it)->Valid()) {
      got.emplace_back((*it)->entry().dst,
                       ValueOf((*it)->entry().payload.data()));
      ASSERT_TRUE((*it)->Next().ok());
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ((*it)->entries_read(), spill.num_messages());
    EXPECT_EQ(spill.combined_at_spill() + (*it)->merge_combined() + got.size(),
              all.size());
  }
}

// ------------------------------------------------------------ push apply

struct ApplyRig {
  MemStorage storage;
  NodeState node;
  PushApplyPolicy policy;

  explicit ApplyRig(VertexRange range, uint64_t buffer_cap) {
    node.id = 1;
    node.range = range;
    node.inbox_next.Init(
        kMsg, std::make_unique<MessageSpill>(&storage, "n/spill", kMsg));
    node.push_overflow.Init(kMsg);
    policy.msg_size = kMsg;
    policy.buffer_cap = buffer_cap;
  }
};

TEST(MessagePlane, ApplyPushBatchFillsBufferThenSpillsInBatchOrder) {
  ApplyRig rig({100, 200}, /*buffer_cap=*/10);
  Rng rng(9);
  Records records;
  for (int i = 0; i < 50; ++i) {
    records.emplace_back(100 + static_cast<uint32_t>(rng.NextBounded(100)),
                         Payload(static_cast<uint64_t>(i)));
  }
  const Buffer batch = ReferenceFlatBatch(records);
  ASSERT_TRUE(ApplyPushBatch(rig.node, batch.AsSlice(), rig.policy).ok());

  MessageInbox& inbox = rig.node.inbox_next;
  EXPECT_EQ(inbox.total, 50u);
  EXPECT_EQ(inbox.spilled, 40u);
  ASSERT_EQ(inbox.count(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(inbox.dst(i), records[i].first);
    EXPECT_EQ(ValueOf(inbox.payload(i)), i);
  }
  // The overflow is one run, stably sorted by destination.
  ASSERT_EQ(inbox.spill()->num_runs(), 1u);
  std::vector<SpillEntry> overflow;
  for (size_t i = 10; i < records.size(); ++i) {
    overflow.push_back({records[i].first, records[i].second});
  }
  EXPECT_EQ(ReadBlob(rig.storage, "n/spill/run-000000"),
            ReferenceRunBlob(overflow, /*combine=*/false));
}

TEST(MessagePlane, ApplyPushBatchOnlineComputeFoldsCachedVertices) {
  ApplyRig rig({100, 104}, /*buffer_cap=*/0);
  rig.policy.online_compute = true;
  rig.policy.combinable = true;
  rig.policy.combiner = &FoldCombine;
  rig.node.moc_cached = {1, 0, 1, 0};
  rig.node.moc_has.assign(4, 0);
  rig.node.moc_acc.assign(4 * kMsg, 0);
  const Records records = {{100, Payload(1)}, {101, Payload(2)},
                           {100, Payload(3)}, {103, Payload(4)},
                           {102, Payload(5)}};
  const Buffer batch = ReferenceFlatBatch(records);
  ASSERT_TRUE(ApplyPushBatch(rig.node, batch.AsSlice(), rig.policy).ok());
  EXPECT_EQ(rig.node.moc_has, (std::vector<uint8_t>{1, 0, 1, 0}));
  EXPECT_EQ(ValueOf(rig.node.moc_acc.data()), 1u * 31 + 3);
  EXPECT_EQ(ValueOf(rig.node.moc_acc.data() + 2 * kMsg), 5u);
  // Uncached vertices bypass B_i and spill.
  EXPECT_EQ(rig.node.inbox_next.count(), 0u);
  EXPECT_EQ(rig.node.inbox_next.spilled, 2u);
  EXPECT_EQ(rig.node.inbox_next.total, 5u);
  EXPECT_EQ(rig.node.inbox_next.spill()->num_messages(), 2u);
}

TEST(MessagePlane, ApplyPushMessagesEqualsApplyingTheEncodedBatch) {
  ApplyRig direct({0, 64}, /*buffer_cap=*/7);
  ApplyRig wire({0, 64}, /*buffer_cap=*/7);
  MessageArena msgs(kMsg);
  Records records;
  Rng rng(13);
  for (int i = 0; i < 30; ++i) {
    const auto dst = static_cast<uint32_t>(rng.NextBounded(64));
    const std::vector<uint8_t> p = Payload(rng.Next());
    msgs.Append(dst, p.data());
    records.emplace_back(dst, p);
  }
  ASSERT_TRUE(ApplyPushMessages(direct.node, msgs, direct.policy).ok());
  const Buffer batch = ReferenceFlatBatch(records);
  ASSERT_TRUE(ApplyPushBatch(wire.node, batch.AsSlice(), wire.policy).ok());
  ASSERT_EQ(direct.node.inbox_next.count(), wire.node.inbox_next.count());
  for (size_t i = 0; i < direct.node.inbox_next.count(); ++i) {
    EXPECT_EQ(direct.node.inbox_next.dst(i), wire.node.inbox_next.dst(i));
  }
  EXPECT_EQ(ReadBlob(direct.storage, "n/spill/run-000000"),
            ReadBlob(wire.storage, "n/spill/run-000000"));
}

}  // namespace
}  // namespace hybridgraph
