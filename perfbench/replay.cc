#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "core/inbox.h"
#include "core/send_staging.h"
#include "graph/adjacency_store.h"
#include "graph/ve_block_store.h"
#include "io/message_spill.h"
#include "io/storage.h"
#include "net/message_codec.h"
#include "net/transport.h"

namespace perfbench {

using namespace hybridgraph;
using Clock = std::chrono::steady_clock;

namespace {

/// Minimum wall time each replay keeps repeating its pass for.
constexpr double kBudgetS = 0.25;

/// Calls `pass` (which returns its own duration in seconds, or a negative
/// value on failure) at least three times and until `budget_s` has passed,
/// each inside a span named `name`. Returns the median pass time, or a
/// negative value if any pass failed.
template <typename F>
double TimePasses(SpanRecorder* spans, const std::string& name,
                  double budget_s, F&& pass) {
  std::vector<double> times;
  const auto t0 = Clock::now();
  while (times.size() < 3 ||
         (SecondsSince(t0) < budget_s && times.size() < 50)) {
    ScopedSpan span(spans, name);
    const double t = pass();
    if (t < 0) return -1;
    times.push_back(t);
  }
  return Median(std::move(times));
}

/// One message per edge, in edge order: (destination vertex, payload bytes
/// derived from the edge weight, msg_size wide).
struct MessageStream {
  size_t msg_size = 0;
  std::vector<VertexId> dst;
  std::vector<uint8_t> payload;
  const uint8_t* at(size_t i) const { return payload.data() + i * msg_size; }
  size_t size() const { return dst.size(); }
};

MessageStream MakeMessages(const EdgeListGraph& g, size_t msg_size,
                           const RangePartition& part, int only_node) {
  MessageStream m;
  m.msg_size = msg_size;
  for (const auto& e : g.edges) {
    if (only_node >= 0 && part.NodeOf(e.dst) != static_cast<NodeId>(only_node)) {
      continue;
    }
    m.dst.push_back(e.dst);
    uint8_t buf[16] = {};
    if (msg_size == sizeof(double)) {
      const double v = e.weight;
      std::memcpy(buf, &v, sizeof v);
    } else {
      std::memcpy(buf, &e.weight, std::min(msg_size, sizeof e.weight));
    }
    m.payload.insert(m.payload.end(), buf, buf + msg_size);
  }
  return m;
}

}  // namespace

bool RunReplays(const ReplayInput& in, SpanRecorder* spans,
                std::map<std::string, double>* out, std::string* why) {
  const EdgeListGraph& g = *in.graph;
  const RangePartition& part = in.partition;
  const uint32_t T = part.num_nodes();
  const size_t rec = 4 + in.msg_size;
  auto& o = *out;

  // ---- graph: store build, Eblock scans, adjacency reads -----------------
  std::vector<std::vector<RawEdge>> local(T);
  for (const auto& e : g.edges) local[part.NodeOf(e.src)].push_back(e);
  const auto in_degrees = g.InDegrees();
  std::vector<std::unique_ptr<MemStorage>> storage;
  std::vector<std::unique_ptr<VeBlockStore>> ve;
  std::vector<std::unique_ptr<AdjacencyStore>> adj;
  Status failed;
  const double build_s = TimePasses(spans, "graph.Build", 0, [&]() -> double {
    storage.clear();
    ve.clear();
    adj.clear();
    const auto t0 = Clock::now();
    for (uint32_t i = 0; i < T; ++i) {
      storage.push_back(std::make_unique<MemStorage>());
      auto v = VeBlockStore::Build(storage.back().get(), part, i, local[i],
                                   in_degrees);
      auto a = AdjacencyStore::Build(storage.back().get(), part, i, local[i]);
      if (!v.ok() || !a.ok()) {
        failed = !v.ok() ? v.status() : a.status();
        return -1;
      }
      ve.push_back(std::move(*v));
      adj.push_back(std::move(*a));
    }
    return SecondsSince(t0);
  });
  if (build_s < 0) {
    *why = "store build: " + failed.ToString();
    return false;
  }
  o["graph.build_s"] = build_s;

  uint64_t eblock_edges = 0, eblock_bytes = 0, eblock_count = 0;
  const double scan_s = TimePasses(spans, "graph.ScanEblock", kBudgetS,
                                   [&]() -> double {
    eblock_edges = eblock_bytes = eblock_count = 0;
    VeBlockStore::ScanResult r;
    const auto t0 = Clock::now();
    for (uint32_t i = 0; i < T; ++i) {
      for (uint32_t s = part.FirstVblockOf(i); s < part.LastVblockOf(i); ++s) {
        for (uint32_t d = 0; d < part.num_vblocks(); ++d) {
          if (!ve[i]->HasEdges(s, d)) continue;
          r.fragments.clear();
          Status st = ve[i]->ScanEblock(s, d, &r);
          if (!st.ok()) {
            failed = st;
            return -1;
          }
          for (const auto& f : r.fragments) eblock_edges += f.edges.size();
          eblock_bytes += ve[i]->Index(s, d).total_bytes();
          ++eblock_count;
        }
      }
    }
    return SecondsSince(t0);
  });
  if (scan_s < 0) {
    *why = "ScanEblock: " + failed.ToString();
    return false;
  }
  if (eblock_edges != g.edges.size()) {
    *why = "Eblock scan saw " + std::to_string(eblock_edges) + " of " +
           std::to_string(g.edges.size()) + " edges";
    return false;
  }
  o["graph.eblock_scan_meps"] = eblock_edges / scan_s / 1e6;

  uint64_t adj_edges = 0;
  const double adj_s = TimePasses(spans, "graph.ReadBlock", kBudgetS,
                                  [&]() -> double {
    adj_edges = 0;
    std::vector<AdjacencyStore::VertexAdj> block;
    const auto t0 = Clock::now();
    for (uint32_t i = 0; i < T; ++i) {
      for (uint32_t b = part.FirstVblockOf(i); b < part.LastVblockOf(i); ++b) {
        block.clear();
        Status st = adj[i]->ReadBlock(b, &block);
        if (!st.ok()) {
          failed = st;
          return -1;
        }
        for (const auto& va : block) adj_edges += va.out.size();
      }
    }
    return SecondsSince(t0);
  });
  if (adj_s < 0 || adj_edges != g.edges.size()) {
    *why = "adjacency ReadBlock: " + failed.ToString();
    return false;
  }
  o["graph.adj_read_meps"] = adj_edges / adj_s / 1e6;
  ve.clear();
  adj.clear();
  storage.clear();

  // ---- io: ranged reads at the mean Eblock size ---------------------------
  {
    const uint64_t len =
        std::max<uint64_t>(1, eblock_count ? eblock_bytes / eblock_count : 1);
    MemStorage st;
    const uint64_t blob = std::max<uint64_t>(len * 64, 4 << 20);
    std::vector<uint8_t> bytes(blob, 0x5a);
    if (!st.Write("replay/blob", Slice(bytes), IoClass::kSeqWrite).ok()) {
      *why = "storage write";
      return false;
    }
    std::vector<double> us;
    ScopedSpan span(spans, "io.StorageService.Read");
    uint64_t off = 0;
    for (int k = 0; k < 4000; ++k) {
      const auto t0 = Clock::now();
      auto r = st.Read("replay/blob", {.offset = off, .length = len});
      us.push_back(SecondsSince(t0) * 1e6);
      if (!r.ok() || r->data.size() != len) {
        *why = "ranged read";
        return false;
      }
      off = (off + len * 7) % (blob - len);
    }
    o["io.read_us"] = Median(std::move(us));
  }

  // ---- core: staging, inbox, pending --------------------------------------
  const MessageStream all = MakeMessages(g, in.msg_size, part, -1);
  const double staging_s = TimePasses(spans, "core.SendStaging", kBudgetS,
                                      [&]() -> double {
    SendStaging staging;
    staging.Init(T, in.msg_size, nullptr);
    Buffer frame;
    const uint64_t limit = in.sending_threshold_bytes;
    const auto t0 = Clock::now();
    for (size_t i = 0; i < all.size(); ++i) {
      const NodeId dst = part.NodeOf(all.dst[i]);
      staging.Append(dst, all.dst[i], all.at(i));
      if (staging.count(dst) * rec >= limit) {
        frame.Clear();
        staging.EncodeBatch(dst, &frame);
        staging.Clear(dst);
      }
    }
    for (uint32_t d = 0; d < T; ++d) {
      frame.Clear();
      staging.EncodeBatch(d, &frame);
      staging.Clear(d);
    }
    return SecondsSince(t0);
  });
  o["core.staging_append_mps"] = all.size() / staging_s / 1e6;

  const uint64_t bi = std::max<uint64_t>(
      1, std::min<uint64_t>(in.buffer_per_node, all.size()));
  const double inbox_s = TimePasses(spans, "core.MessageInbox", kBudgetS,
                                    [&]() -> double {
    MessageInbox inbox;
    inbox.Init(in.msg_size, nullptr);
    const auto t0 = Clock::now();
    for (size_t i = 0; i < all.size(); ++i) {
      inbox.Append(all.dst[i], all.at(i));
      if (inbox.count() == bi) inbox.ClearMem();
    }
    return SecondsSince(t0);
  });
  o["core.inbox_append_mps"] = all.size() / inbox_s / 1e6;

  const double pending_s = TimePasses(spans, "core.PendingSet", kBudgetS,
                                      [&]() -> double {
    std::vector<PendingSet> pending(T);
    for (uint32_t i = 0; i < T; ++i) {
      pending[i].Init(part.NodeRange(i).size(), in.msg_size, in.combiner);
    }
    const auto t0 = Clock::now();
    for (size_t i = 0; i < all.size(); ++i) {
      const NodeId n = part.NodeOf(all.dst[i]);
      pending[n].Add(all.dst[i] - part.NodeRange(n).begin, all.at(i));
    }
    return SecondsSince(t0);
  });
  o["core.pending_add_mps"] = all.size() / pending_s / 1e6;

  // ---- io: receiver-side spill of node 0's incoming messages --------------
  const MessageStream node0 = MakeMessages(g, in.msg_size, part, 0);
  {
    const uint64_t run = std::max<uint64_t>(
        1, std::min<uint64_t>(in.buffer_per_node, node0.size()));
    double write_total = 0, merge_total = 0;
    std::vector<double> write_s, merge_s;
    const auto t_start = Clock::now();
    while (write_s.size() < 3 ||
           (SecondsSince(t_start) < kBudgetS && write_s.size() < 50)) {
      std::vector<std::vector<SpillEntry>> runs;
      for (size_t i = 0; i < node0.size(); i += run) {
        std::vector<SpillEntry> entries;
        for (size_t k = i; k < std::min<size_t>(i + run, node0.size()); ++k) {
          entries.push_back(
              {node0.dst[k], std::vector<uint8_t>(node0.at(k),
                                                  node0.at(k) + in.msg_size)});
        }
        runs.push_back(std::move(entries));
      }
      MemStorage st;
      MessageSpill spill(&st, "replay/spill", in.msg_size);
      {
        ScopedSpan span(spans, "io.MessageSpill.SpillRun");
        const auto t0 = Clock::now();
        for (auto& r : runs) {
          if (!spill.SpillRun(std::move(r)).ok()) {
            *why = "SpillRun";
            return false;
          }
        }
        write_total = SecondsSince(t0);
      }
      std::vector<SpillEntry> merged;
      {
        ScopedSpan span(spans, "io.MessageSpill.MergeReadAll");
        const auto t0 = Clock::now();
        if (!spill.MergeReadAll(&merged).ok()) {
          *why = "MergeReadAll";
          return false;
        }
        merge_total = SecondsSince(t0);
      }
      if (merged.size() != node0.size()) {
        *why = "spill merge returned " + std::to_string(merged.size()) +
               " of " + std::to_string(node0.size()) + " entries";
        return false;
      }
      write_s.push_back(write_total);
      merge_s.push_back(merge_total);
    }
    o["io.spill_write_mps"] = node0.size() / Median(write_s) / 1e6;
    o["io.spill_merge_mps"] = node0.size() / Median(merge_s) / 1e6;
  }

  // ---- net: batch codecs and transport post -------------------------------
  {
    const size_t per_batch =
        std::max<size_t>(1, in.sending_threshold_bytes / rec);
    std::vector<std::vector<std::pair<uint32_t, std::vector<uint8_t>>>> flat;
    for (size_t i = 0; i < node0.size(); i += per_batch) {
      flat.emplace_back();
      for (size_t k = i; k < std::min(i + per_batch, node0.size()); ++k) {
        flat.back().push_back(
            {node0.dst[k],
             std::vector<uint8_t>(node0.at(k), node0.at(k) + in.msg_size)});
      }
    }
    const double flat_s = TimePasses(spans, "net.FlatBatchCodec", kBudgetS,
                                     [&]() -> double {
      Buffer buf;
      std::vector<std::pair<uint32_t, std::vector<uint8_t>>> decoded;
      size_t n = 0;
      const auto t0 = Clock::now();
      for (const auto& batch : flat) {
        buf.Clear();
        decoded.clear();
        FlatBatchCodec::Encode(batch, in.msg_size, &buf);
        if (!FlatBatchCodec::Decode(buf.AsSlice(), in.msg_size, &decoded)
                 .ok()) {
          return -1;
        }
        n += decoded.size();
      }
      const double s = SecondsSince(t0);
      return n == node0.size() ? s : -1;
    });
    if (flat_s < 0) {
      *why = "flat codec round trip";
      return false;
    }
    o["net.flat_codec_mps"] = node0.size() / flat_s / 1e6;

    // Pull-Respond batches: per batch, one combined payload per destination
    // (the default bpull_combining wire shape), destinations ascending.
    std::vector<std::vector<GroupedBatchCodec::Group>> grouped;
    size_t group_msgs = 0;
    for (const auto& batch : flat) {
      std::vector<std::pair<uint32_t, std::vector<uint8_t>>> sorted = batch;
      std::stable_sort(sorted.begin(), sorted.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      grouped.emplace_back();
      for (auto& m : sorted) {
        auto& gs = grouped.back();
        if (!gs.empty() && gs.back().dst == m.first && in.combiner != nullptr) {
          in.combiner(gs.back().payloads[0].data(), m.second.data());
          continue;
        }
        gs.push_back({m.first, {std::move(m.second)}});
        ++group_msgs;
      }
    }
    const double grouped_s = TimePasses(spans, "net.GroupedBatchCodec",
                                        kBudgetS, [&]() -> double {
      Buffer buf;
      std::vector<GroupedBatchCodec::Group> decoded;
      size_t n = 0;
      const auto t0 = Clock::now();
      for (const auto& gs : grouped) {
        buf.Clear();
        decoded.clear();
        GroupedBatchCodec::Encode(gs, in.msg_size, &buf);
        if (!GroupedBatchCodec::Decode(buf.AsSlice(), in.msg_size, &decoded)
                 .ok()) {
          return -1;
        }
        for (const auto& grp : decoded) n += grp.payloads.size();
      }
      const double s = SecondsSince(t0);
      return n == group_msgs ? s : -1;
    });
    if (grouped_s < 0) {
      *why = "grouped codec round trip";
      return false;
    }
    o["net.grouped_codec_mps"] = group_msgs / grouped_s / 1e6;

    InProcTransport transport(2);
    transport.RegisterHandler(
        1, RpcMethod::kPushMessages,
        [](NodeId, Slice, Buffer*) { return Status::OK(); });
    if (!transport.Start().ok()) {
      *why = "transport start";
      return false;
    }
    const size_t frame = static_cast<size_t>(std::max(
        1.0, in.mean_frame_bytes > 0 ? in.mean_frame_bytes
                                     : double(in.sending_threshold_bytes)));
    std::vector<uint8_t> payload(frame, 0x3c);
    std::vector<double> us;
    ScopedSpan span(spans, "net.InProcTransport.Post");
    for (int k = 0; k < 4000; ++k) {
      const auto t0 = Clock::now();
      Status st = transport.Post(0, 1, RpcMethod::kPushMessages, Slice(payload));
      us.push_back(SecondsSince(t0) * 1e6);
      if (!st.ok()) {
        *why = "Post: " + st.ToString();
        return false;
      }
    }
    o["net.post_us"] = Median(std::move(us));
  }
  return true;
}

}  // namespace perfbench
