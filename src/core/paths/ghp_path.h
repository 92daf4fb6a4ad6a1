// The GraphHP MessagePath (EngineMode::kGraphHp): push production with
// intra-block asynchrony in the style of GraphHP (arXiv:1706.07221).
//
// Right after the driver's Phase B update of each Vblock, this path runs
// the block's *inner* vertices (every edge inside the Vblock) to local
// convergence in memory (AfterVblockUpdate -> RunLocalSubIterations), so
// only boundary traffic crosses the barrier, through the unchanged push
// staging / flush / inbox machinery. Both mode-specific halves are gated on
// the program's locally-iterable trait (monotone idempotent folds like
// SSSP/BFS/WCC); for any other program (PageRank's sum) the gate is off and
// this path behaves EXACTLY like PushPath — same messages, same bytes, same
// supersteps:
//
//   * AfterVblockUpdate runs the sub-iterations;
//   * ProduceVblock is the shared PushProduce kernel with intra-Vblock
//     edges filtered out: their messages were delivered in memory or
//     carried into the inbox already; producing them again would
//     double-deliver.
//
// Everything else — Consume, warmup, flush, accounting, mirrors — is
// inherited from PushPath unchanged, which is what keeps the differential
// guarantee cheap to believe: the wire protocol and consume side are
// literally the push code.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/paths/push_path.h"
#include "core/trace.h"
#include "graph/ve_block_store.h"
#include "net/message_codec.h"
#include "util/failpoint.h"

namespace hybridgraph {

template <typename P>
class GhpPath : public PushPath<P> {
 public:
  using Value = typename P::Value;
  using Message = typename P::Message;

  explicit GhpPath(SuperstepDriver<P>* driver) : PushPath<P>(driver) {}

  EngineMode mode() const override { return EngineMode::kGraphHp; }
  /// The boundary/inner split and the inner-adjacency sidecar live in the
  /// VE-BLOCK store.
  bool needs_veblocks() const override { return true; }

  Status AfterVblockUpdate(NodeState& node, uint32_t vb,
                           std::vector<uint8_t>& respond_in_vb,
                           std::vector<uint8_t>& values,
                           bool* block_dirty) override {
    if constexpr (LocallyIterable<P>) {
      return RunLocalSubIterations(node, vb, respond_in_vb, values,
                                   block_dirty);
    } else {
      return PushPath<P>::AfterVblockUpdate(node, vb, respond_in_vb, values,
                                            block_dirty);
    }
  }

  Status ProduceVblock(NodeState& node, uint32_t vb,
                       const std::vector<uint8_t>& respond_in_vb,
                       const std::vector<uint8_t>& block_values) override {
    if constexpr (!LocallyIterable<P>) {
      // No sub-iterations ran: plain push, bit-for-bit.
      return PushPath<P>::ProduceVblock(node, vb, respond_in_vb, block_values);
    }
    // Intra-Vblock edges are skipped — the sub-iterations already delivered
    // (or carried) their messages. The whole adjacency block is still read
    // and scanned; only the cross-Vblock share generates messages.
    const RangePartition& partition = this->driver_->partition();
    return this->PushProduce(node, vb, respond_in_vb, block_values,
                             [&](const Edge& e) {
                               return partition.VblockOf(e.dst) != vb;
                             });
  }

 private:
  /// GraphHP-style local sub-iterations over one Vblock (intra-block
  /// asynchrony): after the global Phase B sweep updated the block, keep
  /// propagating messages along intra-Vblock edges in memory — no barrier,
  /// no wire — until quiescence or a total of config.ghp_max_local_iters
  /// sweeps (the global Phase B counts as the first). Only reached for
  /// locally-iterable programs: the update must be a monotone idempotent
  /// fold, so this chaotic relaxation reaches the same least fixpoint as the
  /// synchronous schedule.
  ///
  /// Message routing per round: messages to *inner* destinations (every edge
  /// inside the Vblock) are delivered and their updates run immediately —
  /// that is the sub-iteration; messages to *boundary* destinations are
  /// carried into inbox_next through the path's push-apply policy (consumed
  /// next superstep, spilling on overflow like any pushed batch, but never
  /// metered as wire traffic). At the sweep cap every undelivered message —
  /// inner destinations included — is carried, so nothing is lost.
  ///
  /// Afterwards the respond flags are rewritten: only respondents with
  /// cross-Vblock out-edges still need the produce sweep (it ships exactly
  /// those edges); everyone else's output was fully handled here.
  /// Convergence stays exact — carried messages keep inflight > 0.
  Status RunLocalSubIterations(NodeState& node, uint32_t vb,
                               std::vector<uint8_t>& respond_in_vb,
                               std::vector<uint8_t>& values,
                               bool* block_dirty) {
    SuperstepDriver<P>& driver = *this->driver_;
    const JobConfig& config = driver.config();
    const RangePartition& partition = driver.partition();
    const VertexRange r = partition.VblockRange(vb);
    const uint32_t first_vb = partition.FirstVblockOf(node.id);
    constexpr size_t kMsgSize = P::kMessageSize;
    constexpr size_t kMsgRecordSize = SuperstepDriver<P>::kMsgRecordSize;

    // Round 0 senders: the Phase B respondents, ascending id.
    std::vector<VertexId> current;
    for (uint32_t x = 0; x < r.size(); ++x) {
      if (respond_in_vb[x]) current.push_back(r.begin + x);
    }

    if (!current.empty() && node.ve->InnerIndex(vb).num_edges > 0) {
      // One metered sidecar scan serves every round of this superstep.
      VeBlockStore::ScanResult scan;
      HG_RETURN_IF_ERROR(node.ve->ScanInner(vb, &scan, node.pipeline.get()));
      node.io.eblock_edge_bytes += scan.edge_bytes;
      node.io.fragment_aux_bytes += scan.aux_bytes;
      std::vector<int32_t> frag_of(r.size(), -1);
      for (size_t f = 0; f < scan.fragments.size(); ++f) {
        frag_of[scan.fragments[f].src - r.begin] = static_cast<int32_t>(f);
      }

      std::vector<std::pair<uint32_t, std::vector<uint8_t>>> carry;
      uint64_t depth = 0;
      while (!current.empty()) {
        // Produce this round's intra-Vblock messages from the senders.
        std::map<VertexId, std::vector<Message>> local;  // inner dsts, ordered
        uint64_t produced = 0;
        for (VertexId v : current) {
          const int32_t f = frag_of[v - r.begin];
          if (f < 0) continue;
          const Value value = PodCodec<Value>::Decode(
              values.data() + static_cast<size_t>(v - r.begin) * P::kValueSize);
          const uint32_t out_degree = node.vstore->OutDegree(v);
          const auto& frag = scan.fragments[static_cast<size_t>(f)];
          node.cpu_seconds +=
              config.cpu.per_edge_s * static_cast<double>(frag.edges.size());
          node.edges_scanned += frag.edges.size();
          for (const Edge& e : frag.edges) {
            const Message m =
                driver.program().GenMessage(v, value, out_degree, e,
                                            driver.ctx());
            node.cpu_seconds += config.cpu.per_message_s;
            ++produced;
            if (node.ve->IsBoundary(e.dst)) {
              std::vector<uint8_t> bytes(kMsgSize);
              PodCodec<Message>::Encode(m, bytes.data());
              carry.emplace_back(e.dst, std::move(bytes));
            } else {
              local[e.dst].push_back(m);
            }
          }
        }
        current.clear();
        if (produced == 0) break;  // quiescent: no sender had intra out-edges
        // Superstep 0 is announce-only (programs ignore messages in Update
        // until superstep 1), so local delivery would drop them — carry
        // everything, exactly like hitting the sweep cap.
        if (driver.superstep() == 0 ||
            depth + 1 >= config.ghp_max_local_iters) {
          // Sweep cap reached. Carry every undelivered message — the inner
          // destinations consume theirs from the inbox next superstep.
          for (auto& [dst, msgs] : local) {
            for (const Message& m : msgs) {
              std::vector<uint8_t> bytes(kMsgSize);
              PodCodec<Message>::Encode(m, bytes.data());
              carry.emplace_back(dst, std::move(bytes));
            }
          }
          break;
        }
        if (local.empty()) break;  // every message crossed to the carry
        HG_FAIL_POINT("ghp.local");
        TraceSpan span(driver.trace(), "local.iter", driver.superstep(),
                       static_cast<int>(node.id), EngineMode::kGraphHp);
        ++depth;
        ++node.local_iters;
        // Deliver to the inner destinations in ascending id order and run
        // their updates against the in-hand block values.
        for (auto& [dst, msgs] : local) {
          const size_t at = static_cast<size_t>(dst - r.begin) * P::kValueSize;
          const UpdateResult res = driver.UpdateVertex(
              node, dst, values.data() + at, msgs, block_dirty);
          node.local_msg_bytes += msgs.size() * kMsgRecordSize;
          if (res.respond) current.push_back(dst);
          node.active[node.LocalIdx(dst)] = 0;
        }
      }
      if (!carry.empty()) {
        Buffer payload;
        FlatBatchCodec::Encode(carry, kMsgSize, &payload);
        HG_RETURN_IF_ERROR(
            ApplyPushBatch(node, payload.AsSlice(), this->apply_policy_));
        node.local_msg_bytes += carry.size() * kMsgRecordSize;
      }
      node.local_depth = std::max(node.local_depth, depth);
    }

    // Respond-flag rewrite: keep only respondents whose cross-Vblock
    // out-edges still need the produce sweep. Inner respondents (and
    // cross-in-only boundary respondents) had every out-edge handled above.
    bool any_respond = false;
    for (uint32_t x = 0; x < r.size(); ++x) {
      if (!respond_in_vb[x]) continue;
      const VertexId v = r.begin + x;
      if (node.ve->CrossOutDegree(v) == 0) {
        respond_in_vb[x] = 0;
        node.responding_next[node.LocalIdx(v)] = 0;
      } else {
        any_respond = true;
      }
    }
    node.vblock_res_next[vb - first_vb] = any_respond ? 1 : 0;
    return Status::OK();
  }
};

}  // namespace hybridgraph
