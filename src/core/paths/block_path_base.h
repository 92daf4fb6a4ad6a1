// Shared base for the block-centric MessagePaths (push / pushM / b-pull /
// adaptive / graphhp): one topology build via the driver, the push-batch
// apply/collect policies fixed at Build() time, the accounting/promotion
// plumbing, and the paper's two production operators as single kernels —
// PushProduce (pushRes()) and PullRespond (pullRes(), Algorithm 2). The
// modes differ only in the edge or cell filter they hand those kernels.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/message_flow.h"
#include "core/message_path.h"
#include "core/mirror_table.h"
#include "core/superstep_accounting.h"
#include "core/superstep_driver.h"
#include "graph/adjacency_store.h"
#include "graph/ve_block_store.h"
#include "net/message_codec.h"
#include "util/codec.h"
#include "util/string_util.h"

namespace hybridgraph {

template <typename P>
class BlockPathBase : public MessagePath<P> {
 public:
  using Value = typename P::Value;
  using Message = typename P::Message;

  explicit BlockPathBase(SuperstepDriver<P>* driver) : driver_(driver) {}

  void BeginAccounting() override {
    BeginBlockAccounting(driver_->nodes(), driver_->transport());
  }

  Status AfterConsume(uint32_t i) override {
    MergePullServeCounters(driver_->nodes()[i], driver_->config().num_nodes);
    return Status::OK();
  }

  Status UpdateProduce(uint32_t i) override {
    return driver_->UpdateVblocks(driver_->nodes()[i], *this);
  }

  Status AfterProduce(uint32_t i) override {
    // Unconditional for every block producer: under b-pull production the
    // staging is empty and this is a no-op, but the hybrid switch supersteps
    // rely on the drain always running.
    return DrainStagedPushBatches(driver_->nodes()[i],
                                  driver_->config().num_nodes, apply_policy_);
  }

  SuperstepMetrics EndAccounting(EngineMode produce_mode,
                                 bool switched) override {
    std::vector<NodeState>& nodes = driver_->nodes();
    std::vector<uint64_t> extra(nodes.size(), 0);
    for (size_t i = 0; i < nodes.size(); ++i) {
      extra[i] = ExtraMemoryBytes(nodes[i]);
    }
    BlockAccountingInputs in;
    in.superstep = driver_->superstep();
    in.produce_mode = produce_mode;
    in.switched = switched;
    in.config = &driver_->config();
    in.partition = &driver_->partition();
    in.transport = &driver_->transport();
    in.fault_snapshot = driver_->fault_snapshot();
    in.extra_memory_bytes = &extra;
    return AccumulateBlockMetrics(nodes, in);
  }

  void Promote(uint64_t* responding_total,
               uint64_t* inflight_messages) override {
    PromoteBlockState(driver_->nodes(), responding_total, inflight_messages);
  }

 protected:
  /// pushRes(): reads Vblock `vb`'s adjacency block once and broadcasts
  /// along the out-edges of its responding vertices, skipping any edge for
  /// which keep_edge(e) is false. Each message goes through the hot-vertex
  /// mirror fold, then sender combining (pushM+com, Appendix E), then the
  /// per-destination staging buffer with its threshold flush. Vertex values
  /// are still in hand from the update pass (compute() in Giraph is one
  /// pass), so no extra value I/O is charged. `keep_edge` is a template
  /// functor so the keep-everything case costs nothing per edge.
  template <typename KeepEdge>
  Status PushProduce(NodeState& node, uint32_t vb,
                     const std::vector<uint8_t>& respond_in_vb,
                     const std::vector<uint8_t>& block_values,
                     KeepEdge keep_edge) {
    if (std::none_of(respond_in_vb.begin(), respond_in_vb.end(),
                     [](uint8_t rf) { return rf != 0; })) {
      return Status::OK();
    }

    const JobConfig& config = driver_->config();
    const RangePartition& partition = driver_->partition();
    // Stage the next Vblock's adjacency before consuming this one
    // (responding blocks cluster, so the speculative read usually lands);
    // a wrong guess is just dropped from the pipeline later.
    if (node.pipeline && node.pipeline->enabled() &&
        vb + 1 < partition.LastVblockOf(node.id)) {
      node.adj->PrefetchBlock(vb + 1, node.pipeline.get());
    }
    std::vector<AdjacencyStore::VertexAdj> adj;
    HG_RETURN_IF_ERROR(node.adj->ReadBlock(vb, &adj, node.pipeline.get()));
    node.io.adj_edge_bytes += node.adj->BlockBytes(vb);
    node.cpu_seconds +=
        config.cpu.per_edge_s * static_cast<double>(node.adj->BlockEdges(vb));
    node.edges_scanned += node.adj->BlockEdges(vb);

    const VertexRange r = partition.VblockRange(vb);
    std::vector<uint8_t> msg_bytes(P::kMessageSize);
    for (const auto& va : adj) {
      const uint32_t in_block = va.id - r.begin;
      if (!respond_in_vb[in_block]) continue;
      const Value value = PodCodec<Value>::Decode(
          block_values.data() + static_cast<size_t>(in_block) * P::kValueSize);
      const uint32_t out_degree = node.vstore->OutDegree(va.id);
      for (const Edge& e : va.out) {
        if (!keep_edge(e)) continue;
        const Message m = driver_->program().GenMessage(va.id, value,
                                                        out_degree, e,
                                                        driver_->ctx());
        ++node.msgs_produced;
        node.cpu_seconds += config.cpu.per_message_s;
        const NodeId dst_node = partition.NodeOf(e.dst);
        PodCodec<Message>::Encode(m, msg_bytes.data());
        // Degree-aware mirroring: sends to a hot vertex fold into the local
        // accumulator and ship once per (node, vertex) at FinishProduce.
        if (MirrorFold(node, e.dst, msg_bytes.data())) continue;
        if (config.push_sender_combining && P::kCombinable) {
          // pushM+com (Appendix E): combine with a message for the same
          // destination still sitting in this staging buffer.
          const bool hit =
              node.staging.TryCombine(dst_node, e.dst, msg_bytes.data());
          node.cpu_seconds += config.cpu.per_combine_s;
          if (hit) {
            ++node.msgs_combined;
            continue;
          }
        }
        node.staging.Append(dst_node, e.dst, msg_bytes.data());
        node.mem_highwater = std::max<uint64_t>(
            node.mem_highwater,
            node.staging.count(dst_node) * (4 + P::kMessageSize));
        HG_RETURN_IF_ERROR(FlushStagedMessages(
            node, driver_->transport(), dst_node, /*force=*/false,
            config.sending_threshold_bytes, 4 + P::kMessageSize));
      }
    }
    return Status::OK();
  }

  /// End of a push sweep: stages the folded mirror accumulators, then
  /// force-flushes every destination's staging buffer in node order,
  /// calling after_flush(y) right after destination y's flush (adaptive
  /// posts its pull advert there).
  template <typename AfterFlush>
  Status FlushAllStaged(NodeState& node, AfterFlush after_flush) {
    DrainMirrors(node);
    for (uint32_t y = 0; y < driver_->config().num_nodes; ++y) {
      HG_RETURN_IF_ERROR(FlushStagedMessages(
          node, driver_->transport(), y, /*force=*/true,
          driver_->config().sending_threshold_bytes, 4 + P::kMessageSize));
      HG_RETURN_IF_ERROR(after_flush(y));
    }
    return Status::OK();
  }

  /// pullRes(): Algorithm 2 (Pull-Respond) for the target Vblocks named in
  /// `payload`, requested by `requester`, over the cells g_{vb, target} of
  /// this node's responding Vblocks that have edges and pass
  /// serve_cell(vb, target). Runs in the requester's thread; all accounting
  /// goes to the per-requester staging slot (merged after the Phase A
  /// barrier) so concurrent pulls to this node never touch its shared
  /// counters. A target outside the partition is Corruption.
  template <typename ServeCell>
  Status PullRespond(NodeState& node, NodeId requester, Slice payload,
                     Buffer* response, ServeCell serve_cell) {
    NodeState::PullServe& serve = node.pull_serve[requester];
    const JobConfig& config = driver_->config();
    const RangePartition& partition = driver_->partition();
    // Legacy payload = one target Vblock; the deduped request–respond form
    // batches every target into one round trip, answered by one combined
    // grouped batch (targets have disjoint destination ranges, so the group
    // lists concatenate safely).
    std::vector<uint32_t> targets;
    HG_RETURN_IF_ERROR(DecodePullRequestTargets(payload, &targets));
    for (const uint32_t target_vb : targets) {
      if (target_vb >= partition.num_vblocks()) {
        return Status::Corruption(
            StringFormat("pull request targets Vblock %u of %u", target_vb,
                         partition.num_vblocks()));
      }
    }

    // pullRes() generates the messages that push's pushRes() would have sent
    // at the previous superstep, so it runs under that superstep's context
    // (same GenMessage inputs either way — programs stay mode-agnostic).
    SuperstepContext gen_ctx = driver_->ctx();
    gen_ctx.superstep = gen_ctx.superstep - 1;
    gen_ctx.prev_aggregate = driver_->pull_gen_aggregate();

    // Sending buffer BS, grouped per destination vertex in one flat arena.
    GroupedBatchBuilder bs(P::kMessageSize);
    std::vector<int64_t> group_of;  // dst (local to requester block) -> index

    std::vector<uint8_t> value_bytes;
    std::vector<uint8_t> msg_bytes(P::kMessageSize);
    uint64_t produced = 0;
    uint64_t combined_away = 0;

    const uint32_t first_vb = partition.FirstVblockOf(node.id);
    const uint32_t last_vb = partition.LastVblockOf(node.id);
    std::vector<uint32_t> candidates;
    for (const uint32_t target_vb : targets) {
      const VertexRange dst_range = partition.VblockRange(target_vb);
      group_of.assign(dst_range.size(), -1);

      // Step 1-2: X_j.res and the bitmap gate the Eblock scan. The candidate
      // list is known up front, so the pipeline stays one Eblock ahead of
      // the scan below.
      candidates.clear();
      for (uint32_t vb = first_vb; vb < last_vb; ++vb) {
        if (!node.vblock_res[vb - first_vb]) continue;
        if (!node.ve->HasEdges(vb, target_vb)) continue;
        if (!serve_cell(vb, target_vb)) continue;
        candidates.push_back(vb);
      }
      for (size_t ci = 0; ci < candidates.size(); ++ci) {
        const uint32_t vb = candidates[ci];
        if (ci + 1 < candidates.size() && node.pipeline) {
          node.ve->PrefetchEblock(candidates[ci + 1], target_vb,
                                  node.pipeline.get());
        }

        VeBlockStore::ScanResult scan;
        HG_RETURN_IF_ERROR(
            node.ve->ScanEblock(vb, target_vb, &scan, node.pipeline.get()));
        serve.io.eblock_edge_bytes += scan.edge_bytes;
        serve.io.fragment_aux_bytes += scan.aux_bytes;
        // Decoding scans the whole Eblock, useless edges included (Appendix
        // C: small V means big Eblocks whose extra edges waste
        // bandwidth/CPU).
        serve.cpu_seconds +=
            config.cpu.per_edge_s *
            static_cast<double>(node.ve->Index(vb, target_vb).num_edges);
        serve.edges += node.ve->Index(vb, target_vb).num_edges;

        for (const auto& frag : scan.fragments) {
          if (!node.responding[node.LocalIdx(frag.src)]) continue;
          // Random read of the source vertex triple (the IO(V_rr) cost).
          HG_RETURN_IF_ERROR(
              node.vstore->ReadValueRandom(frag.src, &value_bytes));
          serve.io.vrr_bytes += node.vstore->record_size();
          const Value value = PodCodec<Value>::Decode(value_bytes.data());
          const uint32_t out_degree = node.vstore->OutDegree(frag.src);

          for (const auto& e : frag.edges) {
            const Message m = driver_->program().GenMessage(
                frag.src, value, out_degree, e, gen_ctx);
            ++produced;
            serve.cpu_seconds += config.cpu.per_message_s;
            int64_t& gi = group_of[e.dst - dst_range.begin];
            if (gi < 0) gi = bs.OpenGroup(e.dst);
            const uint32_t g = static_cast<uint32_t>(gi);
            const bool combine = P::kCombinable && config.bpull_combining;
            if (combine && bs.group_size(g) > 0) {
              // Combine into the single slot.
              uint8_t* slot = bs.first_payload(g);
              const Message prev = PodCodec<Message>::Decode(slot);
              PodCodec<Message>::Encode(P::Combine(prev, m), slot);
              ++combined_away;
            } else {
              PodCodec<Message>::Encode(m, msg_bytes.data());
              bs.Add(g, msg_bytes.data());
              if (!combine && bs.group_size(g) > 1) {
                ++combined_away;  // concatenation: shares the dst id on wire
              }
            }
          }
        }
      }
    }

    serve.msgs_produced += produced;
    serve.msgs_combined += combined_away;
    serve.msgs_wire += produced - combined_away;
    // BS memory accounting: grouped batch bytes staged before transfer.
    const uint64_t bs_bytes = bs.EncodedSize();
    serve.bs_highwater = std::max(serve.bs_highwater, bs_bytes);
    // Flow control: the batch ships in threshold-sized packages, one in
    // flight.
    serve.flushes +=
        bs_bytes == 0
            ? 0
            : (bs_bytes + config.sending_threshold_bytes - 1) /
                  std::max<uint64_t>(1, config.sending_threshold_bytes);
    bs.Encode(response);
    return Status::OK();
  }

  /// Readahead for next superstep's Pull-Requests: stages the Eblocks of
  /// responding local Vblocks (vblock_res_next promotes to vblock_res at the
  /// barrier) whose cells pass serve_cell(vb, target), in ascending
  /// (target, source) order — the order requesters walk their target
  /// Vblocks — capped at the pipeline depth so the warmup never evicts
  /// itself. Observability only — nothing modeled moves.
  template <typename ServeCell>
  void PrefetchPullEblocks(NodeState& node, ServeCell serve_cell) {
    const RangePartition& partition = driver_->partition();
    const uint32_t first_vb = partition.FirstVblockOf(node.id);
    const uint32_t last_vb = partition.LastVblockOf(node.id);
    const uint32_t depth = driver_->config().io.prefetch_depth;
    uint32_t scheduled = 0;
    for (uint32_t target_vb = 0;
         target_vb < partition.num_vblocks() && scheduled < depth;
         ++target_vb) {
      for (uint32_t vb = first_vb; vb < last_vb && scheduled < depth; ++vb) {
        if (!node.vblock_res_next[vb - first_vb]) continue;
        if (!node.ve->HasEdges(vb, target_vb)) continue;
        if (!serve_cell(vb, target_vb)) continue;
        node.ve->PrefetchEblock(vb, target_vb, node.pipeline.get());
        ++scheduled;
      }
    }
  }

  /// Phase A under pull consumption (Algorithm 1): one Pull-Request per
  /// (local Vblock, node) pair, or one per node under request–respond
  /// dedup; `request_mask` (adaptive adverts) may drop provably-empty ones.
  Status CollectPulls(
      NodeState& node,
      const std::vector<std::vector<uint8_t>>* request_mask = nullptr) {
    const JobConfig& config = driver_->config();
    BPullCollectPolicy policy;
    policy.msg_size = P::kMessageSize;
    policy.prepull_double = config.pre_pull && P::kCombinable;
    policy.num_nodes = config.num_nodes;
    policy.dedup_requests = config.request_respond_dedup;
    policy.request_mask = request_mask;
    return CollectBPullMessages(node, driver_->partition(),
                                driver_->transport(), policy);
  }

  /// Degree-aware vertex mirroring, produce side: folds one generated
  /// message into the sender-local accumulator slot when `dst` is hot.
  /// Returns true when the message was absorbed (caller skips staging).
  /// Slot combines reuse the program combiner, so the drained value equals
  /// the receive-side fold of the individual messages in scan order.
  bool MirrorFold(NodeState& node, VertexId dst, const uint8_t* msg_bytes) {
    const MirrorTable* mirrors = driver_->mirror_table();
    if (mirrors == nullptr) return false;
    const int64_t slot = mirrors->SlotOf(dst);
    if (slot < 0) return false;
    uint8_t* acc = node.mirror_acc.data() +
                   static_cast<size_t>(slot) * P::kMessageSize;
    if (node.mirror_has[static_cast<size_t>(slot)]) {
      ProgramOps<P>::CombineRaw(acc, msg_bytes);
      ++node.msgs_combined;
      node.cpu_seconds += driver_->config().cpu.per_combine_s;
    } else {
      std::memcpy(acc, msg_bytes, P::kMessageSize);
      node.mirror_has[static_cast<size_t>(slot)] = 1;
    }
    return true;
  }

  /// Stages the folded mirror accumulators (ascending slot, i.e. ascending
  /// vertex id) for their owner nodes. Call from FinishProduce() before the
  /// force flush so every hot vertex ships at most one record per sender.
  void DrainMirrors(NodeState& node) {
    const MirrorTable* mirrors = driver_->mirror_table();
    if (mirrors == nullptr) return;
    const RangePartition& partition = driver_->partition();
    for (size_t slot = 0; slot < mirrors->size(); ++slot) {
      if (!node.mirror_has[slot]) continue;
      const VertexId vid = mirrors->VidOf(slot);
      const uint8_t* acc = node.mirror_acc.data() + slot * P::kMessageSize;
      const NodeId dst_node = partition.NodeOf(vid);
      node.staging.Append(dst_node, vid, acc);
      node.mem_highwater = std::max<uint64_t>(
          node.mem_highwater,
          node.staging.count(dst_node) * (4 + P::kMessageSize));
      node.mirror_has[slot] = 0;
    }
  }

  /// Path-specific modeled-memory buffer bytes on top of mem_highwater
  /// (push family: pending inbox + moc accumulator slots; b-pull: nothing).
  virtual uint64_t ExtraMemoryBytes(const NodeState& node) const {
    (void)node;
    return 0;
  }

  /// Fixes the receive-side policies; call from Build() after the topology
  /// exists (the driver has folded the CPU scale by then).
  void InitPolicies() {
    const JobConfig& config = driver_->config();
    apply_policy_.msg_size = P::kMessageSize;
    apply_policy_.buffer_cap = config.msg_buffer_per_node;
    apply_policy_.unlimited = config.msg_buffer_per_node == UINT64_MAX ||
                              config.memory_resident;
    apply_policy_.online_compute = config.mode == EngineMode::kPushM;
    apply_policy_.combinable = P::kCombinable;
    apply_policy_.combiner =
        P::kCombinable ? &ProgramOps<P>::CombineRaw : nullptr;

    collect_policy_.msg_size = P::kMessageSize;
    collect_policy_.msg_record_size = 4 + P::kMessageSize;
    collect_policy_.online_compute = config.mode == EngineMode::kPushM;
    collect_policy_.combinable = P::kCombinable;
    collect_policy_.spill_merge_buffer_bytes = config.io.spill_merge_buffer_bytes;
    collect_policy_.per_spilled_message_s = config.cpu.per_spilled_message_s;
  }

  SuperstepDriver<P>* driver_;
  PushApplyPolicy apply_policy_;
  PushCollectPolicy collect_policy_;
};

}  // namespace hybridgraph
