// The push MessagePath (Sec 3.1): Phase A drains the double-buffered inbox
// (memory portion + spill merge) into the pending set; Phase B production
// reads the adjacency block once per Vblock and broadcasts along out-edges
// (pushRes()), staging per destination node with optional sender combining
// (pushM+com, Appendix E) and threshold flushes.
#pragma once

#include <cstdint>
#include <vector>

#include "core/paths/block_path_base.h"

namespace hybridgraph {

template <typename P>
class PushPath : public BlockPathBase<P> {
 public:
  explicit PushPath(SuperstepDriver<P>* driver) : BlockPathBase<P>(driver) {}

  EngineMode mode() const override { return EngineMode::kPush; }
  bool needs_adjacency() const override { return true; }
  bool mirrors_hot_vertices() const override { return true; }

  Status Build(const EdgeListGraph& graph) override {
    HG_RETURN_IF_ERROR(this->driver_->EnsureBlockTopology(graph));
    this->InitPolicies();
    return Status::OK();
  }

  Status Consume(uint32_t i) override {
    NodeState& node = this->driver_->nodes()[i];
    node.pending.ResetCount();
    if (this->driver_->superstep() == 0) return Status::OK();
    return CollectPushMessages(node, this->collect_policy_);
  }

  Status WarmupNextSuperstep(uint32_t i) override {
    NodeState& node = this->driver_->nodes()[i];
    if (!node.pipeline || !node.pipeline->enabled()) return Status::OK();
    // Next superstep's consume merges inbox_next's spill runs (it becomes
    // inbox_cur at the promotion barrier): stage each run's first chunk now
    // so the merge's opening refills overlap the drain/aggregator exchange.
    node.inbox_next.spill()->WarmupMerge(
        this->collect_policy_.spill_merge_buffer_bytes, node.pipeline.get());
    return Status::OK();
  }

  Status ProduceVblock(NodeState& node, uint32_t vb,
                       const std::vector<uint8_t>& respond_in_vb,
                       const std::vector<uint8_t>& block_values) override {
    return this->PushProduce(node, vb, respond_in_vb, block_values,
                             [](const Edge&) { return true; });
  }

  Status FinishProduce(NodeState& node) override {
    return this->FlushAllStaged(node, [](NodeId) { return Status::OK(); });
  }

 protected:
  uint64_t ExtraMemoryBytes(const NodeState& node) const override {
    uint64_t buffers = node.inbox_next.count() * (4 + P::kMessageSize);
    if (node.moc_slots > 0) {
      buffers += node.moc_slots * P::kMessageSize / 8;  // accumulator slots
    }
    buffers += node.mirror_acc.size();  // hot-vertex mirror slots
    return buffers;
  }
};

}  // namespace hybridgraph
