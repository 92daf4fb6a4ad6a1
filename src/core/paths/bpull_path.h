// The b-pull MessagePath (Sec 4): Phase A issues one Pull-Request per local
// Vblock to every node (Algorithm 1); the remote side answers with
// Pull-Respond (Algorithm 2) served here from the VE-BLOCK layout — Eblock
// scans gated by X_j.res and the bitmap, random source-value reads (IO(V_rr))
// and per-destination grouping/combining into the sending buffer BS — the
// shared BlockPathBase::PullRespond kernel with every cell served.
// Production ships nothing: next superstep's pulls generate on demand.
#pragma once

#include <cstdint>

#include "core/paths/block_path_base.h"

namespace hybridgraph {

template <typename P>
class BPullPath : public BlockPathBase<P> {
 public:
  explicit BPullPath(SuperstepDriver<P>* driver) : BlockPathBase<P>(driver) {}

  EngineMode mode() const override { return EngineMode::kBPull; }
  bool needs_veblocks() const override { return true; }
  bool serves_pulls() const override { return true; }

  Status Build(const EdgeListGraph& graph) override {
    HG_RETURN_IF_ERROR(this->driver_->EnsureBlockTopology(graph));
    this->InitPolicies();
    return Status::OK();
  }

  Status Consume(uint32_t i) override {
    NodeState& node = this->driver_->nodes()[i];
    node.pending.ResetCount();
    if (this->driver_->superstep() == 0) return Status::OK();
    return this->CollectPulls(node);
  }

  Status WarmupNextSuperstep(uint32_t i) override {
    NodeState& node = this->driver_->nodes()[i];
    if (!node.pipeline || !node.pipeline->enabled()) return Status::OK();
    // Next superstep's Pull-Requests will scan the Eblocks of responding
    // local Vblocks; b-pull serves every cell.
    this->PrefetchPullEblocks(node, [](uint32_t, uint32_t) { return true; });
    return Status::OK();
  }

  Status ServePull(NodeState& node, NodeId requester, Slice payload,
                   Buffer* response) override {
    return this->PullRespond(node, requester, payload, response,
                             [](uint32_t, uint32_t) { return true; });
  }
};

}  // namespace hybridgraph
