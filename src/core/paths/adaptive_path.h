// The frontier-aware adaptive MessagePath: push or b-pull chosen PER EBLOCK
// GRID CELL each superstep, instead of the paper's global Eq. 11 choice.
//
// Within one superstep of a traversal workload (BFS/SSSP) the frontier is
// dense in some Vblocks and sparse in others: dense source rows want the
// Eblock scan + combining of Pull-Respond, sparse rows want push's
// touch-only-the-frontier adjacency walk. Each Phase B sweep tracks the
// responding set per node in a dual bitmap/queue Frontier, computes the
// per-Vblock stats, and decides every cell g_ji with the Beamer-style α/β
// rule in DecideCell (core/frontier.h):
//
//   - push cells ship immediately along the adjacency out-edges whose
//     destination Vblock was decided push (the shared PushProduce kernel
//     with a destination-cell edge filter);
//   - pull cells ship nothing — the next superstep's Pull-Requests reach
//     ServePull here, which serves exactly the cells decided pull (the
//     shared PullRespond kernel with a pull-cell filter).
//
// Consumption therefore composes both drains: the inbox merge for what was
// pushed plus one Pull-Request per local Vblock for what was deferred.
// DecideCell is pure in (responding flags, static layout metadata), so the
// serve side recomputes the production grid exactly — no decision state is
// stored, promoted, or checkpointed, and a restored run re-derives the grid
// from the serialized respond flags.
//
// Determinism contract: the per-cell counters and the decision log are
// written only by the owning node's Phase B task and folded in node order on
// the driver thread at EndAccounting, so push_cells/pull_cells (new CSV
// columns) and decision_log() are bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/frontier.h"
#include "core/paths/block_path_base.h"
#include "graph/adjacency_store.h"
#include "graph/ve_block_store.h"
#include "util/codec.h"
#include "util/string_util.h"

namespace hybridgraph {

template <typename P>
class AdaptivePath : public BlockPathBase<P> {
 public:
  explicit AdaptivePath(SuperstepDriver<P>* driver)
      : BlockPathBase<P>(driver) {}

  EngineMode mode() const override { return EngineMode::kAdaptive; }
  // Both layouts: push cells walk adjacency blocks, pull cells serve
  // Eblocks. The driver ORs these into one shared topology build.
  bool needs_adjacency() const override { return true; }
  bool needs_veblocks() const override { return true; }
  bool serves_pulls() const override { return true; }
  bool mirrors_hot_vertices() const override { return true; }
  // Q_t prediction assumes single-direction production; per-cell mixing
  // would feed it inconsistent observations.
  bool hybrid_metrics() const override { return false; }

  Status Build(const EdgeListGraph& graph) override {
    HG_RETURN_IF_ERROR(this->driver_->EnsureBlockTopology(graph));
    this->InitPolicies();
    policy_.alpha = this->driver_->config().adaptive_alpha;
    policy_.beta = this->driver_->config().adaptive_beta;
    scratch_.assign(this->driver_->config().num_nodes, NodeScratch{});
    return Status::OK();
  }

  void BeginAccounting() override {
    BlockPathBase<P>::BeginAccounting();
    // Driver thread, before the phase fan-out: per-superstep scratch reset.
    std::vector<NodeState>& nodes = this->driver_->nodes();
    for (size_t i = 0; i < scratch_.size(); ++i) {
      NodeScratch& sc = scratch_[i];
      sc.frontier.Reset(nodes[i].range.size(), policy_);
      sc.push_cells = 0;
      sc.pull_cells = 0;
      sc.decision_rows.clear();
      sc.pull_target.assign(this->driver_->partition().num_vblocks(), 0);
    }
  }

  Status Consume(uint32_t i) override {
    NodeState& node = this->driver_->nodes()[i];
    node.pending.ResetCount();
    if (this->driver_->superstep() == 0) return Status::OK();
    // Push cells delivered into the inbox at t-1; pull cells answer the
    // requests issued here. Fixed order (push drain, then pulls in
    // ascending node order inside CollectBPullMessages) keeps the pending
    // set and every counter thread-count invariant.
    HG_RETURN_IF_ERROR(CollectPushMessages(node, this->collect_policy_));
    const RangePartition& partition = this->driver_->partition();
    const uint32_t num_nodes = this->driver_->config().num_nodes;
    const uint32_t first_vb = partition.FirstVblockOf(node.id);
    const uint32_t last_vb = partition.LastVblockOf(node.id);
    const uint32_t num_local_vb = last_vb - first_vb;

    // Request mask from the kPullAdvert exchange: producer y advertised
    // which of OUR Vblocks it decided pull for; everything else would pull
    // an empty response, so the round trip is skipped. A missing advert
    // (e.g. right after a checkpoint restore) conservatively requests
    // everything — correct, just unoptimized for that one superstep.
    std::vector<std::vector<uint8_t>> mask(num_nodes);
    for (uint32_t y = 0; y < num_nodes; ++y) {
      if (!node.pull_advert_valid[y]) {
        mask[y].assign(num_local_vb, 1);
        continue;
      }
      mask[y].assign(num_local_vb, 0);
      // Advert wire format: fixed32 count + count × fixed32 Vblock ids
      // (always prefixed, unlike requests, so an empty advert is distinct
      // from a legacy single-Vblock payload). Every id must name one of
      // OUR Vblocks, and nothing may follow the list.
      Decoder dec(Slice(node.pull_advert_staged[y].data(),
                        node.pull_advert_staged[y].size()));
      uint32_t count = 0;
      HG_RETURN_IF_ERROR(dec.GetFixed32(&count));
      for (uint32_t k = 0; k < count; ++k) {
        uint32_t vb = 0;
        HG_RETURN_IF_ERROR(dec.GetFixed32(&vb));
        if (vb < first_vb || vb >= last_vb) {
          return Status::Corruption(StringFormat(
              "pull advert from node %u names Vblock %u outside [%u, %u)", y,
              vb, first_vb, last_vb));
        }
        mask[y][vb - first_vb] = 1;
      }
      if (!dec.AtEnd()) {
        return Status::Corruption(StringFormat(
            "pull advert from node %u has %zu trailing bytes", y,
            dec.remaining()));
      }
      node.pull_advert_valid[y] = 0;  // one advert per production superstep
      node.pull_advert_staged[y].clear();
    }
    return this->CollectPulls(node, &mask);
  }

  Status WarmupNextSuperstep(uint32_t i) override {
    NodeState& node = this->driver_->nodes()[i];
    if (!node.pipeline || !node.pipeline->enabled()) return Status::OK();
    // Both of next superstep's consume sources benefit: the spill runs the
    // inbox merge will read, and the Eblocks of rows whose cells were
    // decided pull. Observability only — nothing modeled moves.
    node.inbox_next.spill()->WarmupMerge(
        this->collect_policy_.spill_merge_buffer_bytes, node.pipeline.get());
    this->PrefetchPullEblocks(node, [&](uint32_t vb, uint32_t target_vb) {
      return IsPullCell(node, vb, target_vb, node.responding_next);
    });
    return Status::OK();
  }

  Status ProduceVblock(NodeState& node, uint32_t vb,
                       const std::vector<uint8_t>& respond_in_vb,
                       const std::vector<uint8_t>& block_values) override {
    const RangePartition& partition = this->driver_->partition();
    const VertexRange r = partition.VblockRange(vb);
    NodeScratch& sc = scratch_[node.id];

    // Frontier tracking: add this block's responding vertices (bitmap/queue
    // representation switches automatically at the density threshold).
    uint32_t active = 0;
    uint64_t active_degree = 0;
    for (uint32_t k = 0; k < respond_in_vb.size(); ++k) {
      if (!respond_in_vb[k]) continue;
      ++active;
      const uint32_t deg = node.vstore->OutDegree(r.begin + k);
      active_degree += deg;
      HG_RETURN_IF_ERROR(sc.frontier.Add(node.LocalIdx(r.begin + k), deg));
    }
    if (active == 0) return Status::OK();

    // Decide the whole grid row j=vb. The row string becomes the decision
    // log / golden-test record; push cells are collected for the filtered
    // adjacency walk below.
    const uint32_t num_vb = partition.num_vblocks();
    std::vector<uint8_t> push_cell(num_vb, 0);
    std::string row;
    row.reserve(num_vb);
    bool any_push = false;
    for (uint32_t dst = 0; dst < num_vb; ++dst) {
      const CellDecision d = Decide(node, vb, dst, active, active_degree);
      row.push_back(CellDecisionChar(d));
      if (d == CellDecision::kPush) {
        push_cell[dst] = 1;
        any_push = true;
        ++sc.push_cells;
      } else if (d == CellDecision::kPull) {
        ++sc.pull_cells;
        sc.pull_target[dst] = 1;  // advertised to dst's owner at the barrier
      }
    }
    sc.decision_rows += StringFormat("t=%d n=%u j=%u %s\n",
                                     this->driver_->superstep(), node.id, vb,
                                     row.c_str());
    if (!any_push) return Status::OK();  // all-pull row: no adjacency I/O

    // pushRes() for the push cells only: one adjacency block read per row
    // (same charge as pure push), messages filtered by destination cell.
    return this->PushProduce(
        node, vb, respond_in_vb, block_values, [&](const Edge& e) {
          return push_cell[partition.VblockOf(e.dst)] != 0;
        });
  }

  Status FinishProduce(NodeState& node) override {
    const RangePartition& partition = this->driver_->partition();
    const NodeScratch& sc = scratch_[node.id];
    Buffer advert;
    Encoder enc(&advert);
    return this->FlushAllStaged(node, [&](NodeId y) {
      // Pull advert: tell y which of ITS Vblocks this node decided pull
      // for, so y's next consume skips the provably-empty round trips.
      // Posted every production superstep — an empty advert (count 0) is
      // an explicit "request nothing", distinct from no advert at all.
      advert.Clear();
      uint32_t count = 0;
      for (uint32_t dst = partition.FirstVblockOf(y);
           dst < partition.LastVblockOf(y); ++dst) {
        count += sc.pull_target[dst];
      }
      enc.PutFixed32(count);
      for (uint32_t dst = partition.FirstVblockOf(y);
           dst < partition.LastVblockOf(y); ++dst) {
        if (sc.pull_target[dst]) enc.PutFixed32(dst);
      }
      return this->driver_->transport().Post(
          node.id, y, RpcMethod::kPullAdvert, advert.AsSlice());
    });
  }

  Status ServePull(NodeState& node, NodeId requester, Slice payload,
                   Buffer* response) override {
    // Algorithm 2 restricted to the cells this node decided pull at
    // production time: the decisions are recomputed from the promoted
    // respond flags (identical inputs -> identical grid), never from the
    // production scratch. Cells decided push were shipped already —
    // serving them would duplicate.
    return this->PullRespond(
        node, requester, payload, response,
        [&](uint32_t vb, uint32_t target_vb) {
          return IsPullCell(node, vb, target_vb, node.responding);
        });
  }

  SuperstepMetrics EndAccounting(EngineMode produce_mode,
                                 bool switched) override {
    SuperstepMetrics m = BlockPathBase<P>::EndAccounting(produce_mode,
                                                         switched);
    // Driver thread: fold the per-node cell counters and decision rows in
    // node order, so the totals and the log are thread-count invariant.
    TraceCollector* trace = this->driver_->trace();
    for (size_t i = 0; i < scratch_.size(); ++i) {
      const NodeScratch& sc = scratch_[i];
      m.push_cells += sc.push_cells;
      m.pull_cells += sc.pull_cells;
      decision_log_ += sc.decision_rows;
      if (trace->enabled() && !sc.decision_rows.empty()) {
        trace->AddInstant("adaptive.decide", this->driver_->superstep(),
                          static_cast<int>(i), EngineMode::kAdaptive,
                          sc.decision_rows);
      }
    }
    return m;
  }

  /// Per-Vblock frontier stats of node i's current production sweep (valid
  /// between UpdateProduce and the next BeginAccounting; exposed for tests).
  const Frontier& frontier(uint32_t i) const { return scratch_[i].frontier; }

  /// The accumulated per-cell decision log ("t=<t> n=<node> j=<vblock>
  /// <cells>" per responding row, cells over destination Vblocks with the
  /// CellDecisionChar alphabet) — the golden-test surface.
  const std::string& decision_log() const { return decision_log_; }

 protected:
  uint64_t ExtraMemoryBytes(const NodeState& node) const override {
    // Push share of the buffers (pending inbox records) plus the frontier's
    // current representation and the hot-vertex mirror slots.
    return node.inbox_next.count() * (4 + P::kMessageSize) +
           scratch_[node.id].frontier.ApproxBytes() + node.mirror_acc.size();
  }

 private:
  struct NodeScratch {
    Frontier frontier;
    uint64_t push_cells = 0;
    uint64_t pull_cells = 0;
    std::string decision_rows;
    /// Destination Vblocks with >= 1 pull cell this sweep, advertised to
    /// their owners at FinishProduce so empty round trips are skipped.
    std::vector<uint8_t> pull_target;
  };

  struct RespondingStats {
    uint32_t active = 0;
    uint64_t degree = 0;  ///< sum of responding vertices' out-degrees
  };

  /// Responding count and out-degree sum of Vblock `vb` under the given
  /// flag vector.
  RespondingStats CountResponding(const NodeState& node, uint32_t vb,
                                  const std::vector<uint8_t>& flags) const {
    const VertexRange r = this->driver_->partition().VblockRange(vb);
    RespondingStats stats;
    for (VertexId v = r.begin; v < r.end; ++v) {
      if (!flags[node.LocalIdx(v)]) continue;
      ++stats.active;
      stats.degree += node.vstore->OutDegree(v);
    }
    return stats;
  }

  /// Whether cell g_{vb, dst_vb} is decided pull under the given respond
  /// flags (the serve and warmup sides recompute production's grid).
  bool IsPullCell(const NodeState& node, uint32_t vb, uint32_t dst_vb,
                  const std::vector<uint8_t>& flags) const {
    const RespondingStats stats = CountResponding(node, vb, flags);
    return Decide(node, vb, dst_vb, stats.active, stats.degree) ==
           CellDecision::kPull;
  }

  /// The pure per-cell decision for g_{vb, dst_vb} given the source row's
  /// responding count and out-degree sum.
  CellDecision Decide(const NodeState& node, uint32_t vb, uint32_t dst_vb,
                      uint32_t active, uint64_t active_degree) const {
    const VertexRange r = this->driver_->partition().VblockRange(vb);
    const VeBlockStore::EblockIndex& idx = node.ve->Index(vb, dst_vb);
    CellCostInputs in;
    in.active = active;
    in.active_degree = active_degree;
    in.vertices = r.size();
    in.cell_edges = idx.num_edges;
    in.cell_edge_bytes = idx.edge_bytes;
    in.cell_aux_bytes = idx.aux_bytes;
    in.cell_fragments = idx.num_fragments;
    in.row_edges = node.ve->Meta(vb).out_degree;
    in.adj_row_bytes = node.adj->BlockBytes(vb);
    in.msg_record_size = SuperstepDriver<P>::kMsgRecordSize;
    in.value_record_size = SuperstepDriver<P>::kValueRecordSize;
    return DecideCell(in, policy_);
  }

  AdaptivePolicy policy_;
  std::vector<NodeScratch> scratch_;  // indexed by node id
  std::string decision_log_;
};

}  // namespace hybridgraph
