// The MessagePath strategy interface: one implementation per execution mode
// (push, pushM, b-pull, vpull, adaptive, graphhp). The mode-agnostic
// SuperstepDriver owns the BSP loop (Phase A barrier, Phase B barrier,
// aggregator exchange, promotion, convergence) and calls these hooks, so the
// shared pipeline contains no per-mode branches — a path IS the mode.
//
// The paper's four operators map onto the hooks as:
//   load()    -> Consume()/AfterConsume()   (Phase A: collect messages)
//   update()  -> UpdateProduce()            (Phase B vertex updates)
//   pushRes() -> ProduceVblock()/FinishProduce()/AfterProduce()
//   pullRes() -> ServePull()                (Algorithm 2, pull-serving paths)
#pragma once

#include <cstdint>
#include <vector>

#include "core/job_config.h"
#include "core/node_state.h"
#include "core/program.h"
#include "core/run_metrics.h"
#include "graph/edge_list.h"
#include "util/buffer.h"
#include "util/status.h"

namespace hybridgraph {

/// Raw-byte shims over the Program's typed operations, instantiated once per
/// Program and handed to the compiled containers as plain function pointers.
/// PodCodec encode/decode is a memcpy round trip, so combining through the
/// shim is bit-identical to combining typed values.
template <typename P>
struct ProgramOps {
  using Message = typename P::Message;

  /// acc = Combine(acc, other); no-op for non-combinable programs.
  static void CombineRaw(uint8_t* acc, const uint8_t* other) {
    if constexpr (P::kCombinable) {
      const Message a = PodCodec<Message>::Decode(acc);
      const Message b = PodCodec<Message>::Decode(other);
      PodCodec<Message>::Encode(P::Combine(a, b), acc);
    } else {
      (void)acc;
      (void)other;
    }
  }
};

/// Strategy for one execution mode. The driver invokes Consume/AfterConsume
/// on the CONSUMER path (the previous superstep's production mode) and
/// UpdateProduce/AfterProduce/accounting/Promote on the PRODUCER path, one
/// call per simulated node, fanned out across the thread pool.
template <typename P>
class MessagePath {
 public:
  virtual ~MessagePath() = default;

  /// The mode this path implements (its registry slot).
  virtual EngineMode mode() const = 0;

  /// Load-time construction of whatever this path needs (stores, caches,
  /// handler state). Block paths share one topology via the driver.
  virtual Status Build(const EdgeListGraph& graph) = 0;

  // Capabilities, consulted at Build time and by the driver's generic loop.
  virtual bool needs_adjacency() const { return false; }
  virtual bool needs_veblocks() const { return false; }
  /// False for paths (vpull) that predate aggregator support.
  virtual bool supports_aggregator() const { return true; }
  /// Whether EvaluateSwitch/Q_t metrics apply when this path produced.
  virtual bool hybrid_metrics() const { return true; }
  /// Whether this path answers Pull-Requests (implements ServePull). The
  /// driver routes an incoming pull to the previous superstep's producer
  /// path when it serves pulls, else to the b-pull registry slot.
  virtual bool serves_pulls() const { return false; }
  /// Whether this path folds push-side sends to mirrored hot vertices into
  /// per-node accumulator slots (degree-aware vertex mirroring). The driver
  /// only builds the MirrorTable when a registered path opts in.
  virtual bool mirrors_hot_vertices() const { return false; }

  /// Resets per-superstep counters and meter snapshots (producer side).
  virtual void BeginAccounting() = 0;

  /// Phase A for node i: collect the messages addressed to its vertices.
  /// Paths gate superstep 0 internally.
  virtual Status Consume(uint32_t i) = 0;
  /// Post-Phase-A barrier drain for node i (staged accounting / payloads).
  virtual Status AfterConsume(uint32_t i) = 0;

  /// Phase B for node i: update vertices, produce messages.
  virtual Status UpdateProduce(uint32_t i) = 0;
  /// Post-Phase-B barrier drain for node i (staged push batches etc.).
  virtual Status AfterProduce(uint32_t i) = 0;

  /// Compute/communication overlap hook, run per node right after
  /// AfterProduce(i) in the same drain task (traced as "drain.overlap"):
  /// the path schedules background readahead for the data its NEXT
  /// superstep's consume/serve phase will touch, so the reads overlap the
  /// remaining drain work of the other nodes and the aggregator exchange.
  /// Must not touch modeled counters — prefetch reads are metered at the
  /// consumption point, never here.
  virtual Status WarmupNextSuperstep(uint32_t i) {
    (void)i;
    return Status::OK();
  }

  /// Folds node counters into this superstep's metrics record.
  virtual SuperstepMetrics EndAccounting(EngineMode produce_mode,
                                         bool switched) = 0;

  /// Barrier promotion: expose next-superstep state, return cluster totals
  /// for the convergence check.
  virtual void Promote(uint64_t* responding_total,
                       uint64_t* inflight_messages) = 0;

  // Hooks invoked from the driver's shared Vblock update loop (block paths
  // only). Push production overrides these; pull production leaves them as
  // no-ops (nothing is sent until next superstep's pulls).
  virtual Status ProduceVblock(NodeState& node, uint32_t vb,
                               const std::vector<uint8_t>& respond_in_vb,
                               const std::vector<uint8_t>& block_values) {
    (void)node;
    (void)vb;
    (void)respond_in_vb;
    (void)block_values;
    return Status::OK();
  }
  virtual Status FinishProduce(NodeState& node) {
    (void)node;
    return Status::OK();
  }
  /// Runs right after the driver's Phase B update of Vblock `vb` (only when
  /// the block had active vertices), with the block's value records still in
  /// hand in `values` and before their write-back; a path that changes a
  /// value must set *block_dirty. It may also rewrite `respond_in_vb` (and
  /// the node's next-superstep respond flags) before ProduceVblock sees
  /// them. GraphHP runs its local sub-iterations here; the default does
  /// nothing.
  virtual Status AfterVblockUpdate(NodeState& node, uint32_t vb,
                                   std::vector<uint8_t>& respond_in_vb,
                                   std::vector<uint8_t>& values,
                                   bool* block_dirty) {
    (void)node;
    (void)vb;
    (void)respond_in_vb;
    (void)values;
    (void)block_dirty;
    return Status::OK();
  }

  /// Algorithm 2 (Pull-Respond), served from the requester's thread. Only
  /// paths with serves_pulls() (b-pull, adaptive) implement this.
  virtual Status ServePull(NodeState& node, NodeId requester, Slice payload,
                           Buffer* response) {
    (void)node;
    (void)requester;
    (void)payload;
    (void)response;
    return Status::Unimplemented("this path does not serve pulls");
  }
};

}  // namespace hybridgraph
