// The HybridGraph BSP engine: push, pushM, v-pull, b-pull, hybrid, adaptive
// and GraphHP execution of a vertex Program over a simulated cluster of
// disk-resident nodes.
//
// Execution model per superstep t (uniform across modes):
//   Phase A (consume)  — every node collects the messages addressed to its
//     vertices: under push consumption they were delivered at t-1 into a
//     double-buffered inbox (memory portion B_i + sorted disk spill); under
//     b-pull consumption the node issues one pull request per local Vblock
//     and the senders run Pull-Respond (Algorithm 2) against their Eblocks.
//   Phase B (update + produce) — every node updates its vertices
//     (update()), records responding flags (setResFlag), and if the
//     *production* mode is push immediately generates and ships messages
//     from the adjacency store (pushRes()); under b-pull production nothing
//     is sent — next superstep's pulls will call pullRes() on demand.
//
// Phase A of all nodes runs before any Phase B, which gives the BSP
// semantics (pull always observes superstep t-1 values) without vertex
// value versioning. Hybrid switching (Sec 5.2) falls out of the mode split:
// consumption mode at t is simply the production mode chosen at t-1, so the
// b-pull -> push switch superstep both pulls and pushes (the paper's
// resource-contention spike at superstep 11 of Fig 14), and the
// push -> b-pull switch superstep consumes pushed messages and produces
// nothing, exactly as in Fig 6.
//
// v-pull is the GraphLab PowerGraph baseline (synchronous GAS over a
// vertex-cut, with the paper's Sec 6 disk-resident edges and LRU vertex
// table); its path lives in core/paths/vpull_path.h.
//
// This header is a facade: the BSP loop, barriers, accounting and hybrid
// switching live in SuperstepDriver (core/superstep_driver.h); the
// per-mode load/update/pushRes/pullRes behavior lives in the MessagePath
// strategies under core/paths/. Engine<P> installs the paths its mode's row
// of kModePaths names into one driver and forwards its public API.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/job_config.h"
#include "core/paths/adaptive_path.h"
#include "core/paths/bpull_path.h"
#include "core/paths/ghp_path.h"
#include "core/paths/push_m_path.h"
#include "core/paths/push_path.h"
#include "core/paths/vpull_path.h"
#include "core/program.h"
#include "core/run_metrics.h"
#include "core/superstep_driver.h"
#include "graph/edge_list.h"
#include "graph/partition.h"
#include "util/buffer.h"
#include "util/status.h"

namespace hybridgraph {

/// Which MessagePaths one mode installs (bit set), and which of those are
/// active. Active paths Build() their disk layout at Load time and may
/// produce; an installed but inactive path only occupies its registry slot,
/// so consumption can still dispatch to it by mode. Under adaptive the
/// per-cell path both produces and serves pulls, so push and b-pull stay
/// installed but inactive (their drain machinery is invoked through the
/// adaptive path, not their registry slots).
struct ModePaths {
  enum : uint8_t { kPush = 1, kBPull = 2, kAdaptive = 4, kGhp = 8, kVPull = 16 };
  uint8_t installed;
  uint8_t active;
};

/// Indexed by EngineMode. kPush is PushMPath under pushM; hybrid's
/// three-regime table (hybrid_regime_graphhp) adds an active GraphHP path.
inline constexpr ModePaths kModePaths[kNumEngineModes] = {
    /* push     */ {ModePaths::kPush | ModePaths::kBPull, ModePaths::kPush},
    /* pushM    */ {ModePaths::kPush | ModePaths::kBPull, ModePaths::kPush},
    /* v-pull   */ {ModePaths::kVPull, ModePaths::kVPull},
    /* b-pull   */ {ModePaths::kPush | ModePaths::kBPull, ModePaths::kBPull},
    /* hybrid   */ {ModePaths::kPush | ModePaths::kBPull,
                    ModePaths::kPush | ModePaths::kBPull},
    /* adaptive */ {ModePaths::kPush | ModePaths::kBPull | ModePaths::kAdaptive,
                    ModePaths::kAdaptive},
    /* graphhp  */ {ModePaths::kPush | ModePaths::kBPull | ModePaths::kGhp,
                    ModePaths::kGhp},
};

template <typename P>
class Engine {
 public:
  using Value = typename P::Value;
  using Message = typename P::Message;

  Engine(JobConfig config, P program)
      : driver_(std::move(config), std::move(program)) {
    StaticCheckProgram<P>();
    const EngineMode mode = driver_.config().mode;
    ModePaths row = kModePaths[static_cast<size_t>(mode)];
    if (mode == EngineMode::kHybrid && driver_.config().hybrid_regime_graphhp) {
      row.installed |= ModePaths::kGhp;
      row.active |= ModePaths::kGhp;
    }
    if (mode == EngineMode::kPushM) {
      Install<PushMPath<P>>(row, ModePaths::kPush, &push_);
    } else {
      Install<PushPath<P>>(row, ModePaths::kPush, &push_);
    }
    Install<BPullPath<P>>(row, ModePaths::kBPull, &bpull_);
    Install<AdaptivePath<P>>(row, ModePaths::kAdaptive, &adaptive_);
    Install<GhpPath<P>>(row, ModePaths::kGhp, &ghp_);
    Install<VPullPath<P>>(row, ModePaths::kVPull, &vpull_);
  }

  /// Partitions the graph, derives Vblock counts (Eq. 5/6), builds the
  /// disk layouts each mode needs, and initializes vertex state.
  Status Load(const EdgeListGraph& graph) { return driver_.Load(graph); }

  /// Runs supersteps until convergence or config.max_supersteps.
  Status Run() { return driver_.Run(); }

  /// Runs exactly one superstep (exposed for tests and traces).
  Status RunSuperstep() { return driver_.RunSuperstep(); }

  const JobStats& stats() const { return driver_.stats(); }
  const RangePartition& partition() const { return driver_.partition(); }
  const JobConfig& config() const { return driver_.config(); }
  bool converged() const { return driver_.converged(); }
  int superstep() const { return driver_.superstep(); }
  /// Production mode of the upcoming superstep (hybrid switches this).
  EngineMode current_mode() const { return driver_.current_mode(); }

  /// Collects all vertex values (global, indexed by vertex id).
  Result<std::vector<Value>> GatherValues() {
    if (vpull_ == nullptr) return driver_.GatherValues();
    if (!driver_.loaded()) return Status::FailedPrecondition("Load() first");
    return vpull_->GatherValues();
  }

  /// Theorem 2 quantities (valid after Load()).
  uint64_t total_fragments() const { return driver_.total_fragments(); }
  uint64_t b_lower_bound() const { return driver_.b_lower_bound(); }

  /// Serializes the full runtime state (superstep, mode, vertex values,
  /// flags, undelivered messages) so a failed job can resume from the last
  /// barrier instead of recomputing from scratch (the lightweight
  /// fault-tolerance the paper leaves as future work, Appendix A). Not
  /// supported under v-pull.
  Status WriteCheckpoint(Buffer* out) { return driver_.WriteCheckpoint(out); }

  /// Restores a WriteCheckpoint() image into a freshly Load()ed engine with
  /// an identical config and graph. Per-superstep stats restart empty.
  Status RestoreCheckpoint(Slice data) {
    return driver_.RestoreCheckpoint(data);
  }

  /// The underlying driver (program access, the streaming epoch hook; see
  /// core/epoch_driver.h).
  SuperstepDriver<P>& driver() { return driver_; }

 private:
  /// Builds the `slot` path into `*out` and registers it, if `row` installs
  /// it.
  template <typename Path, typename Base>
  void Install(const ModePaths& row, uint8_t slot, std::unique_ptr<Base>* out) {
    if ((row.installed & slot) == 0) return;
    *out = std::make_unique<Path>(&driver_);
    driver_.InstallPath(out->get(), (row.active & slot) != 0);
  }

  SuperstepDriver<P> driver_;
  // The paths kModePaths installs for config.mode; the rest stay null.
  std::unique_ptr<PushPath<P>> push_;  // PushMPath under config.mode == pushM
  std::unique_ptr<BPullPath<P>> bpull_;
  std::unique_ptr<AdaptivePath<P>> adaptive_;
  std::unique_ptr<GhpPath<P>> ghp_;
  std::unique_ptr<VPullPath<P>> vpull_;
};

}  // namespace hybridgraph
