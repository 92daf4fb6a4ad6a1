// Per-superstep and per-job metrics: the observables every paper figure is
// drawn from (modeled runtime, I/O byte breakdown, network traffic, memory
// high-water, blocking time, and the hybrid predictor trace).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/job_config.h"

namespace hybridgraph {

// Schema: each column of a metrics record is one entry of the record's list,
//   X(csv_name, member, type, class)
// The members are declared from the list, and every consumer walks it through
// the record's ForEachColumn: the CSV/JSON writers, ModeledColumnDiffs() and
// scripts/diff_metrics.py (which reads the kMeasured entries of
// HG_SUPERSTEP_METRICS_COLUMNS from this file). The type also picks how a
// value prints: int %d, EngineMode its name, bool 0/1, uint64_t %llu, double
// %.9g (superstep CSV) or %.6f (epoch CSV/JSON). kModeled columns come from
// metered bytes, modeled counters and cost constants in a fixed fold order,
// so they are bit-identical at any thread count and prefetch setting
// (DESIGN.md §3a); kMeasured columns are host timings and may vary.
enum class MetricClass { kModeled, kMeasured };

#define HG_METRIC_MEMBER_(csv, member, type, cls) type member{};
#define HG_METRIC_NESTED_MEMBER_(member, type) type member;
#define HG_METRIC_VISIT_(csv, member, type, cls) \
  f(#csv, MetricClass::cls, r.member...);
#define HG_METRIC_NESTED_VISIT_(member, type) \
  type::ForEachColumn(f, r.member...);
#define HG_METRIC_PLUS_(csv, member, type, cls) +member
#define HG_METRIC_ADD_(csv, member, type, cls) member += o.member;

/// Byte-level I/O breakdown of one superstep (cluster totals), split along
/// the terms of Eq. (7)/(8).
#define HG_IO_BREAKDOWN_COLUMNS(X)                                                                  \
  X(io_vt, vt_bytes, uint64_t, kModeled)  /* IO(V^t): vertex value block read+write */              \
  X(io_adj, adj_edge_bytes, uint64_t, kModeled)  /* IO(E~^t): adjacency blocks read (push) */       \
  X(io_spill_write, msg_spill_write, uint64_t, kModeled)  /* IO(M_disk) written (push, random) */   \
  X(io_spill_read, msg_spill_read, uint64_t, kModeled)                                              \
      /* IO(M_disk) read back (push, sequential) */                                                 \
  X(io_eblock, eblock_edge_bytes, uint64_t, kModeled)  /* IO(E^t): Eblock edge payload (b-pull) */  \
  X(io_fragment_aux, fragment_aux_bytes, uint64_t, kModeled)                                        \
      /* IO(F^t): fragment auxiliary data */                                                        \
  X(io_vrr, vrr_bytes, uint64_t, kModeled)  /* IO(V_rr): random source-vertex reads */              \
  X(io_other, other_bytes, uint64_t, kModeled)  /* anything else (v-pull cache traffic...) */

struct IoBreakdown {
  HG_IO_BREAKDOWN_COLUMNS(HG_METRIC_MEMBER_)

  uint64_t Total() const {
    return uint64_t{0} HG_IO_BREAKDOWN_COLUMNS(HG_METRIC_PLUS_);
  }
  IoBreakdown& operator+=(const IoBreakdown& o) {
    HG_IO_BREAKDOWN_COLUMNS(HG_METRIC_ADD_)
    return *this;
  }

  /// Calls f(csv_name, MetricClass, r.member...) per column in CSV order,
  /// ending with the derived io_total. Pass no record to walk the names only,
  /// two to walk a pair side by side.
  template <typename F, typename... R>
  static void ForEachColumn(F&& f, R&... r) {
    HG_IO_BREAKDOWN_COLUMNS(HG_METRIC_VISIT_)
    f("io_total", MetricClass::kModeled, r.Total()...);
  }
};

/// Metrics for one superstep. Superstep wall time under BSP is the max over
/// nodes; the record holds both that time and its components. NEST(member,
/// type) embeds a record with its own column list.
#define HG_SUPERSTEP_METRICS_COLUMNS(X, NEST)                                                       \
  X(superstep, superstep, int, kModeled)                                                            \
  X(mode, mode, EngineMode, kModeled)  /* production mode this superstep */                         \
  X(switched, switched, bool, kModeled)  /* a mode switch happened here */                          \
  X(active, active_vertices, uint64_t, kModeled)                                                    \
  X(responding, responding_vertices, uint64_t, kModeled)                                            \
  X(messages, messages_produced, uint64_t, kModeled)  /* M */                                       \
  X(messages_on_wire, messages_on_wire, uint64_t, kModeled)  /* after concatenation/combining */    \
  X(messages_combined, messages_combined, uint64_t, kModeled)                                       \
      /* M_co: messages removed/shared by concat+combine */                                         \
  X(messages_spilled, messages_spilled, uint64_t, kModeled)  /* |M_disk| (push) */                  \
  NEST(io, IoBreakdown)  /* the io_* columns, then io_total */                                      \
  X(net_bytes, net_bytes, uint64_t, kModeled)  /* frame bytes sent cluster-wide */                  \
  X(net_frames, net_frames, uint64_t, kModeled)                                                     \
  /* Transport fault recovery (nonzero only on TcpTransport; see Transport::fault_counters()). */   \
  X(net_retries, net_retries, uint64_t, kModeled)                                                   \
  X(net_timeouts, net_timeouts, uint64_t, kModeled)                                                 \
  X(net_reconnects, net_reconnects, uint64_t, kModeled)                                             \
  /* Modeled time components (DESIGN.md §6a). */                                                    \
  X(cpu_s, cpu_seconds, double, kModeled)                                                           \
  X(io_s, io_seconds, double, kModeled)                                                             \
  X(net_s, net_seconds, double, kModeled)                                                           \
  X(blocking_s, blocking_seconds, double, kModeled)  /* message-exchange blocking (Fig 17) */       \
  X(superstep_s, superstep_seconds, double, kModeled)  /* max over nodes of (cpu+io+blocking) */    \
  X(memory_bytes, memory_highwater_bytes, uint64_t, kModeled)                                       \
  /* Streaming spill-merge observability (push/hybrid only; zero elsewhere). */                     \
  X(spill_buffer_bytes, spill_merge_buffer_bytes, uint64_t, kModeled)                               \
      /* max over nodes: run buffers held */                                                        \
  X(spill_resident_peak, spill_peak_resident, uint64_t, kModeled)                                   \
      /* max over nodes: peak resident spill entries during the merge */                            \
  X(spill_combined, spill_combined, uint64_t, kModeled)                                             \
      /* sum: combiner reductions in the spill path (spill + merge time) */                         \
  /* Prefetch-pipeline observability (cluster totals). Measured: background reads are               \
     unmetered and metering happens at the consumption point, so modeled I/O is bit-identical       \
     prefetch on/off. */                                                                            \
  X(prefetch_scheduled, prefetch_scheduled, uint64_t, kMeasured)  /* background reads staged */     \
  X(prefetch_hits, prefetch_hits, uint64_t, kMeasured)  /* consumption reads served staged */       \
  X(prefetch_misses, prefetch_misses, uint64_t, kMeasured)  /* staged-miss + error fallbacks */     \
  X(prefetch_hit_bytes, prefetch_hit_bytes, uint64_t, kMeasured)                                    \
      /* bytes served from staged reads */                                                          \
  X(aggregate, aggregate, double, kModeled)                                                         \
      /* global aggregator value combined at this superstep's barrier (0 when the program has no    \
         aggregator) */                                                                             \
  X(q_t, q_t, double, kModeled)  /* hybrid predictor metric computed this superstep (Sec 5.3) */    \
  /* Host wall time per pipeline phase (reference only, like JobStats::wall_seconds). */            \
  X(phase_consume_s, phase_consume_wall_s, double, kMeasured)                                       \
      /* Phase A (consume + post-barrier drain) */                                                  \
  X(phase_update_s, phase_update_wall_s, double, kMeasured)  /* Phase B update/produce sweep */     \
  X(phase_drain_s, phase_drain_wall_s, double, kMeasured)                                           \
      /* post-produce drain (staged batches) */                                                     \
  /* Adaptive mode (kAdaptive) only, zero elsewhere: cluster-wide count of Eblock grid cells        \
     decided push / decided pull this superstep, folded from per-node counters in node order. */    \
  X(push_cells, push_cells, uint64_t, kModeled)                                                     \
  X(pull_cells, pull_cells, uint64_t, kModeled)                                                     \
  X(pull_requests, pull_requests, uint64_t, kModeled)                                               \
      /* Pull-Request round trips issued cluster-wide (b-pull / adaptive consumption; zero under    \
         pure push), derived from promoted flags and adverts, never from thread timing */           \
  /* Per-node load imbalance of this superstep, as max-node share over the perfectly balanced       \
     share (1.0 = even, num_nodes = all on one node, 0 = nothing produced/scanned). */              \
  X(edges_scanned, edges_scanned, uint64_t, kModeled)  /* cluster total of edges walked/decoded */  \
  X(msg_imbalance, msg_imbalance, double, kModeled)  /* over msgs_produced (incl. serve side) */    \
  X(edge_imbalance, edge_imbalance, double, kModeled)  /* over edges_scanned */                     \
  /* GraphHP intra-block asynchrony (kGraphHp production only; zero elsewhere), folded from         \
     per-node state in node order. */                                                               \
  X(local_iters, local_iters, uint64_t, kModeled)  /* sum over nodes of local sub-iterations */     \
  X(barriers_saved, barriers_saved, uint64_t, kModeled)                                             \
      /* max over nodes of the deepest per-Vblock sub-iteration chain: a lower bound on global      \
         barriers a synchronous run would have needed for the same propagation */                   \
  X(local_msg_bytes, local_msg_bytes, uint64_t, kModeled)                                           \
      /* intra-Vblock message bytes delivered in memory instead of the wire/spill path */           \
  /* Hybrid predictor trace (Sec 5.3): predicted_* are the values assumed for superstep t+Δt,       \
     and the actual counterpart lands in that later superstep's record. actual_* are this           \
     superstep's comparable values (observed when running the mode, estimated otherwise — the       \
     same convention as the paper's Figs 11-13). */                                                 \
  X(predicted_mco, predicted_mco, double, kModeled)                                                 \
  X(predicted_cio_push, predicted_cio_push, double, kModeled)                                       \
  X(predicted_cio_bpull, predicted_cio_bpull, double, kModeled)                                     \
  X(actual_mco, actual_mco, double, kModeled)                                                       \
  X(actual_cio_push, actual_cio_push, double, kModeled)                                             \
  X(actual_cio_bpull, actual_cio_bpull, double, kModeled)

struct SuperstepMetrics {
  HG_SUPERSTEP_METRICS_COLUMNS(HG_METRIC_MEMBER_, HG_METRIC_NESTED_MEMBER_)

  /// As IoBreakdown::ForEachColumn; `io` contributes its columns in place.
  template <typename F, typename... R>
  static void ForEachColumn(F&& f, R&... r) {
    HG_SUPERSTEP_METRICS_COLUMNS(HG_METRIC_VISIT_, HG_METRIC_NESTED_VISIT_)
  }
};

/// \brief Per-epoch observability of a streaming run (core/epoch_driver.h):
/// what one batch cost to ingest and reconverge. Byte and modeled-time
/// fields are deltas over the epoch (not running totals), so they are
/// directly comparable to a cold run's totals.
#define HG_EPOCH_METRICS_COLUMNS(X)                                                                 \
  X(epoch, epoch, uint64_t, kModeled)  /* 0-based epoch number (first batch = 0) */                 \
  X(timestamp, timestamp, uint64_t, kModeled)  /* EdgeBatch::timestamp */                           \
  X(batch_deltas, batch_deltas, uint64_t, kModeled)  /* deltas in the batch */                      \
  X(inserts, inserts, uint64_t, kModeled)                                                           \
  X(deletes, deletes, uint64_t, kModeled)                                                           \
  X(touched_vertices, touched_vertices, uint64_t, kModeled)  /* distinct batch endpoints */         \
  X(warm, warm, bool, kModeled)  /* delta propagation vs in-place recompute */                      \
  X(supersteps, supersteps, uint64_t, kModeled)  /* supersteps this epoch ran */                    \
  X(ingest_wall_s, ingest_wall_s, double, kMeasured)  /* wall: ApplyEdgeBatch */                    \
  X(converge_wall_s, converge_wall_s, double, kMeasured)  /* wall: seed + StartEpoch + Run */       \
  X(modeled_seconds, modeled_seconds, double, kModeled)  /* modeled cluster time for the epoch */   \
  X(read_bytes, read_bytes, uint64_t, kModeled)  /* storage reads across nodes */                   \
  X(write_bytes, write_bytes, uint64_t, kModeled)  /* storage writes across nodes */                \
  X(net_bytes, net_bytes, uint64_t, kModeled)  /* transport bytes across nodes */                   \
  X(delta_runs, delta_runs, uint64_t, kModeled)  /* overlay run backlog after the epoch */          \
  X(delta_bytes, delta_bytes, uint64_t, kModeled)  /* overlay run bytes after the epoch */

struct EpochMetrics {
  HG_EPOCH_METRICS_COLUMNS(HG_METRIC_MEMBER_)

  /// As IoBreakdown::ForEachColumn.
  template <typename F, typename... R>
  static void ForEachColumn(F&& f, R&... r) {
    HG_EPOCH_METRICS_COLUMNS(HG_METRIC_VISIT_)
  }
};

#undef HG_METRIC_MEMBER_
#undef HG_METRIC_NESTED_MEMBER_
#undef HG_METRIC_VISIT_
#undef HG_METRIC_NESTED_VISIT_
#undef HG_METRIC_PLUS_
#undef HG_METRIC_ADD_

/// Joins cell(csv_name, value) over the columns of `r`, `sep` in between.
template <typename Record, typename Cell>
std::string JoinColumns(const Record& r, const char* sep, Cell&& cell) {
  std::string out;
  const char* before = "";
  Record::ForEachColumn(
      [&](const char* name, MetricClass, const auto& v) {
        out += before;
        out += cell(name, v);
        before = sep;
      },
      r);
  return out;
}

/// Names of the kModeled columns whose values differ between `a` and `b`
/// (compared bit for bit), in CSV order. Empty = same under the guarantee.
std::vector<std::string> ModeledColumnDiffs(const SuperstepMetrics& a,
                                            const SuperstepMetrics& b);

/// Metrics for the graph loading phase (Fig 16).
struct LoadMetrics {
  double load_seconds = 0;          ///< modeled: parse + store build
  uint64_t bytes_written = 0;       ///< bytes written to build the layouts
  uint64_t adj_bytes = 0;
  uint64_t veblock_bytes = 0;
  uint64_t vblock_bytes = 0;
  uint64_t total_fragments = 0;     ///< f (Theorem 2)
  uint64_t b_lower_bound = 0;       ///< B_perp = |E|/2 - f
  /// Partitioning-shuffle traffic during loading (metered_loading only).
  uint64_t shuffle_net_bytes = 0;
  double shuffle_seconds = 0;
};

/// \brief Everything a finished job reports.
struct JobStats {
  std::vector<SuperstepMetrics> supersteps;
  LoadMetrics load;
  int supersteps_run = 0;
  bool converged = false;
  double modeled_seconds = 0;  ///< sum of superstep_seconds
  double wall_seconds = 0;     ///< actual host time (for reference only)

  uint64_t TotalIoBytes() const {
    uint64_t t = 0;
    for (const auto& s : supersteps) t += s.io.Total();
    return t;
  }
  uint64_t TotalNetBytes() const { return Sum(&Step::net_bytes); }
  uint64_t TotalMessages() const { return Sum(&Step::messages_produced); }
  uint64_t MaxMemoryHighwater() const {
    return Max(&Step::memory_highwater_bytes);
  }
  uint64_t TotalPullRequests() const { return Sum(&Step::pull_requests); }
  double MaxMsgImbalance() const { return Max(&Step::msg_imbalance); }
  double MaxEdgeImbalance() const { return Max(&Step::edge_imbalance); }

  /// One-line summary for bench output.
  std::string Summary() const;

 private:
  using Step = SuperstepMetrics;
  template <typename T>
  T Sum(T Step::*column) const {
    T t = 0;
    for (const auto& s : supersteps) t += s.*column;
    return t;
  }
  template <typename T>
  T Max(T Step::*column) const {
    T t = 0;
    for (const auto& s : supersteps) t = t < s.*column ? s.*column : t;
    return t;
  }
};

}  // namespace hybridgraph
