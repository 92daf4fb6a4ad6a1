// The mode-agnostic superstep driver: owns the BSP loop, the thread-pool
// phase barriers, the aggregator exchange, hybrid switching (Eq. 11) and
// checkpointing, and delegates everything mode-specific to the installed
// MessagePath strategies.
//
// Execution model per superstep t (uniform across modes):
//   Phase A (consume)  — every node collects the messages addressed to its
//     vertices, via the path that PRODUCED them at t-1 (consumption mode at
//     t = production mode at t-1, which is what makes hybrid switching a
//     pure mode-registry lookup).
//   Phase B (update + produce) — every node updates its vertices and lets
//     the current production path ship/stage whatever its mode ships.
//
// Phase A of all nodes runs before any Phase B, which gives the BSP
// semantics (pull always observes superstep t-1 values) without vertex
// value versioning. Each phase is wrapped in trace spans (cluster-wide and
// per node) that export to chrome://tracing when config.trace_path is set.
//
// Streaming epochs mutate the loaded topology between converged runs through
// the compiled services of core/epoch_driver.h; the driver contributes only
// its epoch-start hook (StartEpoch) and the Run() loop, via epoch_target().
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <vector>

#include "core/aggregators.h"
#include "core/engine_checkpoint.h"
#include "core/engine_setup.h"
#include "core/epoch_driver.h"
#include "core/hybrid_switch.h"
#include "core/job_config.h"
#include "core/message_flow.h"
#include "core/message_path.h"
#include "core/mirror_table.h"
#include "core/node_state.h"
#include "core/program.h"
#include "core/run_metrics.h"
#include "core/superstep_accounting.h"
#include "core/trace.h"
#include "graph/edge_list.h"
#include "graph/partition.h"
#include "net/transport.h"
#include "util/buffer.h"
#include "util/codec.h"
#include "util/failpoint.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace hybridgraph {

template <typename P>
class SuperstepDriver {
 public:
  using Value = typename P::Value;
  using Message = typename P::Message;

  static constexpr size_t kMsgSize = P::kMessageSize;
  /// Wire/spill record: destination id + message payload.
  static constexpr size_t kMsgRecordSize = 4 + kMsgSize;
  /// Vertex value record on disk (id + out-degree + payload).
  static constexpr size_t kValueRecordSize = 8 + P::kValueSize;

  SuperstepDriver(JobConfig config, P program)
      : config_(std::move(config)), program_(std::move(program)) {}

  /// Registers `path` under its mode. `active` paths are Build()t at Load
  /// time and may produce; inactive ones only occupy their registry slot
  /// (never reached because the mode never resolves to them).
  void InstallPath(MessagePath<P>* path, bool active) {
    registry_[static_cast<size_t>(path->mode())] = path;
    if (active) build_order_.push_back(path);
  }

  Status Load(const EdgeListGraph& graph) {
    HG_RETURN_IF_ERROR(graph.Validate());
    JobConfig::JobFacts job_facts;
    job_facts.num_vertices = graph.num_vertices;
    job_facts.combinable_messages = P::kCombinable;
    HG_RETURN_IF_ERROR(config_.Validate(job_facts));
    if (!config_.failpoints.empty()) {
      HG_RETURN_IF_ERROR(
          FailPointRegistry::Instance().ArmFromString(config_.failpoints));
    }
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
    if (config_.io.prefetch_depth > 0) {
      io_pool_ = std::make_unique<ThreadPool>(config_.io.prefetch_threads);
    }
    FoldCpuScale(&config_);
    ctx_.num_vertices = graph.num_vertices;
    ctx_.superstep = 0;
    if (!config_.trace_path.empty()) trace_.Enable();

    for (MessagePath<P>* path : build_order_) {
      HG_RETURN_IF_ERROR(path->Build(graph));
    }
    HG_RETURN_IF_ERROR(ChooseInitialMode());
    loaded_ = true;
    return Status::OK();
  }

  Status RunSuperstep() {
    if (!loaded_) return Status::FailedPrecondition("Load() first");
    ctx_.superstep = superstep_;
    MessagePath<P>* cons = registry_[static_cast<size_t>(prev_produce_)];
    MessagePath<P>* prod = registry_[static_cast<size_t>(mode_)];
    prod->BeginAccounting();
    fault_snapshot_ = transport_->fault_counters();

    const EngineMode produce_mode = mode_;
    const bool switched = superstep_ > 0 && produce_mode != prev_produce_;
    for (auto& node : nodes_) {
      if (node.pipeline) {
        node.pipeline->SetContext(superstep_, static_cast<int>(prev_produce_));
      }
    }

    // Phase A on all nodes, then Phase B on all nodes: BSP-consistent pulls.
    // Each phase fans out across the pool (one task per node) with a barrier
    // in between; the staged cross-node effects (pull-serve accounting,
    // pushed batches) are drained node-locally right after each barrier in
    // fixed sender/requester order so every counter and float sum matches
    // the single-thread run.
    const auto t0 = std::chrono::steady_clock::now();
    {
      TraceSpan phase(&trace_, "consume", superstep_, -1, prev_produce_);
      HG_RETURN_IF_ERROR(
          pool_->ParallelFor(config_.num_nodes, [&](uint32_t i) {
            TraceSpan span(&trace_, "consume", superstep_,
                           static_cast<int>(i), prev_produce_);
            return cons->Consume(i);
          }));
      HG_RETURN_IF_ERROR(
          pool_->ParallelFor(config_.num_nodes,
                             [&](uint32_t i) { return cons->AfterConsume(i); }));
    }
    const auto t1 = std::chrono::steady_clock::now();
    {
      TraceSpan phase(&trace_, "update", superstep_, -1, produce_mode);
      HG_RETURN_IF_ERROR(
          pool_->ParallelFor(config_.num_nodes, [&](uint32_t i) {
            TraceSpan span(&trace_, "update", superstep_, static_cast<int>(i),
                           produce_mode);
            return prod->UpdateProduce(i);
          }));
    }
    const auto t2 = std::chrono::steady_clock::now();
    {
      TraceSpan phase(&trace_, "drain", superstep_, -1, produce_mode);
      HG_RETURN_IF_ERROR(
          pool_->ParallelFor(config_.num_nodes, [&](uint32_t i) {
            {
              TraceSpan span(&trace_, "drain", superstep_, static_cast<int>(i),
                             produce_mode);
              HG_RETURN_IF_ERROR(prod->AfterProduce(i));
            }
            // Compute/communication overlap: while the other nodes are still
            // draining (and before the aggregator exchange below), schedule
            // background readahead for the data the next superstep's consume
            // phase will touch. Observability only — nothing modeled moves.
            TraceSpan overlap(&trace_, "drain.overlap", superstep_,
                              static_cast<int>(i), produce_mode);
            return prod->WarmupNextSuperstep(i);
          }));
    }
    const auto t3 = std::chrono::steady_clock::now();

    // Aggregator barrier: partial sums travel to the master and the global
    // value is broadcast back (metered control traffic), becoming visible to
    // the next superstep's Update calls.
    double aggregate = 0;
    if constexpr (HasAggregator<P>) {
      if (prod->supports_aggregator()) {
        Buffer payload;
        Encoder enc(&payload);
        for (auto& node : nodes_) {
          aggregate += node.aggregate_partial;
          if (node.id != 0) {
            payload.Clear();
            enc.PutDouble(node.aggregate_partial);
            HG_RETURN_IF_ERROR(transport_->Post(
                node.id, 0, RpcMethod::kControl, payload.AsSlice()));
          }
        }
        for (uint32_t y = 1; y < config_.num_nodes; ++y) {
          payload.Clear();
          enc.PutDouble(aggregate);
          HG_RETURN_IF_ERROR(
              transport_->Post(0, y, RpcMethod::kControl, payload.AsSlice()));
        }
        pull_gen_aggregate_ = ctx_.prev_aggregate;
        ctx_.prev_aggregate = aggregate;
      }
    }

    // Metrics and the switching decision read next-superstep flags, so they
    // run before the barrier swap.
    SuperstepMetrics m = prod->EndAccounting(produce_mode, switched);
    if (prod->hybrid_metrics()) {
      EvaluateSwitch(&m, config_, partition_, nodes_, facts_, superstep_,
                     &hybrid_, &mode_);
    }
    m.aggregate = aggregate;
    m.phase_consume_wall_s = std::chrono::duration<double>(t1 - t0).count();
    m.phase_update_wall_s = std::chrono::duration<double>(t2 - t1).count();
    m.phase_drain_wall_s = std::chrono::duration<double>(t3 - t2).count();
    stats_.supersteps.push_back(m);
    stats_.modeled_seconds += m.superstep_seconds;

    // Barrier: promote next-superstep state.
    uint64_t responding_total = 0;
    uint64_t inflight = 0;
    prod->Promote(&responding_total, &inflight);

    prev_produce_ = produce_mode;
    ++superstep_;
    stats_.supersteps_run = superstep_;

    if (responding_total == 0 && inflight == 0 && superstep_ > 0) {
      converged_ = true;
    }
    if constexpr (HasAggregateHalt<P>) {
      if (prod->supports_aggregator() && superstep_ > 1 &&
          program_.ShouldHalt(aggregate)) {
        converged_ = true;
      }
    }
    return Status::OK();
  }

  Status Run() {
    const auto start = std::chrono::steady_clock::now();
    while (superstep_ < config_.max_supersteps && !converged_) {
      HG_RETURN_IF_ERROR(RunSuperstep());
    }
    stats_.converged = converged_;
    stats_.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (trace_.enabled()) {
      HG_RETURN_IF_ERROR(trace_.WriteJson(config_.trace_path));
    }
    return Status::OK();
  }

  // --------------------------------------------------- block-engine services

  /// Builds the shared block-centric topology (partition, stores, flags,
  /// inboxes, RPC wiring) the first time a block path asks for it; later
  /// calls are no-ops so push and b-pull share one build under hybrid.
  Status EnsureBlockTopology(const EdgeListGraph& graph) {
    if (topology_built_) return Status::OK();
    topology_built_ = true;

    bool need_adj = false;
    bool need_ve = false;
    bool any_mirrors = false;
    for (MessagePath<P>* path : build_order_) {
      need_adj = need_adj || path->needs_adjacency();
      need_ve = need_ve || path->needs_veblocks();
      any_mirrors = any_mirrors || path->mirrors_hot_vertices();
    }

    hooks_.init_value = [this](VertexId v, uint8_t* out) {
      // Superstep 0 also when an epoch reinitializes mid-stream.
      SuperstepContext init_ctx = ctx_;
      init_ctx.superstep = 0;
      PodCodec<Value>::Encode(program_.InitValue(v, init_ctx), out);
    };
    hooks_.init_active = [this](VertexId v) { return program_.InitActive(v); };
    if constexpr (P::kCombinable) {
      hooks_.pending_combiner = &ProgramOps<P>::CombineRaw;
      hooks_.staging_combiner = &ProgramOps<P>::CombineRaw;
      if (config_.io.spill_combining) {
        hooks_.spill_combiner = &ProgramOps<P>::CombineRaw;
      }
    }

    HG_RETURN_IF_ERROR(BuildBlockTopology(
        graph, config_, P::kCombinable, P::kValueSize, kMsgSize, need_adj,
        need_ve, hooks_, &partition_, &transport_, &nodes_, graph.num_edges(),
        &stats_.load, &census_));
    // Degree-aware vertex mirroring: hot set from the global in-degree
    // distribution, one accumulator slot per (node, hot vertex). Only built
    // when a registered producer folds mirrors (push family / adaptive);
    // Validate() already rejected the threshold for non-combinable programs.
    if (config_.mirror_degree_threshold > 0 && P::kCombinable && any_mirrors) {
      mirror_table_ =
          MirrorTable::Build(graph.InDegrees(), config_.mirror_degree_threshold);
      mirroring_ = !mirror_table_.empty();
      for (auto& node : nodes_) {
        node.mirror_acc.assign(mirror_table_.size() * kMsgSize, 0);
        node.mirror_has.assign(mirror_table_.size(), 0);
      }
    }

    // Per-node readahead pipelines over the node's storage. Background reads
    // are unmetered; metering happens at the consumption point, so modeled
    // I/O stays bit-identical with prefetch on or off.
    if (io_pool_ != nullptr) {
      for (auto& node : nodes_) {
        node.pipeline = std::make_unique<ReadPipeline>(
            node.storage.get(), io_pool_.get(), config_.io.prefetch_depth,
            config_.io.prefetch_budget_bytes);
        node.pipeline->SetSpanSink(
            [this, node_id = static_cast<int>(node.id)](
                const char* name, int superstep, int mode, uint64_t start_us,
                uint64_t end_us) {
              trace_.AddSteadySpan(name, superstep, node_id, start_us, end_us,
                                   static_cast<EngineMode>(mode));
            });
      }
    }

    // RPC wiring. Handlers run in the SENDER's thread (or a transport server
    // thread) under the destination's dispatch lock, possibly while this
    // node's own phase task is running — so they only stage raw bytes or
    // per-requester counters; the paths apply them at the next barrier.
    for (uint32_t i = 0; i < config_.num_nodes; ++i) {
      NodeState* node = &nodes_[i];
      transport_->RegisterHandler(
          i, RpcMethod::kPushMessages, [node](NodeId src, Slice payload, Buffer*) {
            node->push_staged[src].emplace_back(
                payload.data(), payload.data() + payload.size());
            return Status::OK();
          });
      transport_->RegisterHandler(
          i, RpcMethod::kPullRequest,
          [this, node](NodeId src, Slice payload, Buffer* response) {
            // A pull at superstep t fetches the messages PRODUCED at t-1, so
            // it is served by the previous producer path when that path
            // serves pulls (adaptive), else by the b-pull slot (the only
            // other server; push producers never trigger pulls).
            MessagePath<P>* p = registry_[static_cast<size_t>(prev_produce_)];
            if (p == nullptr || !p->serves_pulls()) {
              p = registry_[static_cast<size_t>(EngineMode::kBPull)];
            }
            if (p == nullptr) return Status::Internal("no pull path installed");
            return p->ServePull(*node, src, payload, response);
          });
      transport_->RegisterHandler(
          i, RpcMethod::kPullAdvert, [node](NodeId src, Slice payload, Buffer*) {
            // Stage the advert bytes; the adaptive consume phase turns them
            // into a request mask at the next Phase A barrier.
            node->pull_advert_staged[src].assign(
                payload.data(), payload.data() + payload.size());
            node->pull_advert_valid[src] = 1;
            return Status::OK();
          });
      transport_->RegisterHandler(i, RpcMethod::kControl,
                                  [](NodeId, Slice, Buffer*) {
                                    return Status::OK();
                                  });
    }
    return Status::OK();
  }

  /// The shared Phase B vertex-update sweep over one node's Vblocks
  /// (update() + setResFlag); production is delegated to the path's
  /// ProduceVblock/FinishProduce hooks so this loop stays mode-free.
  Status UpdateVblocks(NodeState& node, MessagePath<P>& prod) {
    std::fill(node.responding_next.begin(), node.responding_next.end(), 0);
    std::fill(node.vblock_res_next.begin(), node.vblock_res_next.end(), 0);

    const uint32_t first_vb = partition_.FirstVblockOf(node.id);
    const uint32_t last_vb = partition_.LastVblockOf(node.id);
    const std::vector<Message> no_msgs;
    std::vector<Message> msg_scratch;
    std::vector<uint8_t> values;
    std::vector<uint8_t> respond_in_vb;

    // Precompute which Vblocks will be read this sweep, so the pipeline can
    // stay one block ahead of the scan. Safe to hoist: the flags any_active
    // reads (pending, active) are only mutated for vertices inside the same
    // Vblock, after that block's own flag was computed.
    std::vector<uint8_t> vb_active(last_vb - first_vb, 0);
    for (uint32_t vb = first_vb; vb < last_vb; ++vb) {
      const VertexRange r = partition_.VblockRange(vb);
      for (VertexId v = r.begin; v < r.end; ++v) {
        const uint32_t li = node.LocalIdx(v);
        const bool a = P::kAlwaysActive
                           ? (superstep_ > 0 || node.active[li])
                           : (node.pending.Has(li) || node.active[li]);
        if (a) {
          vb_active[vb - first_vb] = 1;
          break;
        }
      }
    }
    auto prefetch_next_vblock = [&](uint32_t after_vb) {
      if (!node.pipeline || !node.pipeline->enabled()) return;
      for (uint32_t nvb = after_vb + 1; nvb < last_vb; ++nvb) {
        if (vb_active[nvb - first_vb]) {
          node.vstore->PrefetchBlock(nvb, node.pipeline.get(),
                                     IoClass::kSeqRead);
          return;
        }
      }
    };

    for (uint32_t vb = first_vb; vb < last_vb; ++vb) {
      const VertexRange r = partition_.VblockRange(vb);
      const bool any_active = vb_active[vb - first_vb] != 0;
      respond_in_vb.assign(r.size(), 0);
      if (any_active) {
        // Stage the following active Vblock before consuming this one, so
        // its read overlaps this block's update work.
        prefetch_next_vblock(vb);
        // IO(V^t): scan + write back the Vblock.
        HG_RETURN_IF_ERROR(node.vstore->ReadBlock(
            vb, &values, IoClass::kSeqRead, node.pipeline.get()));
        node.io.vt_bytes += node.vstore->BlockBytes(vb);
        bool block_dirty = false;

        for (VertexId v = r.begin; v < r.end; ++v) {
          const uint32_t li = node.LocalIdx(v);
          const bool has_msgs = node.pending.Has(li);
          const bool run_update =
              P::kAlwaysActive ? (superstep_ > 0 || node.active[li])
                               : (has_msgs || node.active[li]);
          if (!run_update) continue;

          if (has_msgs) {
            msg_scratch.clear();
            const size_t count = node.pending.CountAt(li);
            const uint8_t* data = node.pending.DataAt(li);
            for (size_t k = 0; k < count; ++k) {
              msg_scratch.push_back(
                  PodCodec<Message>::Decode(data + k * kMsgSize));
            }
          }
          const UpdateResult res = UpdateVertex(
              node, v,
              values.data() + static_cast<size_t>(v - r.begin) * P::kValueSize,
              has_msgs ? msg_scratch : no_msgs, &block_dirty);
          if (res.respond) {
            node.responding_next[li] = 1;
            node.vblock_res_next[vb - first_vb] = 1;
            respond_in_vb[v - r.begin] = 1;
          }
          // Consume messages.
          if (has_msgs) node.pending.ConsumeAt(li);
          node.active[li] = 0;
        }
        // With the block's values still in hand, the producing path may
        // keep working on them (GraphHP sub-iterations) before write-back.
        HG_RETURN_IF_ERROR(prod.AfterVblockUpdate(node, vb, respond_in_vb,
                                                  values, &block_dirty));
        if (block_dirty) {
          HG_RETURN_IF_ERROR(
              node.vstore->WriteBlock(vb, values, IoClass::kSeqWrite));
          node.io.vt_bytes += node.vstore->BlockBytes(vb);
        }
      }
      HG_RETURN_IF_ERROR(prod.ProduceVblock(node, vb, respond_in_vb, values));
    }
    return prod.FinishProduce(node);
  }

  /// update() for vertex `v` against its in-hand value record
  /// `value_bytes`: runs Program::Update on `msgs`, folds the aggregator
  /// contribution, charges the modeled CPU, and re-encodes a changed value
  /// (setting *block_dirty). Shared by the Phase B sweep above and by paths
  /// that update vertices inside it (GraphHP sub-iterations).
  UpdateResult UpdateVertex(NodeState& node, VertexId v, uint8_t* value_bytes,
                            const std::vector<Message>& msgs,
                            bool* block_dirty) {
    Value value = PodCodec<Value>::Decode(value_bytes);
    [[maybe_unused]] const Value old_value = value;
    const UpdateResult res = program_.Update(v, &value, msgs, ctx_);
    ++node.updated_vertices;
    if constexpr (HasAggregator<P>) {
      node.aggregate_partial +=
          program_.AggregateContribution(v, old_value, value, ctx_);
    }
    node.cpu_seconds +=
        config_.cpu.per_vertex_update_s +
        config_.cpu.per_message_s * static_cast<double>(msgs.size());
    if (res.changed) {
      PodCodec<Value>::Encode(value, value_bytes);
      *block_dirty = true;
    }
    return res;
  }

  /// Collects all vertex values from the block stores (global, indexed by
  /// vertex id). The vpull path gathers from its own stores instead.
  Result<std::vector<Value>> GatherValues() {
    if (!loaded_) return Status::FailedPrecondition("Load() first");
    std::vector<Value> out(partition_.num_vertices());
    std::vector<uint8_t> values;
    for (auto& node : nodes_) {
      for (uint32_t vb = partition_.FirstVblockOf(node.id);
           vb < partition_.LastVblockOf(node.id); ++vb) {
        HG_RETURN_IF_ERROR(
            node.vstore->ReadBlock(vb, &values, IoClass::kSeqRead));
        const VertexRange r = partition_.VblockRange(vb);
        for (uint32_t i = 0; i < r.size(); ++i) {
          out[r.begin + i] = PodCodec<Value>::Decode(
              values.data() + static_cast<size_t>(i) * P::kValueSize);
        }
      }
    }
    return out;
  }

  Status WriteCheckpoint(Buffer* out) {
    if (!loaded_) return Status::FailedPrecondition("Load() first");
    if (config_.mode == EngineMode::kVPull) return VPullNoCheckpoint();
    return WriteEngineCheckpoint(nodes_, partition_, MakeCheckpointState(),
                                 kMsgSize, out);
  }

  Status RestoreCheckpoint(Slice data) {
    if (!loaded_) return Status::FailedPrecondition("Load() first");
    if (config_.mode == EngineMode::kVPull) return VPullNoCheckpoint();
    // In-flight readahead was issued against pre-restore state; cancel it
    // all before the restore rewrites blocks, so nothing stale survives.
    // (Writes during the restore also invalidate matching staged reads via
    // the storage mutation observer — this is the belt to that suspender.)
    for (auto& node : nodes_) {
      if (node.pipeline) node.pipeline->CancelAll();
    }
    return RestoreEngineCheckpoint(nodes_, partition_, config_,
                                   MakeCheckpointState(), kMsgSize, data,
                                   &stats_.supersteps_run);
  }

  // ---------------------------------------------------------- epoch start

  /// Epoch-start hook: rewinds the BSP state to superstep 0 once the epoch
  /// services (core/epoch_driver.h) have patched the stores, seeded the
  /// frontier and refreshed the census — no leftover messages, flags or
  /// accumulators, fresh hybrid and aggregator state, and a fresh
  /// initial-mode decision. `warm` keeps the converged values as the
  /// starting point (ctx.warm_restart lets seeded traversal vertices respond
  /// at superstep 0).
  Status StartEpoch(bool warm) {
    if (!loaded_) return Status::FailedPrecondition("Load() first");
    superstep_ = 0;
    converged_ = false;
    hybrid_ = HybridState{};
    ctx_.superstep = 0;
    ctx_.prev_aggregate = 0;
    ctx_.warm_restart = warm;
    pull_gen_aggregate_ = 0;
    HG_RETURN_IF_ERROR(ResetEpochNodes(&nodes_));
    return ChooseInitialMode();
  }

  /// What the compiled epoch loop (RunEpoch) drives: this driver's
  /// topology, census, init hooks and meters, plus StartEpoch and Run.
  EpochTarget epoch_target() {
    return {&partition_,      &nodes_, &census_,
            &hooks_,          P::kValueSize,
            transport_.get(), &stats_,
            [this](bool warm) { return StartEpoch(warm); },
            [this] { return Run(); }};
  }

  // ---------------------------------------------------------------- access

  const JobStats& stats() const { return stats_; }
  JobStats* mutable_stats() { return &stats_; }
  const RangePartition& partition() const { return partition_; }
  const JobConfig& config() const { return config_; }
  P& program() { return program_; }
  bool loaded() const { return loaded_; }
  bool converged() const { return converged_; }
  int superstep() const { return superstep_; }
  EngineMode current_mode() const { return mode_; }
  uint64_t total_fragments() const { return census_.total_fragments; }
  uint64_t b_lower_bound() const { return stats_.load.b_lower_bound; }

  /// The hot-vertex mirror registry, or null when mirroring is off (or the
  /// threshold selected nobody). Immutable after topology build.
  const MirrorTable* mirror_table() const {
    return mirroring_ ? &mirror_table_ : nullptr;
  }

  Transport& transport() { return *transport_; }
  void set_transport(std::unique_ptr<Transport> t) { transport_ = std::move(t); }
  /// Shared background-read pool; null when prefetch is disabled. Paths that
  /// own their storage (vpull) build their ReadPipelines on it.
  ThreadPool* io_pool() { return io_pool_.get(); }
  std::vector<NodeState>& nodes() { return nodes_; }
  SuperstepContext& ctx() { return ctx_; }
  double pull_gen_aggregate() const { return pull_gen_aggregate_; }
  const TransportFaultCounters& fault_snapshot() const {
    return fault_snapshot_;
  }
  TraceCollector* trace() { return &trace_; }

 private:
  /// Algorithm 3 line 2 / Theorem 2 over the current census: the production
  /// mode of superstep 0, at Load() and at every epoch start.
  Status ChooseInitialMode() {
    InitialModeInputs in;
    in.b_lower_bound = stats_.load.b_lower_bound;
    in.initial_messages = census_.initial_messages;
    in.initial_active_frac = static_cast<double>(census_.initial_active_count) /
                             static_cast<double>(ctx_.num_vertices);
    in.total_fragments = census_.total_fragments;
    HG_ASSIGN_OR_RETURN(mode_, DecideInitialMode(config_, nodes_, facts_, in));
    prev_produce_ = mode_;
    return Status::OK();
  }

  /// The checkpoint image covers the block-centric state only; v-pull keeps
  /// its vertex-cut stores inside its path.
  static Status VPullNoCheckpoint() {
    return Status::Unimplemented("v-pull has no checkpoint support");
  }

  CheckpointState MakeCheckpointState() {
    CheckpointState st;
    st.superstep = &superstep_;
    st.mode = &mode_;
    st.prev_produce = &prev_produce_;
    st.converged = &converged_;
    st.hybrid = &hybrid_;
    st.prev_aggregate = &ctx_.prev_aggregate;
    return st;
  }

  JobConfig config_;
  P program_;
  RangePartition partition_;
  std::unique_ptr<Transport> transport_;
  std::unique_ptr<ThreadPool> pool_;
  /// Dedicated pool for background prefetch reads (null when prefetch is
  /// off). Separate from pool_ because ThreadPool is a single FIFO queue: a
  /// compute task waiting on a queued prefetch task would deadlock at
  /// num_threads=1. Declared before nodes_ so it outlives the per-node
  /// ReadPipelines (reverse destruction order), which wait out their
  /// in-flight reads in their destructors.
  std::unique_ptr<ThreadPool> io_pool_;
  std::vector<NodeState> nodes_;
  SuperstepContext ctx_;
  TraceCollector trace_;

  int superstep_ = 0;
  bool converged_ = false;
  bool loaded_ = false;
  bool topology_built_ = false;

  // Hybrid state: production mode for the upcoming superstep and the one
  // used by the previous superstep (= consumption mode of the upcoming one).
  EngineMode mode_ = EngineMode::kPush;
  EngineMode prev_produce_ = EngineMode::kPush;
  HybridState hybrid_;
  const HybridFacts facts_{P::kCombinable, kMsgSize, kMsgRecordSize,
                           kValueRecordSize, LocallyIterable<P>};
  /// Aggregate visible to the previous superstep (pullRes() at superstep t
  /// logically produces superstep t-1's messages and must see t-1's view).
  double pull_gen_aggregate_ = 0;

  /// fault_counters() at the start of the current superstep; the superstep's
  /// SuperstepMetrics records the delta.
  TransportFaultCounters fault_snapshot_;

  MirrorTable mirror_table_;
  bool mirroring_ = false;

  /// Graph and frontier census behind the initial-mode decision; the
  /// epoch services refresh it before every epoch start.
  BlockTopologyCensus census_;
  /// Program init callbacks of the topology build, reused by the epoch
  /// services' cold reinit.
  BlockTopologyHooks hooks_;

  JobStats stats_;

  /// Mode -> strategy. Indexed by EngineMode; kHybrid's slot stays null
  /// (hybrid is a driver policy, not a path).
  std::array<MessagePath<P>*, kNumEngineModes> registry_{};
  std::vector<MessagePath<P>*> build_order_;
};

}  // namespace hybridgraph
