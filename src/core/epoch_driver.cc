#include "core/epoch_driver.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "util/string_util.h"

namespace hybridgraph {

namespace {

// Epoch cells: uint64_t as %llu, double as %.6f, bool as 0/1 in CSV and
// true/false in JSON.
std::string EpochCell(uint64_t v, bool) {
  return StringFormat("%llu", static_cast<unsigned long long>(v));
}
std::string EpochCell(double v, bool) { return StringFormat("%.6f", v); }
std::string EpochCell(bool v, bool json) {
  if (json) return v ? "true" : "false";
  return v ? "1" : "0";
}

}  // namespace

std::string EpochMetricsCsvHeader() {
  return JoinColumns(EpochMetrics{}, ",", [](const char* name, const auto&) {
    return std::string(name);
  });
}

std::string EpochMetricsCsvRow(const EpochMetrics& m) {
  return JoinColumns(m, ",", [](const char*, const auto& v) {
    return EpochCell(v, false);
  });
}

std::string EpochMetricsJson(const std::vector<EpochMetrics>& all) {
  std::string out = "[\n";
  for (size_t i = 0; i < all.size(); ++i) {
    out += "  {";
    out += JoinColumns(all[i], ", ", [](const char* name, const auto& v) {
      return StringFormat("\"%s\": ", name) + EpochCell(v, true);
    });
    out += i + 1 < all.size() ? "},\n" : "}\n";
  }
  return out + "]";
}

Status ApplyEdgeBatch(const EdgeBatch& batch, const RangePartition& partition,
                      std::vector<NodeState>* nodes,
                      std::vector<VertexId>* touched,
                      BlockTopologyCensus* census) {
  HG_RETURN_IF_ERROR(ValidateBatch(partition.num_vertices(), batch));
  // In-flight readahead was issued against pre-batch bytes; cancel it all.
  // (The store writes below also invalidate matching staged reads via the
  // storage mutation observers — this is the belt to that suspender.)
  for (auto& node : *nodes) {
    if (node.pipeline) node.pipeline->CancelAll();
  }

  std::vector<std::vector<EdgeDelta>> per_node(nodes->size());
  for (const auto& d : batch.deltas) {
    per_node[partition.NodeOf(d.src)].push_back(d);
  }
  DegreeDeltaMap in_deg;    // global, keyed by destination vertex
  DegreeDeltaMap cross_in;  // global, cross-Vblock share of in_deg
  for (size_t i = 0; i < nodes->size(); ++i) {
    if (per_node[i].empty()) continue;
    NodeState& node = (*nodes)[i];
    DegreeDeltaMap out_deg;
    // The overlay is the out-degree source of truth when both stores are
    // built (they apply identical merge semantics, so the deltas agree).
    if (node.ve != nullptr) {
      HG_RETURN_IF_ERROR(
          node.ve->ApplyBatch(per_node[i], &out_deg, &in_deg, &cross_in));
      if (node.adj != nullptr) {
        HG_RETURN_IF_ERROR(node.adj->ApplyBatch(per_node[i], nullptr));
      }
    } else if (node.adj != nullptr) {
      HG_RETURN_IF_ERROR(node.adj->ApplyBatch(per_node[i], &out_deg));
      for (const auto& d : per_node[i]) {
        if (!d.is_delete) in_deg[d.dst] += 1;
      }
    } else {
      return Status::FailedPrecondition("no mutable edge store on node");
    }
    std::set<uint32_t> touched_vbs;
    for (const auto& [v, dd] : out_deg) {
      node.vstore->AdjustOutDegree(v, dd);
      touched_vbs.insert(partition.VblockOf(v));
    }
    // Refresh the on-disk records of the touched Vblocks (WriteBlock
    // re-encodes the degree field from the memory copy just patched).
    std::vector<uint8_t> values;
    for (uint32_t vb : touched_vbs) {
      HG_RETURN_IF_ERROR(
          node.vstore->ReadBlock(vb, &values, IoClass::kSeqRead));
      HG_RETURN_IF_ERROR(
          node.vstore->WriteBlock(vb, values, IoClass::kSeqWrite));
    }
  }
  for (const auto& [v, dd] : in_deg) {
    NodeState& owner = (*nodes)[partition.NodeOf(v)];
    if (owner.ve != nullptr) {
      owner.ve->AdjustInDegree(partition.VblockOf(v), dd);
    }
  }
  // Cross-Vblock in-edge deltas reach the destination owner's overlay so
  // boundary/inner classification stays exact under remote-source deltas.
  for (const auto& [v, dd] : cross_in) {
    NodeState& owner = (*nodes)[partition.NodeOf(v)];
    if (owner.ve != nullptr) owner.ve->AdjustCrossIn(v, dd);
  }
  uint64_t fragments = 0;
  bool any_ve = false;
  for (auto& node : *nodes) {
    if (node.ve != nullptr) {
      any_ve = true;
      fragments += node.ve->TotalFragments();
    }
  }
  if (any_ve) census->total_fragments = fragments;
  if (touched != nullptr) {
    std::set<VertexId> touched_set;
    for (const auto& d : batch.deltas) {
      touched_set.insert(d.src);
      touched_set.insert(d.dst);
    }
    touched->assign(touched_set.begin(), touched_set.end());
  }
  return Status::OK();
}

void SeedEpochActives(const std::vector<VertexId>& touched,
                      const RangePartition& partition,
                      std::vector<NodeState>* nodes,
                      BlockTopologyCensus* census) {
  for (auto& node : *nodes) {
    std::fill(node.active.begin(), node.active.end(), 0);
  }
  uint64_t seeded = 0;
  uint64_t msgs = 0;
  for (VertexId v : touched) {
    NodeState& node = (*nodes)[partition.NodeOf(v)];
    uint8_t& slot = node.active[node.LocalIdx(v)];
    if (slot == 0) {
      slot = 1;
      ++seeded;
      msgs += node.vstore->OutDegree(v);
    }
  }
  census->initial_messages = msgs;
  census->initial_active_count = seeded;
}

void SeedAllActives(std::vector<NodeState>* nodes,
                    BlockTopologyCensus* census) {
  uint64_t seeded = 0;
  uint64_t msgs = 0;
  for (auto& node : *nodes) {
    std::fill(node.active.begin(), node.active.end(), 1);
    for (VertexId v = node.range.begin; v < node.range.end; ++v) {
      msgs += node.vstore->OutDegree(v);
    }
    seeded += node.range.size();
  }
  census->initial_messages = msgs;
  census->initial_active_count = seeded;
}

Status ReinitEpochState(const RangePartition& partition,
                        const BlockTopologyHooks& hooks, size_t value_size,
                        std::vector<NodeState>* nodes,
                        BlockTopologyCensus* census) {
  uint64_t seeded = 0;
  uint64_t msgs = 0;
  std::vector<uint8_t> values;
  for (auto& node : *nodes) {
    for (uint32_t vb = partition.FirstVblockOf(node.id);
         vb < partition.LastVblockOf(node.id); ++vb) {
      const VertexRange r = partition.VblockRange(vb);
      values.assign(static_cast<size_t>(r.size()) * value_size, 0);
      for (VertexId v = r.begin; v < r.end; ++v) {
        hooks.init_value(
            v, values.data() + static_cast<size_t>(v - r.begin) * value_size);
      }
      HG_RETURN_IF_ERROR(
          node.vstore->WriteBlock(vb, values, IoClass::kSeqWrite));
    }
    for (VertexId v = node.range.begin; v < node.range.end; ++v) {
      const bool a = hooks.init_active(v);
      node.active[node.LocalIdx(v)] = a ? 1 : 0;
      if (a) {
        ++seeded;
        msgs += node.vstore->OutDegree(v);
      }
    }
  }
  census->initial_messages = msgs;
  census->initial_active_count = seeded;
  return Status::OK();
}

Status ResetEpochNodes(std::vector<NodeState>* nodes) {
  for (auto& node : *nodes) {
    std::fill(node.responding.begin(), node.responding.end(), 0);
    std::fill(node.responding_next.begin(), node.responding_next.end(), 0);
    std::fill(node.vblock_res.begin(), node.vblock_res.end(), 0);
    std::fill(node.vblock_res_next.begin(), node.vblock_res_next.end(), 0);
    // An aggregator halt can leave produced-but-unconsumed messages in the
    // promoted inbox; a new epoch starts clean.
    node.inbox_cur.ClearMem();
    node.inbox_next.ClearMem();
    node.inbox_cur.total = node.inbox_cur.spilled = 0;
    node.inbox_next.total = node.inbox_next.spilled = 0;
    if (node.inbox_cur.spill() != nullptr) {
      HG_RETURN_IF_ERROR(node.inbox_cur.spill()->Clear());
    }
    if (node.inbox_next.spill() != nullptr) {
      HG_RETURN_IF_ERROR(node.inbox_next.spill()->Clear());
    }
    for (uint32_t li = 0; li < node.range.size(); ++li) {
      if (node.pending.Has(li)) node.pending.ConsumeAt(li);
    }
    node.pending.ResetCount();
    std::fill(node.moc_acc.begin(), node.moc_acc.end(), 0);
    std::fill(node.moc_has.begin(), node.moc_has.end(), 0);
    std::fill(node.mirror_acc.begin(), node.mirror_acc.end(), 0);
    std::fill(node.mirror_has.begin(), node.mirror_has.end(), 0);
    for (auto& staged : node.push_staged) staged.clear();
    std::fill(node.pull_advert_valid.begin(), node.pull_advert_valid.end(), 0);
  }
  return Status::OK();
}

Status CompactOverlays(std::vector<NodeState>* nodes, uint64_t min_runs) {
  for (auto& node : *nodes) {
    if (node.ve != nullptr) HG_RETURN_IF_ERROR(node.ve->CompactAll(min_runs));
  }
  return Status::OK();
}

Status RunEpoch(EpochPolicy policy, const EdgeBatch& batch, uint64_t epoch,
                const EpochTarget& t, EpochMetrics* m) {
  if (t.nodes->empty()) {
    return Status::FailedPrecondition(
        "streaming requires a loaded block-centric topology");
  }
  // Snapshot the modeled meters so the epoch reports deltas.
  const auto meter = [&t](uint64_t* read, uint64_t* write) {
    for (auto& node : *t.nodes) {
      *read += node.storage->meter()->ReadBytes();
      *write += node.storage->meter()->WriteBytes();
    }
  };
  uint64_t read0 = 0, write0 = 0;
  meter(&read0, &write0);
  const uint64_t net0 = t.transport->TotalBytesSent();
  const double modeled0 = t.stats->modeled_seconds;
  const size_t supersteps0 = t.stats->supersteps.size();

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<VertexId> touched;
  HG_RETURN_IF_ERROR(
      ApplyEdgeBatch(batch, *t.partition, t.nodes, &touched, t.census));
  const auto t1 = std::chrono::steady_clock::now();

  bool warm = true;
  if (policy == EpochPolicy::kSeedAll) {
    SeedAllActives(t.nodes, t.census);
  } else if (!batch.HasDeletes()) {
    // Insert-only: every possible improvement originates at a new edge's
    // source, which re-announces its converged value at superstep 0.
    SeedEpochActives(touched, *t.partition, t.nodes, t.census);
  } else {
    warm = false;
    HG_RETURN_IF_ERROR(ReinitEpochState(*t.partition, *t.hooks, t.value_size,
                                        t.nodes, t.census));
  }
  HG_RETURN_IF_ERROR(t.start_epoch(warm));
  HG_RETURN_IF_ERROR(t.run());
  const auto t2 = std::chrono::steady_clock::now();

  if (m != nullptr) {
    m->epoch = epoch;
    m->timestamp = batch.timestamp;
    m->batch_deltas = batch.deltas.size();
    m->inserts = batch.NumInserts();
    m->deletes = batch.NumDeletes();
    m->touched_vertices = touched.size();
    m->warm = warm;
    m->supersteps = t.stats->supersteps.size() - supersteps0;
    m->ingest_wall_s = std::chrono::duration<double>(t1 - t0).count();
    m->converge_wall_s = std::chrono::duration<double>(t2 - t1).count();
    m->modeled_seconds = t.stats->modeled_seconds - modeled0;
    uint64_t read1 = 0, write1 = 0, runs = 0, run_bytes = 0;
    meter(&read1, &write1);
    for (auto& node : *t.nodes) {
      if (node.ve != nullptr) {
        runs += node.ve->DeltaRunCount();
        run_bytes += node.ve->DeltaBytes();
      }
    }
    m->read_bytes = read1 - read0;
    m->write_bytes = write1 - write0;
    m->net_bytes = t.transport->TotalBytesSent() - net0;
    m->delta_runs = runs;
    m->delta_bytes = run_bytes;
  }
  return Status::OK();
}

}  // namespace hybridgraph
