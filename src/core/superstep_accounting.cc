#include "core/superstep_accounting.h"

#include <algorithm>

namespace hybridgraph {

void BeginBlockAccounting(std::vector<NodeState>& nodes, Transport& transport) {
  for (auto& node : nodes) {
    node.aggregate_partial = 0;
    node.updated_vertices = 0;
    node.msgs_produced = 0;
    node.msgs_wire = 0;
    node.msgs_combined = 0;
    node.flushes = 0;
    node.cpu_seconds = 0;
    node.mem_highwater = 0;
    node.spill_buffer_peak = 0;
    node.spill_resident_peak = 0;
    node.spill_combined = 0;
    node.edges_scanned = 0;
    node.pull_requests = 0;
    node.local_iters = 0;
    node.local_depth = 0;
    node.local_msg_bytes = 0;
    node.io = IoBreakdown{};
    node.disk_snapshot = *node.storage->meter();
    node.net_snapshot = *transport.meter(node.id);
  }
}

uint64_t ModeledMemoryBytes(const NodeState& node,
                            const RangePartition& partition,
                            uint64_t extra_buffer_bytes) {
  // Metadata kept in memory by b-pull/hybrid: X_j (counts/degrees ~ 24B) and
  // the bitmap row per local Vblock.
  uint64_t meta = 0;
  if (node.ve) {
    meta = static_cast<uint64_t>(partition.NumVblocksOf(node.id)) *
           (24 + partition.num_vblocks() / 8 + 1);
  }
  return meta + node.mem_highwater + extra_buffer_bytes;
}

void AddNodeModeledTime(const JobConfig& config, double cpu_seconds,
                        uint64_t flushes, const DiskMeter& disk,
                        const NetMeter& net, SuperstepMetrics* m) {
  const double io_s =
      config.memory_resident ? 0.0 : disk.ModeledSeconds(config.disk);
  const double send_s = config.net.SecondsFor(net.bytes_sent);
  const double recv_s = config.net.SecondsFor(net.bytes_received);
  const double net_s = std::max(send_s, recv_s);
  const double work_s = cpu_seconds + io_s;
  const double tail_s = config.net.SecondsFor(
      std::min<uint64_t>(config.sending_threshold_bytes, net.bytes_sent));
  const double blocking_s =
      static_cast<double>(flushes) * config.flush_overhead_s + tail_s +
      std::max(0.0, net_s - work_s);
  m->cpu_seconds += cpu_seconds;
  m->io_seconds += io_s;
  m->net_seconds += net_s;
  m->blocking_seconds = std::max(m->blocking_seconds, blocking_s);
  m->superstep_seconds = std::max(m->superstep_seconds, work_s + blocking_s);
}

void AddPrefetchStats(ReadPipeline* pipeline, SuperstepMetrics* m) {
  if (pipeline == nullptr) return;
  const ReadPipeline::Stats ps = pipeline->DrainStats();
  m->prefetch_scheduled += ps.scheduled;
  m->prefetch_hits += ps.hits;
  m->prefetch_misses += ps.misses + ps.fallbacks;
  m->prefetch_hit_bytes += ps.hit_bytes;
}

SuperstepMetrics AccumulateBlockMetrics(std::vector<NodeState>& nodes,
                                        const BlockAccountingInputs& in) {
  const JobConfig& config = *in.config;
  SuperstepMetrics m;
  m.superstep = in.superstep;
  m.mode = in.produce_mode;
  m.switched = in.switched;

  uint64_t max_node_msgs = 0;
  uint64_t max_node_edges = 0;
  size_t node_idx = 0;
  for (auto& node : nodes) {
    max_node_msgs = std::max(max_node_msgs, node.msgs_produced);
    max_node_edges = std::max(max_node_edges, node.edges_scanned);
    m.edges_scanned += node.edges_scanned;
    m.pull_requests += node.pull_requests;
    m.messages_produced += node.msgs_produced;
    m.messages_on_wire += node.msgs_wire;
    m.messages_combined += node.msgs_combined;
    m.messages_spilled += node.inbox_next.spilled;
    // A node classifies its own reads; its spill-write and other columns
    // stay zero and are filled from the disk-meter delta below.
    m.io += node.io;

    const DiskMeter disk_delta =
        node.storage->meter()->DeltaSince(node.disk_snapshot);
    // Spill writes are the only random writes in push/b-pull paths.
    m.io.msg_spill_write += disk_delta.bytes(IoClass::kRandWrite);
    const uint64_t classified =
        node.io.Total() + disk_delta.bytes(IoClass::kRandWrite);
    const uint64_t total = disk_delta.TotalBytes();
    m.io.other_bytes += total > classified ? total - classified : 0;

    const NetMeter net_delta =
        in.transport->meter(node.id)->DeltaSince(node.net_snapshot);
    m.net_bytes += net_delta.bytes_sent;
    m.net_frames += net_delta.frames_sent;

    AddNodeModeledTime(config, node.cpu_seconds, node.flushes, disk_delta,
                       net_delta, &m);

    const uint64_t extra =
        in.extra_memory_bytes ? (*in.extra_memory_bytes)[node_idx] : 0;
    m.memory_highwater_bytes += ModeledMemoryBytes(node, *in.partition, extra);

    m.spill_merge_buffer_bytes =
        std::max(m.spill_merge_buffer_bytes, node.spill_buffer_peak);
    m.spill_peak_resident =
        std::max(m.spill_peak_resident, node.spill_resident_peak);
    m.spill_combined += node.spill_combined;

    m.local_iters += node.local_iters;
    m.local_msg_bytes += node.local_msg_bytes;
    // barriers_saved = the deepest sub-iteration chain anywhere in the
    // cluster: the synchronous engine would have paid one global barrier
    // per level of that chain.
    m.barriers_saved = std::max(m.barriers_saved, node.local_depth);

    AddPrefetchStats(node.pipeline.get(), &m);

    uint64_t responding = 0;
    for (uint8_t r : node.responding_next) responding += r;
    m.responding_vertices += responding;
    m.active_vertices += node.updated_vertices;
    ++node_idx;
  }

  // Load imbalance: max-node share over the perfectly balanced share
  // (1.0 = even, num_nodes = everything on one node, 0 = nothing moved).
  // Modeled counters only, so both factors are thread-count invariant.
  const double num_nodes = static_cast<double>(nodes.size());
  m.msg_imbalance = m.messages_produced > 0
                        ? static_cast<double>(max_node_msgs) * num_nodes /
                              static_cast<double>(m.messages_produced)
                        : 0.0;
  m.edge_imbalance = m.edges_scanned > 0
                         ? static_cast<double>(max_node_edges) * num_nodes /
                               static_cast<double>(m.edges_scanned)
                         : 0.0;

  const TransportFaultCounters faults =
      in.transport->fault_counters().DeltaSince(in.fault_snapshot);
  m.net_retries = faults.retries;
  m.net_timeouts = faults.timeouts;
  m.net_reconnects = faults.reconnects;
  return m;
}

void PromoteBlockState(std::vector<NodeState>& nodes, uint64_t* responding_total,
                       uint64_t* inflight_messages) {
  *responding_total = 0;
  *inflight_messages = 0;
  for (auto& node : nodes) {
    node.responding.swap(node.responding_next);
    node.vblock_res.swap(node.vblock_res_next);
    node.inbox_cur.Swap(node.inbox_next);
    for (uint8_t r : node.responding) *responding_total += r;
    *inflight_messages += node.inbox_cur.total;
  }
}

}  // namespace hybridgraph
