#include "core/node_state.h"

#include <algorithm>

namespace hybridgraph {

void MergePullServeCounters(NodeState& node, uint32_t num_nodes) {
  for (uint32_t src = 0; src < num_nodes; ++src) {
    NodeState::PullServe& serve = node.pull_serve[src];
    node.io += serve.io;
    node.cpu_seconds += serve.cpu_seconds;
    node.msgs_produced += serve.msgs_produced;
    node.msgs_combined += serve.msgs_combined;
    node.msgs_wire += serve.msgs_wire;
    node.flushes += serve.flushes;
    node.edges_scanned += serve.edges;
    node.mem_highwater = std::max(node.mem_highwater, serve.bs_highwater);
    serve = NodeState::PullServe{};
  }
}

}  // namespace hybridgraph
