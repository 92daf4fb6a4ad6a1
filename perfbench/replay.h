// Per-layer replays: each one times the benchmark's own calls into one
// module's public functions, on the workload's own graph, partition, message
// size, B_i and frame size, so each rate describes the data the end-to-end
// run moves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "graph/edge_list.h"
#include "graph/partition.h"
#include "spans.h"

namespace perfbench {

struct ReplayInput {
  const hybridgraph::EdgeListGraph* graph = nullptr;
  /// The partition the workload's engine builds (node ranges + Eq. 5/6
  /// Vblocks).
  hybridgraph::RangePartition partition;
  size_t msg_size = 0;
  /// Raw in-place combiner of the workload's program.
  void (*combiner)(uint8_t* acc, const uint8_t* other) = nullptr;
  uint64_t buffer_per_node = 0;        ///< B_i (messages)
  uint64_t sending_threshold_bytes = 0;
  double mean_frame_bytes = 0;         ///< net bytes / frames of the job
};

/// Runs every replay and stores the results under `<module>.<metric>` names
/// in `out`. Returns false (with `why`) when a replayed call fails or a
/// round trip does not reproduce its input.
bool RunReplays(const ReplayInput& in, SpanRecorder* spans,
                std::map<std::string, double>* out, std::string* why);

}  // namespace perfbench
