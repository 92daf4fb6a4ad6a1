// Sender-side staging for push production: per destination node, the
// unflushed (destination vertex, raw message payload) records in one flat
// MessageArena plus the sender combining index (pushM+com, Appendix E).
// Only messages that are still in the unflushed buffer can combine —
// flushing clears the index, which is exactly why small sending thresholds
// limit the gain.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/types.h"
#include "util/buffer.h"
#include "util/message_arena.h"

namespace hybridgraph {

class SendStaging {
 public:
  using CombineRawFn = void (*)(uint8_t* acc, const uint8_t* other);

  /// `combiner` may be null when the program is not combinable (TryCombine
  /// is never called in that case).
  void Init(uint32_t num_dst_nodes, size_t msg_size, CombineRawFn combiner);

  /// Unflushed records staged for `dst`.
  size_t count(uint32_t dst) const { return dests_[dst].msgs.size(); }

  void Append(uint32_t dst, VertexId dst_vertex, const uint8_t* payload) {
    dests_[dst].msgs.Append(dst_vertex, payload);
  }

  /// Sender combining: if an unflushed message for `dst_vertex` exists,
  /// combines `payload` into it and returns true. Otherwise registers the
  /// slot the next Append will occupy and returns false — callers must
  /// Append on a false return (mirroring the engine's try_emplace-then-
  /// emplace_back sequence exactly).
  bool TryCombine(uint32_t dst, VertexId dst_vertex, const uint8_t* payload);

  /// FlatBatch-encodes the staged records for `dst` into `out`, straight
  /// from the arena.
  void EncodeBatch(uint32_t dst, Buffer* out) const;

  /// Drops the staged records and the combining index for `dst` (the arena
  /// keeps its capacity for the next batch).
  void Clear(uint32_t dst);

 private:
  struct Dest {
    MessageArena msgs{0};
    /// dst vertex -> position in `msgs` (sender combining only).
    std::unordered_map<VertexId, uint32_t> index;
  };

  CombineRawFn combiner_ = nullptr;
  std::vector<Dest> dests_;
};

}  // namespace hybridgraph
