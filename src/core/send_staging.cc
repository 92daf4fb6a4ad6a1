#include "core/send_staging.h"

#include "net/message_codec.h"

namespace hybridgraph {

void SendStaging::Init(uint32_t num_dst_nodes, size_t msg_size,
                       CombineRawFn combiner) {
  combiner_ = combiner;
  dests_.resize(num_dst_nodes);
  for (Dest& d : dests_) d.msgs.Init(msg_size);
}

bool SendStaging::TryCombine(uint32_t dst, VertexId dst_vertex,
                             const uint8_t* payload) {
  Dest& d = dests_[dst];
  auto [it, inserted] = d.index.try_emplace(
      dst_vertex, static_cast<uint32_t>(d.msgs.size()));
  if (inserted) return false;
  combiner_(d.msgs.payload(it->second), payload);
  return true;
}

void SendStaging::EncodeBatch(uint32_t dst, Buffer* out) const {
  FlatBatchCodec::Encode(dests_[dst].msgs, out);
}

void SendStaging::Clear(uint32_t dst) {
  Dest& d = dests_[dst];
  d.msgs.Clear();
  if (!d.index.empty()) d.index.clear();
}

}  // namespace hybridgraph
