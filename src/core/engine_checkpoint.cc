#include "core/engine_checkpoint.h"

#include <algorithm>
#include <utility>

#include "io/message_spill.h"
#include "util/codec.h"
#include "util/failpoint.h"

namespace hybridgraph {

namespace ckpt_detail {
constexpr uint32_t kMagic = 0x48474350;  // "HGCP"
// v2 appends an FNV-1a checksum trailer over the whole image, so a torn
// write (crash mid-checkpoint) is detected at restore instead of decoding
// garbage. v1 images (no trailer) are no longer accepted.
constexpr uint32_t kVersion = 2;
constexpr size_t kTrailerSize = 8;
}  // namespace ckpt_detail

Status WriteEngineCheckpoint(std::vector<NodeState>& nodes,
                             const RangePartition& partition,
                             const CheckpointState& state, size_t msg_size,
                             Buffer* out) {
  const size_t image_start = out->size();
  Encoder enc(out);
  enc.PutFixed32(ckpt_detail::kMagic);
  enc.PutFixed32(ckpt_detail::kVersion);
  enc.PutVarint64(static_cast<uint64_t>(*state.superstep));
  enc.PutU8(static_cast<uint8_t>(*state.mode));
  enc.PutU8(static_cast<uint8_t>(*state.prev_produce));
  enc.PutU8(*state.converged ? 1 : 0);
  enc.PutSignedVarint64(state.hybrid->last_switch_superstep);
  enc.PutDouble(state.hybrid->last_rco);
  enc.PutVarint64(state.hybrid->prev_responding);
  enc.PutDouble(*state.prev_aggregate);

  std::vector<uint8_t> values;
  for (auto& node : nodes) {
    // Per-node fail-point: a crash here leaves a partial image with no
    // checksum trailer — exactly the torn write RestoreCheckpoint must
    // reject (see recovery_test).
    HG_FAIL_POINT("ckpt.write");
    // Vertex values, per Vblock.
    for (uint32_t vb = partition.FirstVblockOf(node.id);
         vb < partition.LastVblockOf(node.id); ++vb) {
      HG_RETURN_IF_ERROR(node.vstore->ReadBlock(vb, &values, IoClass::kSeqRead));
      enc.PutLengthPrefixed(Slice(values.data(), values.size()));
    }
    // Flags.
    enc.PutLengthPrefixed(Slice(node.active.data(), node.active.size()));
    enc.PutLengthPrefixed(
        Slice(node.responding.data(), node.responding.size()));
    enc.PutLengthPrefixed(
        Slice(node.vblock_res.data(), node.vblock_res.size()));
    // Undelivered messages: the inbox (memory part + spilled runs), plus
    // pushM's online accumulators, which hold the folded messages for cached
    // vertices across the barrier. Each set accumulator slot is written as
    // one ordinary inbox record (its combined payload), so the restored run
    // delivers the same combined message through the inbox.
    std::vector<SpillEntry> spilled;
    if (node.inbox_cur.spill()->num_runs() > 0) {
      HG_RETURN_IF_ERROR(node.inbox_cur.spill()->MergeReadAll(&spilled));
    }
    std::vector<uint32_t> moc_slots;
    if (!node.moc_acc.empty()) {
      for (uint32_t li = 0; li < node.moc_has.size(); ++li) {
        if (node.moc_has[li]) moc_slots.push_back(li);
      }
    }
    enc.PutVarint64(node.inbox_cur.count() + spilled.size() +
                    moc_slots.size());
    for (size_t i = 0; i < node.inbox_cur.count(); ++i) {
      enc.PutFixed32(node.inbox_cur.dst(i));
      enc.PutRaw(node.inbox_cur.payload(i), msg_size);
    }
    for (const auto& e : spilled) {
      enc.PutFixed32(e.dst);
      enc.PutRaw(e.payload.data(), msg_size);
    }
    for (uint32_t li : moc_slots) {
      enc.PutFixed32(node.range.begin + li);
      enc.PutRaw(node.moc_acc.data() + static_cast<size_t>(li) * msg_size,
                 msg_size);
    }
  }
  enc.PutFixed64(
      Fnv1a64(out->data() + image_start, out->size() - image_start));
  return Status::OK();
}

Status RestoreEngineCheckpoint(std::vector<NodeState>& nodes,
                               const RangePartition& partition,
                               const JobConfig& config,
                               const CheckpointState& state, size_t msg_size,
                               Slice data, int* supersteps_run) {
  HG_FAIL_POINT("ckpt.restore");
  if (data.size() < 8 + ckpt_detail::kTrailerSize) {
    return Status::Corruption("checkpoint image too small");
  }
  const size_t body_size = data.size() - ckpt_detail::kTrailerSize;
  {
    Decoder trailer(
        Slice(data.data() + body_size, ckpt_detail::kTrailerSize));
    uint64_t stored = 0;
    HG_RETURN_IF_ERROR(trailer.GetFixed64(&stored));
    if (stored != Fnv1a64(data.data(), body_size)) {
      return Status::Corruption(
          "checkpoint checksum mismatch (torn or corrupted image)");
    }
  }
  data = Slice(data.data(), body_size);
  Decoder dec(data);
  uint32_t magic = 0, version = 0;
  HG_RETURN_IF_ERROR(dec.GetFixed32(&magic));
  HG_RETURN_IF_ERROR(dec.GetFixed32(&version));
  if (magic != ckpt_detail::kMagic) return Status::Corruption("bad checkpoint magic");
  if (version != ckpt_detail::kVersion) {
    return Status::InvalidArgument("unsupported checkpoint version");
  }
  uint64_t superstep = 0, prev_resp = 0;
  uint8_t mode = 0, prev_produce = 0, converged = 0;
  int64_t last_switch = 0;
  HG_RETURN_IF_ERROR(dec.GetVarint64(&superstep));
  HG_RETURN_IF_ERROR(dec.GetU8(&mode));
  HG_RETURN_IF_ERROR(dec.GetU8(&prev_produce));
  HG_RETURN_IF_ERROR(dec.GetU8(&converged));
  HG_RETURN_IF_ERROR(dec.GetSignedVarint64(&last_switch));
  HG_RETURN_IF_ERROR(dec.GetDouble(&state.hybrid->last_rco));
  HG_RETURN_IF_ERROR(dec.GetVarint64(&prev_resp));
  HG_RETURN_IF_ERROR(dec.GetDouble(state.prev_aggregate));
  *state.superstep = static_cast<int>(superstep);
  *state.mode = static_cast<EngineMode>(mode);
  *state.prev_produce = static_cast<EngineMode>(prev_produce);
  *state.converged = converged != 0;
  state.hybrid->last_switch_superstep = static_cast<int>(last_switch);
  state.hybrid->prev_responding = prev_resp;

  auto restore_flags = [&](std::vector<uint8_t>* flags) -> Status {
    Slice raw;
    HG_RETURN_IF_ERROR(dec.GetLengthPrefixed(&raw));
    if (raw.size() != flags->size()) {
      return Status::Corruption("checkpoint flag size mismatch");
    }
    std::copy(raw.data(), raw.data() + raw.size(), flags->begin());
    return Status::OK();
  };

  for (auto& node : nodes) {
    for (uint32_t vb = partition.FirstVblockOf(node.id);
         vb < partition.LastVblockOf(node.id); ++vb) {
      Slice raw;
      HG_RETURN_IF_ERROR(dec.GetLengthPrefixed(&raw));
      std::vector<uint8_t> values(raw.data(), raw.data() + raw.size());
      HG_RETURN_IF_ERROR(
          node.vstore->WriteBlock(vb, values, IoClass::kSeqWrite));
    }
    HG_RETURN_IF_ERROR(restore_flags(&node.active));
    HG_RETURN_IF_ERROR(restore_flags(&node.responding));
    HG_RETURN_IF_ERROR(restore_flags(&node.vblock_res));

    node.inbox_cur.ClearMem();
    HG_RETURN_IF_ERROR(node.inbox_cur.spill()->Clear());
    // Also sweep the next-superstep spill: recovery may restore into storage
    // that still holds a dead incarnation's runs (including unregistered
    // orphans a mid-spill crash left behind); Clear() deletes by prefix.
    node.inbox_next.ClearMem();
    HG_RETURN_IF_ERROR(node.inbox_next.spill()->Clear());
    // pushM accumulators come back as inbox records (see the writer).
    std::fill(node.moc_has.begin(), node.moc_has.end(), 0);
    uint64_t count = 0;
    HG_RETURN_IF_ERROR(dec.GetVarint64(&count));
    const bool unlimited =
        config.msg_buffer_per_node == UINT64_MAX || config.memory_resident;
    std::vector<SpillEntry> overflow;
    for (uint64_t i = 0; i < count; ++i) {
      uint32_t dst = 0;
      Slice payload;
      HG_RETURN_IF_ERROR(dec.GetFixed32(&dst));
      HG_RETURN_IF_ERROR(dec.GetRaw(msg_size, &payload));
      ++node.inbox_cur.total;
      if (unlimited ||
          node.inbox_cur.count() < config.msg_buffer_per_node) {
        node.inbox_cur.Append(dst, payload.data());
      } else {
        overflow.push_back(SpillEntry{
            dst, std::vector<uint8_t>(payload.data(),
                                      payload.data() + payload.size())});
        ++node.inbox_cur.spilled;
      }
    }
    if (!overflow.empty()) {
      HG_RETURN_IF_ERROR(node.inbox_cur.spill()->SpillRun(std::move(overflow)));
    }
  }
  if (!dec.AtEnd()) return Status::Corruption("trailing checkpoint bytes");
  *supersteps_run = *state.superstep;
  return Status::OK();
}

}  // namespace hybridgraph
