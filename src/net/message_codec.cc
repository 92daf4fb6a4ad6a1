#include "net/message_codec.h"

#include <cstring>

#include "util/logging.h"

namespace hybridgraph {

namespace {

/// Appends a flat batch's count header, grows `out` by `count` records and
/// returns the first record's address (the caller fills every record).
uint8_t* AppendRecords(uint64_t count, size_t payload_size, Buffer* out) {
  Encoder(out).PutVarint64(count);
  const size_t at = out->size();
  out->bytes().resize(at + count * (4 + payload_size));
  return out->data() + at;
}

}  // namespace

void FlatBatchCodec::Encode(const MessageArena& msgs, Buffer* out) {
  const size_t payload_size = msgs.msg_size();
  uint8_t* p = AppendRecords(msgs.size(), payload_size, out);
  for (size_t i = 0; i < msgs.size(); ++i, p += 4 + payload_size) {
    StoreFixed32(p, msgs.dst(i));
    std::memcpy(p + 4, msgs.payload(i), payload_size);
  }
}

void FlatBatchCodec::Encode(
    const std::vector<std::pair<uint32_t, std::vector<uint8_t>>>& msgs,
    size_t payload_size, Buffer* out) {
  uint8_t* p = AppendRecords(msgs.size(), payload_size, out);
  for (const auto& [dst, payload] : msgs) {
    HG_DCHECK(payload.size() == payload_size);
    StoreFixed32(p, dst);
    std::memcpy(p + 4, payload.data(), payload_size);
    p += 4 + payload_size;
  }
}

Status FlatBatchView::Parse(Slice data, size_t payload_size,
                            FlatBatchView* out) {
  Decoder dec(data);
  uint64_t count = 0;
  HG_RETURN_IF_ERROR(dec.GetVarint64(&count));
  // A record is at least 4 bytes (dst) + payload; a count that cannot fit in
  // the remaining input is corrupt — reject it up front rather than letting
  // an attacker-controlled varint drive a giant reserve() or an
  // out-of-bounds record read.
  if (count > dec.remaining() / (4 + payload_size)) {
    return Status::Corruption("batch count exceeds input size");
  }
  out->records_ = data.data() + dec.position();
  out->record_size_ = 4 + payload_size;
  out->count_ = count;
  return Status::OK();
}

Status FlatBatchCodec::Decode(
    Slice data, size_t payload_size,
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>>* out) {
  FlatBatchView view;
  HG_RETURN_IF_ERROR(FlatBatchView::Parse(data, payload_size, &view));
  out->reserve(out->size() + view.size());
  for (size_t i = 0; i < view.size(); ++i) {
    out->emplace_back(view.dst(i),
                      std::vector<uint8_t>(view.payload(i),
                                           view.payload(i) + payload_size));
  }
  return Status::OK();
}

void GroupedBatchCodec::Encode(const std::vector<Group>& groups,
                               size_t payload_size, Buffer* out) {
  GroupedBatchBuilder builder(payload_size);
  for (const auto& g : groups) {
    const uint32_t gi = builder.OpenGroup(g.dst);
    for (const auto& p : g.payloads) {
      HG_DCHECK(p.size() == payload_size);
      builder.Add(gi, p.data());
    }
  }
  builder.Encode(out);
}

Status GroupedBatchCodec::Decode(Slice data, size_t payload_size,
                                 std::vector<Group>* out) {
  return ForEachGroup(
      data, payload_size,
      [&](uint32_t dst, uint64_t n, const uint8_t* payloads) -> Status {
        Group g{dst, {}};
        g.payloads.reserve(n);
        for (uint64_t j = 0; j < n; ++j) {
          const uint8_t* p = payloads + j * payload_size;
          g.payloads.emplace_back(p, p + payload_size);
        }
        out->push_back(std::move(g));
        return Status::OK();
      });
}

uint64_t GroupedBatchCodec::EncodedSize(const std::vector<Group>& groups,
                                        size_t payload_size) {
  uint64_t size = VarintLength(groups.size());
  for (const auto& g : groups) {
    size += 4 + VarintLength(g.payloads.size()) + g.payloads.size() * payload_size;
  }
  return size;
}

// ------------------------------------------------------- GroupedBatchBuilder

uint32_t GroupedBatchBuilder::OpenGroup(uint32_t dst) {
  group_dst_.push_back(dst);
  group_count_.push_back(0);
  group_first_.push_back(0);
  return static_cast<uint32_t>(group_dst_.size() - 1);
}

void GroupedBatchBuilder::Add(uint32_t g, const uint8_t* payload) {
  if (group_count_[g]++ == 0) {
    group_first_[g] = static_cast<uint32_t>(payloads_.size());
  }
  payloads_.Append(g, payload);
}

uint64_t GroupedBatchBuilder::EncodedSize() const {
  uint64_t size = VarintLength(group_dst_.size());
  for (const uint32_t n : group_count_) {
    size += 4 + VarintLength(n) + static_cast<uint64_t>(n) * payloads_.msg_size();
  }
  return size;
}

void GroupedBatchBuilder::Encode(Buffer* out) const {
  const size_t payload_size = payloads_.msg_size();
  const size_t start = out->size();
  out->bytes().resize(start + EncodedSize());
  uint8_t* const base = out->data();
  // Headers in group order; `cursor[g]` is where group g's next payload
  // goes, so one pass in arrival order lays every group's payloads out in
  // arrival order (a counting-sort scatter).
  std::vector<size_t> cursor(group_dst_.size());
  size_t at = start + StoreVarint64(base + start, group_dst_.size());
  for (size_t g = 0; g < group_dst_.size(); ++g) {
    StoreFixed32(base + at, group_dst_[g]);
    at += 4;
    at += StoreVarint64(base + at, group_count_[g]);
    cursor[g] = at;
    at += static_cast<size_t>(group_count_[g]) * payload_size;
  }
  for (size_t i = 0; i < payloads_.size(); ++i) {
    size_t& c = cursor[payloads_.dst(i)];
    std::memcpy(base + c, payloads_.payload(i), payload_size);
    c += payload_size;
  }
}

}  // namespace hybridgraph
