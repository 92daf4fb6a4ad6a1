// Wire encoding of message batches.
//
// push batch:       [count][ (dst_vertex fixed32, payload raw) x count ]
// concatenated:     [groups][ (dst_vertex fixed32, n varint, payload x n) ... ]
//
// Concatenation is the paper's first communication optimization for
// pull-based transfers: message values destined for the same vertex share a
// single destination id on the wire. Combined batches degenerate to
// concatenated groups of size 1 (after the combiner collapsed the values).
//
// The engine encodes from flat storage (MessageArena, GroupedBatchBuilder)
// and decodes in place (FlatBatchView, GroupedBatchCodec::ForEachGroup), so
// no message becomes a heap object of its own on either side. The
// vector-based Encode/Decode entry points are adapters over the same
// layouts and bounds checks, kept for tests, checkpoints and benchmarks.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/buffer.h"
#include "util/codec.h"
#include "util/message_arena.h"
#include "util/status.h"

namespace hybridgraph {

/// \brief A flat batch: one payload per destination (push wire format).
struct FlatBatchCodec {
  /// Appends `msgs` as one batch, in arena order.
  static void Encode(const MessageArena& msgs, Buffer* out);

  /// Appends the batch; every payload must be exactly `payload_size` bytes.
  static void Encode(const std::vector<std::pair<uint32_t, std::vector<uint8_t>>>& msgs,
                     size_t payload_size, Buffer* out);

  /// Decodes into (dst, payload) pairs appended to *out.
  static Status Decode(Slice data, size_t payload_size,
                       std::vector<std::pair<uint32_t, std::vector<uint8_t>>>* out);
};

/// \brief Zero-copy view of one encoded flat batch: records are read in
/// place from the viewed bytes, which must outlive the view.
class FlatBatchView {
 public:
  /// Parses the count header. A count whose records cannot fit in the
  /// remaining input is Corruption, so every record the view exposes lies
  /// inside `data`; trailing bytes after the last record are ignored.
  static Status Parse(Slice data, size_t payload_size, FlatBatchView* out);

  size_t size() const { return count_; }
  uint32_t dst(size_t i) const { return LoadFixed32(records_ + i * record_size_); }
  const uint8_t* payload(size_t i) const {
    return records_ + i * record_size_ + 4;
  }

 private:
  const uint8_t* records_ = nullptr;
  size_t record_size_ = 4;
  size_t count_ = 0;
};

/// \brief A grouped batch: per destination vertex, several payloads share one
/// id (pull/b-pull wire format after concatenation or combining).
struct GroupedBatchCodec {
  struct Group {
    uint32_t dst;
    std::vector<std::vector<uint8_t>> payloads;
  };

  static void Encode(const std::vector<Group>& groups, size_t payload_size,
                     Buffer* out);
  static Status Decode(Slice data, size_t payload_size, std::vector<Group>* out);

  /// Serialized size without materializing the buffer.
  static uint64_t EncodedSize(const std::vector<Group>& groups, size_t payload_size);

  /// Decodes in place: calls fn(dst, n, payloads) once per group in wire
  /// order, `payloads` pointing at the group's n contiguous payloads inside
  /// `data`. Applies Decode's bounds checks before each group is exposed and
  /// stops at the first non-OK status fn returns.
  template <typename Fn>
  static Status ForEachGroup(Slice data, size_t payload_size, Fn&& fn) {
    Decoder dec(data);
    uint64_t num_groups = 0;
    HG_RETURN_IF_ERROR(dec.GetVarint64(&num_groups));
    // A group is at least 5 bytes (dst + count varint); clamp so corrupt
    // counts error out instead of driving a caller's reserve().
    if (num_groups > dec.remaining() / 5) {
      return Status::Corruption("group count exceeds input size");
    }
    for (uint64_t i = 0; i < num_groups; ++i) {
      uint32_t dst = 0;
      uint64_t n = 0;
      HG_RETURN_IF_ERROR(dec.GetFixed32(&dst));
      HG_RETURN_IF_ERROR(dec.GetVarint64(&n));
      if (payload_size > 0 && n > dec.remaining() / payload_size) {
        return Status::Corruption("group payload count exceeds input size");
      }
      Slice payloads;
      HG_RETURN_IF_ERROR(dec.GetRaw(n * payload_size, &payloads));
      HG_RETURN_IF_ERROR(fn(dst, n, payloads.data()));
    }
    return Status::OK();
  }
};

/// \brief Flat builder of one grouped batch (the Pull-Respond sending
/// buffer BS, the v-pull gather partials). Groups open in first-arrival
/// order and keep their payloads in arrival order, all in one payload
/// arena; Encode is the one writer of the grouped wire layout.
class GroupedBatchBuilder {
 public:
  explicit GroupedBatchBuilder(size_t payload_size) : payloads_(payload_size) {}

  /// Opens a new (empty) group for `dst` and returns its index.
  uint32_t OpenGroup(uint32_t dst);
  /// Appends a payload to group `g`.
  void Add(uint32_t g, const uint8_t* payload);

  uint32_t group_size(uint32_t g) const { return group_count_[g]; }
  /// The first payload of group `g` (non-empty), writable so a combiner can
  /// fold into it in place.
  uint8_t* first_payload(uint32_t g) {
    return payloads_.payload(group_first_[g]);
  }

  /// Serialized size without materializing the buffer (used by flow
  /// control).
  uint64_t EncodedSize() const;
  void Encode(Buffer* out) const;

 private:
  std::vector<uint32_t> group_dst_;
  std::vector<uint32_t> group_count_;
  std::vector<uint32_t> group_first_;  ///< arena index of the first payload
  /// Every payload in arrival order; dst() holds the payload's group index.
  MessageArena payloads_;
};

}  // namespace hybridgraph
