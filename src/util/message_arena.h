// The flat message representation of the push-family message plane: a
// destination-id array plus one contiguous run of fixed-size payload bytes,
// both in append order. Sender staging, the receive-side inbox, the B_i
// overflow scratch and the GraphHP carry all hold their messages here, so a
// message costs msg_size + 4 bytes of amortised vector growth instead of a
// heap object of its own. Clear() keeps the capacity: a reused arena stops
// allocating once it has seen its largest batch.
#pragma once

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace hybridgraph {

class MessageArena {
 public:
  /// No default constructor: every arena states its payload size (and a
  /// braced `{}` argument never converts to an arena).
  explicit MessageArena(size_t msg_size) : msg_size_(msg_size) {}

  /// Re-sets the payload size; only valid while the arena is empty.
  void Init(size_t msg_size) { msg_size_ = msg_size; }

  size_t msg_size() const { return msg_size_; }
  size_t size() const { return dsts_.size(); }
  bool empty() const { return dsts_.empty(); }

  uint32_t dst(size_t i) const { return dsts_[i]; }
  const uint8_t* payload(size_t i) const {
    return payloads_.data() + i * msg_size_;
  }
  uint8_t* payload(size_t i) { return payloads_.data() + i * msg_size_; }

  void Append(uint32_t dst, const uint8_t* payload) {
    dsts_.push_back(dst);
    payloads_.insert(payloads_.end(), payload, payload + msg_size_);
  }

  /// Drops the messages, keeping both arrays' capacity.
  void Clear() {
    dsts_.clear();
    payloads_.clear();
  }

  void Swap(MessageArena& other) {
    std::swap(msg_size_, other.msg_size_);
    dsts_.swap(other.dsts_);
    payloads_.swap(other.payloads_);
  }

 private:
  size_t msg_size_ = 0;
  std::vector<uint32_t> dsts_;
  std::vector<uint8_t> payloads_;
};

}  // namespace hybridgraph
