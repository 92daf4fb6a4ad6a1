#include "io/message_spill.h"

#include <algorithm>
#include <cstring>

#include "util/failpoint.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hybridgraph {

namespace {

constexpr size_t kRunHeaderBytes = 8;  // fixed64 entry count

}  // namespace

MessageSpill::MessageSpill(StorageService* storage, std::string key_prefix,
                           size_t payload_size)
    : storage_(storage),
      key_prefix_(std::move(key_prefix)),
      payload_size_(payload_size) {}

std::string MessageSpill::RunKey(size_t i) const {
  return StringFormat("%s/run-%06zu", key_prefix_.c_str(), i);
}

Status MessageSpill::SpillRun(const MessageArena& run) {
  if (run.empty()) return Status::OK();
  HG_FAIL_POINT("spill.flush");
  HG_DCHECK(run.msg_size() == payload_size_)
      << "payload size mismatch: " << run.msg_size() << " vs " << payload_size_;
  // Packed (dst, position) keys: one integer sort yields exactly the order a
  // stable sort by destination would.
  HG_DCHECK(run.size() <= UINT32_MAX) << "run positions must fit 32 bits";
  keys_.resize(run.size());
  for (size_t i = 0; i < run.size(); ++i) {
    keys_[i] = (static_cast<uint64_t>(run.dst(i)) << 32) | i;
  }
  std::sort(keys_.begin(), keys_.end());

  const size_t record_size = 4 + payload_size_;
  blob_.Clear();
  blob_.bytes().resize(kRunHeaderBytes + run.size() * record_size);
  uint8_t* const body = blob_.data() + kRunHeaderBytes;
  uint64_t written = 0;
  uint64_t combined = 0;
  for (const uint64_t key : keys_) {
    const uint32_t dst = static_cast<uint32_t>(key >> 32);
    const uint8_t* payload = run.payload(static_cast<uint32_t>(key));
    if (combiner_ != nullptr && written > 0) {
      uint8_t* last = body + (written - 1) * record_size;
      if (LoadFixed32(last) == dst) {
        // Fold equal destinations into the first occurrence, in spill order.
        combiner_(last + 4, payload);
        ++combined;
        continue;
      }
    }
    uint8_t* rec = body + written * record_size;
    StoreFixed32(rec, dst);
    std::memcpy(rec + 4, payload, payload_size_);
    ++written;
  }
  blob_.bytes().resize(kRunHeaderBytes + written * record_size);
  // Header: fixed64 entry count, little-endian.
  StoreFixed32(blob_.data(), static_cast<uint32_t>(written));
  StoreFixed32(blob_.data() + 4, static_cast<uint32_t>(written >> 32));
  // Write-then-register: the run only becomes visible (num_runs_) after the
  // blob is durably written. On any failure in between, delete the key so a
  // half-written run is never leaked (Clear() would not know about it).
  const std::string key = RunKey(num_runs_);
  Status st = storage_->Write(key, blob_.AsSlice(), IoClass::kRandWrite);
  // Random write: destination-vertex order has no locality on disk.
  if (st.ok()) st = storage_->Sync(key);
  if (!st.ok()) {
    (void)storage_->Delete(key);  // best-effort; Clear() sweeps the prefix too
    return st;
  }
  ++num_runs_;
  num_messages_ += written;
  bytes_written_ += blob_.size();
  combined_at_spill_ += combined;
  return Status::OK();
}

Status MessageSpill::SpillRun(std::vector<SpillEntry> entries) {
  MessageArena run(payload_size_);
  for (const SpillEntry& e : entries) {
    HG_DCHECK(e.payload.size() == payload_size_)
        << "payload size mismatch: " << e.payload.size() << " vs "
        << payload_size_;
    run.Append(e.dst, e.payload.data());
  }
  return SpillRun(run);
}

// ------------------------------------------------------------ MergeIterator

MessageSpill::MergeIterator::MergeIterator(StorageService* storage,
                                           const MessageSpill* spill,
                                           uint64_t buffer_bytes_per_run,
                                           ReadPipeline* pipeline)
    : storage_(storage),
      pipeline_(pipeline),
      payload_size_(spill->payload_size_),
      record_size_(4 + spill->payload_size_),
      combiner_(spill->combiner_) {
  // At least one whole record per run, and chunks aligned to record size so
  // a refill never splits a record across reads.
  const uint64_t per_chunk =
      std::max<uint64_t>(1, buffer_bytes_per_run / record_size_);
  chunk_bytes_ = per_chunk * record_size_;
  runs_.resize(spill->num_runs_);
  for (size_t i = 0; i < runs_.size(); ++i) {
    runs_[i].key = spill->RunKey(i);
  }
  buffer_bytes_ = static_cast<uint64_t>(runs_.size()) * chunk_bytes_;
}

Status MessageSpill::MergeIterator::Open() {
  for (size_t i = 0; i < runs_.size(); ++i) {
    RunCursor& rc = runs_[i];
    rc.file_size = storage_->SizeOf(rc.key);
    if (rc.file_size < kRunHeaderBytes) {
      return Status::Corruption(StringFormat(
          "spill run %s truncated: %llu bytes, header needs %zu", rc.key.c_str(),
          static_cast<unsigned long long>(rc.file_size), kRunHeaderBytes));
    }
    HG_ASSIGN_OR_RETURN(
        ReadResult header,
        storage_->Read(rc.key, {.length = kRunHeaderBytes,
                                .allow_short = true,
                                .io_class = IoClass::kSeqRead}));
    if (header.data.size() != kRunHeaderBytes) {
      return Status::Corruption("spill run header short read: " + rc.key);
    }
    Decoder dec{Slice(header.data.data(), header.data.size())};
    HG_RETURN_IF_ERROR(dec.GetFixed64(&rc.disk_entries));
    // Shape check BEFORE decoding anything: the blob must hold exactly
    // entry_count records. A bit-flipped count or a truncated blob fails
    // here instead of reading out of bounds during the merge.
    const uint64_t body = rc.file_size - kRunHeaderBytes;
    if (rc.disk_entries > body / record_size_ ||
        rc.disk_entries * record_size_ != body) {
      return Status::Corruption(StringFormat(
          "spill run %s corrupt: %llu entries × %zu bytes != %llu body bytes",
          rc.key.c_str(), static_cast<unsigned long long>(rc.disk_entries),
          record_size_, static_cast<unsigned long long>(body)));
    }
    rc.file_pos = kRunHeaderBytes;
    if (rc.disk_entries > 0) {
      HG_RETURN_IF_ERROR(Refill(&rc));
      heap_.push_back((static_cast<uint64_t>(rc.head_dst) << 32) | i);
    }
  }
  // An ascending array is a valid binary min-heap.
  std::sort(heap_.begin(), heap_.end());
  return PrimeNext();
}

Status MessageSpill::MergeIterator::Refill(RunCursor* rc) {
  HG_FAIL_POINT("spill.merge");
  const uint64_t want =
      std::min<uint64_t>(chunk_bytes_, rc->disk_entries * record_size_);
  const ReadOptions opts{.offset = rc->file_pos,
                         .length = want,
                         .allow_short = true,
                         .io_class = IoClass::kSeqRead};
  auto read =
      pipeline_ ? pipeline_->Fetch(rc->key, opts) : storage_->Read(rc->key, opts);
  if (!read.ok()) return read.status();
  rc->buf = std::move(read->data);
  if (rc->buf.size() != want) {
    return Status::Corruption("spill run shrank mid-merge: " + rc->key);
  }
  rc->file_pos += want;
  const uint64_t loaded = want / record_size_;
  rc->disk_entries -= loaded;
  rc->buf_pos = 0;
  rc->head_dst = LoadFixed32(rc->buf.data());
  rc->has_head = true;
  resident_entries_ += loaded;
  peak_resident_entries_ = std::max(peak_resident_entries_, resident_entries_ + 1);
  ScheduleNextChunk(*rc);
  return Status::OK();
}

void MessageSpill::MergeIterator::ScheduleNextChunk(const RunCursor& rc) {
  if (pipeline_ == nullptr || rc.disk_entries == 0) return;
  // Exactly the shape the next Refill will request, so the staged entry
  // matches on (key, offset, length).
  const uint64_t want =
      std::min<uint64_t>(chunk_bytes_, rc.disk_entries * record_size_);
  pipeline_->Schedule(rc.key, {.offset = rc.file_pos,
                               .length = want,
                               .allow_short = true,
                               .io_class = IoClass::kSeqRead});
}

void MessageSpill::MergeIterator::SiftDownTop() {
  const size_t n = heap_.size();
  const uint64_t key = heap_[0];
  size_t i = 0;
  while (true) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
    if (heap_[child] >= key) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = key;
}

Status MessageSpill::MergeIterator::ConsumeTop() {
  const size_t ri = static_cast<uint32_t>(heap_[0]);
  RunCursor& rc = runs_[ri];
  rc.buf_pos += record_size_;
  ++entries_read_;
  --resident_entries_;
  if (rc.buf_pos == rc.buf.size()) {
    if (rc.disk_entries == 0) {
      rc.has_head = false;
      rc.buf.clear();
      rc.buf.shrink_to_fit();
      heap_[0] = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) SiftDownTop();
      return Status::OK();
    }
    HG_RETURN_IF_ERROR(Refill(&rc));
  } else {
    rc.head_dst = LoadFixed32(rc.buf.data() + rc.buf_pos);
  }
  heap_[0] = (static_cast<uint64_t>(rc.head_dst) << 32) | ri;
  SiftDownTop();
  return Status::OK();
}

Status MessageSpill::MergeIterator::PrimeNext() {
  if (heap_.empty()) {
    valid_ = false;
    return Status::OK();
  }
  const RunCursor& top = runs_[static_cast<uint32_t>(heap_[0])];
  const uint8_t* rec = top.buf.data() + top.buf_pos;
  current_.dst = static_cast<uint32_t>(heap_[0] >> 32);
  current_.payload.assign(rec + 4, rec + record_size_);
  HG_RETURN_IF_ERROR(ConsumeTop());
  if (combiner_ != nullptr) {
    // Fold every remaining entry for this destination into the current one.
    // The heap always surfaces the minimal (dst, run) key, so the fold
    // order — run by run, spill order within a run — is deterministic.
    while (!heap_.empty() &&
           static_cast<uint32_t>(heap_[0] >> 32) == current_.dst) {
      const RunCursor& rc = runs_[static_cast<uint32_t>(heap_[0])];
      combiner_(current_.payload.data(), rc.buf.data() + rc.buf_pos + 4);
      ++merge_combined_;
      HG_RETURN_IF_ERROR(ConsumeTop());
    }
  }
  ++entries_emitted_;
  valid_ = true;
  peak_resident_entries_ = std::max(peak_resident_entries_, resident_entries_ + 1);
  return Status::OK();
}

Status MessageSpill::MergeIterator::Next() {
  if (!valid_) return Status::FailedPrecondition("merge iterator exhausted");
  return PrimeNext();
}

Result<std::unique_ptr<MessageSpill::MergeIterator>>
MessageSpill::NewMergeIterator(uint64_t buffer_bytes_per_run,
                               ReadPipeline* pipeline) {
  std::unique_ptr<MergeIterator> it(
      new MergeIterator(storage_, this, buffer_bytes_per_run, pipeline));
  HG_RETURN_IF_ERROR(it->Open());
  return it;
}

void MessageSpill::WarmupMerge(uint64_t buffer_bytes_per_run,
                               ReadPipeline* pipeline) const {
  if (pipeline == nullptr || !pipeline->enabled() || num_runs_ == 0) return;
  const size_t record_size = 4 + payload_size_;
  const uint64_t per_chunk =
      std::max<uint64_t>(1, buffer_bytes_per_run / record_size);
  const uint64_t chunk_bytes = per_chunk * record_size;
  for (size_t i = 0; i < num_runs_; ++i) {
    const std::string key = RunKey(i);
    const uint64_t size = storage_->SizeOf(key);
    if (size <= kRunHeaderBytes) continue;
    // For a well-formed run, body bytes == disk_entries × record_size, so
    // this equals the first Refill's `want` and the staged entry matches on
    // (key, offset, length). A malformed run just never gets claimed.
    const uint64_t want =
        std::min<uint64_t>(chunk_bytes, size - kRunHeaderBytes);
    pipeline->Schedule(key, {.offset = kRunHeaderBytes,
                             .length = want,
                             .allow_short = true,
                             .io_class = IoClass::kSeqRead});
  }
}

Status MessageSpill::MergeReadAll(std::vector<SpillEntry>* out) {
  if (num_runs_ == 0) return Status::OK();
  HG_ASSIGN_OR_RETURN(auto it, NewMergeIterator(kDefaultMergeBufferBytes));
  out->reserve(out->size() + num_messages_);
  while (it->Valid()) {
    out->push_back(it->entry());
    HG_RETURN_IF_ERROR(it->Next());
  }
  return Status::OK();
}

Status MessageSpill::Clear() {
  // Prefix sweep rather than 0..num_runs_: also collects any orphan blob a
  // crash left between write and registration (e.g. after recovery restores
  // into storage that still holds a dead incarnation's runs).
  for (const auto& key : storage_->ListKeys(key_prefix_ + "/")) {
    HG_RETURN_IF_ERROR(storage_->Delete(key));
  }
  num_runs_ = 0;
  num_messages_ = 0;
  bytes_written_ = 0;
  combined_at_spill_ = 0;
  return Status::OK();
}

}  // namespace hybridgraph
