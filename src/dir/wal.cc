#include "src/dir/wal.h"

#include <algorithm>

#include "src/common/logging.h"

namespace slice {

WriteAheadLog::WriteAheadLog(Host& host, EventQueue& queue, Endpoint backing_node,
                             FileHandle backing_object, WalParams params,
                             const obs::Sinks& sinks)
    : queue_(queue), client_(host, queue, backing_node, {}, sinks.TracerOnly()),
      object_(backing_object), params_(params) {}

size_t WriteAheadLog::BeginRecord() {
  constexpr size_t kHeadroom = 512;  // more than a directory or map record
  if (buffer_.capacity() - buffer_.size() < kHeadroom) {
    buffer_.reserve(std::max<size_t>(2 * buffer_.capacity(), 8 * kHeadroom));
  }
  const size_t at = buffer_.size();
  AppendU32(buffer_, 0);
  return at;
}

void WriteAheadLog::EndRecord(size_t at) {
  PutU32(buffer_.data() + at, static_cast<uint32_t>(buffer_.size() - at - 4));
  ++records_;
  ArmFlushTimer();
}

void WriteAheadLog::ArmFlushTimer() {
  if (timer_armed_) {
    return;
  }
  timer_armed_ = true;
  queue_.ScheduleAfter(params_.flush_interval, [this]() {
    timer_armed_ = false;
    Flush();
  });
}

void WriteAheadLog::Flush() {
  if (buffer_.empty()) {
    return;
  }
  const uint64_t offset = log_offset_;
  log_offset_ += buffer_.size();
  ++flushes_;
  // Write encodes the batch into its call before returning, so the buffer
  // is free again at once and keeps its capacity for the next batch.
  client_.Write(object_, offset, buffer_, StableHow::kFileSync,
                [](Status st, const WriteRes& res) {
                  if (!st.ok() || res.status != Nfsstat3::kOk) {
                    SLICE_WLOG << "wal: flush failed: " << st.ToString();
                  }
                });
  buffer_.clear();
}

void WriteAheadLog::DiscardBuffered() { buffer_.clear(); }

void WriteAheadLog::Replay(std::function<void(ByteSpan)> on_record,
                           std::function<void(Status)> on_done) {
  ReplayChunk(0, Bytes{}, std::move(on_record), std::move(on_done));
}

void WriteAheadLog::ReplayChunk(uint64_t offset, Bytes carry,
                                std::function<void(ByteSpan)> on_record,
                                std::function<void(Status)> on_done) {
  client_.Read(
      object_, offset, params_.replay_chunk,
      [this, offset, carry = std::move(carry), on_record = std::move(on_record),
       on_done = std::move(on_done)](Status st, const ReadResView& res) mutable {
        if (!st.ok()) {
          on_done(st);
          return;
        }
        if (res.status != Nfsstat3::kOk) {
          on_done(Status(StatusCode::kInternal, "wal: replay read failed"));
          return;
        }
        carry.insert(carry.end(), res.data.begin(), res.data.end());

        // Parse complete records out of `carry`.
        size_t pos = 0;
        while (pos + 4 <= carry.size()) {
          const uint32_t len = GetU32(carry.data() + pos);
          if (pos + 4 + len > carry.size()) {
            break;
          }
          on_record(ByteSpan(carry.data() + pos + 4, len));
          pos += 4 + len;
        }
        carry.erase(carry.begin(), carry.begin() + static_cast<ptrdiff_t>(pos));

        if (res.eof || res.data.empty()) {
          // Everything stable has been replayed; continue appending after it.
          log_offset_ = offset + res.data.size();
          on_done(OkStatus());
          return;
        }
        ReplayChunk(offset + res.data.size(), std::move(carry), std::move(on_record),
                    std::move(on_done));
      });
}

}  // namespace slice
