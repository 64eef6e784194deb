#include "src/workload/seqio.h"

#include <algorithm>

namespace slice {

SeqIoProcess::SeqIoProcess(Host& host, EventQueue& queue, Endpoint server, FileHandle file,
                           SeqIoParams params, std::function<void()> on_done)
    : client_(host, queue, server), queue_(queue), file_(file), params_(params),
      on_done_(std::move(on_done)) {}

void SeqIoProcess::Start() {
  started_at_ = queue_.now();
  Pump();
}

void SeqIoProcess::Pump() {
  while (outstanding_ < params_.window && next_offset_ < params_.file_bytes) {
    IssueNext();
  }
  MaybeFinish();
}

void SeqIoProcess::IssueNext() {
  const uint64_t offset = next_offset_;
  const uint32_t n = BlockAt(offset);
  next_offset_ += n;
  ++outstanding_;

  // Client-side per-byte stack cost gates how fast requests leave the host.
  const SimTime cpu_done = client_cpu_.Acquire(
      queue_.now(),
      static_cast<SimTime>(static_cast<double>(n) * params_.client_ns_per_byte));

  // {this, offset} is 16 trivially-copyable bytes, so the event's closure
  // sits in std::function's inline buffer.
  queue_.ScheduleAt(cpu_done, [this, offset]() { SendBlock(offset); });
}

uint32_t SeqIoProcess::BlockAt(uint64_t offset) const {
  return static_cast<uint32_t>(std::min<uint64_t>(params_.block_size, params_.file_bytes - offset));
}

void SeqIoProcess::SendBlock(uint64_t offset) {
  const uint32_t n = BlockAt(offset);
  const SimTime issued = queue_.now();
  if (params_.write) {
    // Write encodes the data before it returns, so one buffer serves
    // every block of the stream.
    write_buf_.assign(n, static_cast<uint8_t>(offset >> 15));
    client_.Write(file_, offset, write_buf_, params_.stable,
                  [this, n, issued](Status st, const WriteRes& res) {
                    latency_.Record(queue_.now() - issued);
                    OnComplete(n, st.ok() && res.status == Nfsstat3::kOk);
                  });
    // Periodic commits let the servers flush while the stream continues
    // (the kernel syncer's behavior); the commit rides outside the window.
    if (params_.commit_every > 0 &&
        offset / params_.commit_every != (offset + n) / params_.commit_every) {
      client_.Commit(file_, 0, 0, [](Status, const CommitRes&) {});
    }
  } else {
    client_.Read(file_, offset, n, [this, n, issued](Status st, const ReadResView& res) {
      latency_.Record(queue_.now() - issued);
      OnComplete(n, st.ok() && res.status == Nfsstat3::kOk && res.count == n);
    });
  }
}

void SeqIoProcess::OnComplete(uint64_t bytes, bool ok) {
  --outstanding_;
  completed_bytes_ += bytes;
  if (!ok) {
    ++errors_;
  }
  Pump();
}

void SeqIoProcess::MaybeFinish() {
  if (done_ || committing_ || outstanding_ > 0 || next_offset_ < params_.file_bytes) {
    return;
  }
  if (params_.write && params_.stable == StableHow::kUnstable) {
    committing_ = true;
    client_.Commit(file_, 0, 0, [this](Status, const CommitRes&) {
      finished_at_ = queue_.now();
      done_ = true;
      if (on_done_) {
        on_done_();
      }
    });
    return;
  }
  finished_at_ = queue_.now();
  done_ = true;
  if (on_done_) {
    on_done_();
  }
}

}  // namespace slice
