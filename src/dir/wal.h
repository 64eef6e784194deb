// Write-ahead log for Slice file managers (paper §2.3): managers are
// "dataless" — every update is journaled to an object in the shared network
// storage array, so a surviving site can recover a failed manager's state
// from its backing objects plus its log.
//
// Records are length-framed XDR blobs, each encoded straight into a
// group-commit buffer that is reused from one flush to the next and that
// flushes to the backing storage node on a short timer (matching
// the prototype's asynchronous journaling; the paper notes ~0.5 MB/s of log
// traffic per directory server at saturation). A server's record is an op
// tag and a struct with a field list (src/xdr/xdr.h); its replay reads the
// tag, then decodes the same struct.
#ifndef SLICE_DIR_WAL_H_
#define SLICE_DIR_WAL_H_

#include <functional>
#include <type_traits>

#include "src/nfs/nfs_client.h"

namespace slice {

struct WalParams {
  SimTime flush_interval = FromMillis(50);
  uint32_t replay_chunk = 32768;
};

class WriteAheadLog {
 public:
  // `backing_node` + `backing_object` name the log object in the storage
  // array. The log issues its own RPC traffic from `host`. Of `sinks` it
  // keeps the tracer only: log appends issued while a traced request is in
  // scope join its trace.
  WriteAheadLog(Host& host, EventQueue& queue, Endpoint backing_node,
                FileHandle backing_object, WalParams params = {},
                const obs::Sinks& sinks = {});

  // Appends one record (durable after the next flush): `encode(enc)` writes
  // it straight into the log buffer, behind a length word filled in after.
  template <typename Encode>
    requires std::is_invocable_v<Encode&, XdrEncoder&>
  void Append(Encode&& encode) {
    const size_t at = BeginRecord();
    XdrEncoder enc(std::move(buffer_));
    encode(enc);
    buffer_ = enc.Take();
    EndRecord(at);
  }
  // Appends `record` behind its op tag: the tag's word, then the record's
  // field list. A replay reads the tag, then decodes the same struct.
  template <typename Op, XdrStruct Record>
    requires std::is_enum_v<Op>
  void Append(Op op, const Record& record) {
    Append([&](XdrEncoder& enc) {
      XdrField(enc, op);
      XdrField(enc, record);
    });
  }

  // Pushes any buffered records to the backing object now.
  void Flush();

  // Streams every record to `on_record`, then calls `on_done`. Used for
  // recovery after a crash wiped in-memory state.
  void Replay(std::function<void(ByteSpan)> on_record, std::function<void(Status)> on_done);

  // Forgets buffered (unflushed) records — models losing them in a crash.
  void DiscardBuffered();

  uint64_t bytes_logged() const { return log_offset_ + buffer_.size(); }
  uint64_t records_logged() const { return records_; }
  uint64_t flushes() const { return flushes_; }

 private:
  // Appends a placeholder length word for a new record and returns its
  // offset. Grows the buffer geometrically first when little room is left:
  // an encoder grows it only to what one opaque needs.
  size_t BeginRecord();
  // Fills in the length of the record begun at `at`.
  void EndRecord(size_t at);
  void ArmFlushTimer();
  void ReplayChunk(uint64_t offset, Bytes carry, std::function<void(ByteSpan)> on_record,
                   std::function<void(Status)> on_done);

  EventQueue& queue_;
  NfsClient client_;
  FileHandle object_;
  WalParams params_;
  Bytes buffer_;  // appended records, not yet flushed (capacity reused)
  uint64_t log_offset_ = 0;  // stable bytes already at the backing object
  uint64_t records_ = 0;
  uint64_t flushes_ = 0;
  bool timer_armed_ = false;
};

}  // namespace slice

#endif  // SLICE_DIR_WAL_H_
