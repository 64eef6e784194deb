// Unit tests for the write-ahead log: framing, group commit, replay over the
// wire, crash loss of the buffered tail, and continued appends after replay.
#include <gtest/gtest.h>

#include "src/dir/wal.h"
#include "src/storage/storage_node.h"

namespace slice {
namespace {

constexpr uint64_t kSecret = 0x11a6;
constexpr NetAddr kStorageAddr = 0x0a000020;
constexpr NetAddr kHostAddr = 0x0a000001;

class WalTest : public ::testing::Test {
 protected:
  WalTest() : net_(queue_, NetworkParams{}) {
    StorageNodeParams params;
    params.volume_secret = kSecret;
    storage_ = std::make_unique<StorageNode>(net_, queue_, kStorageAddr, params);
    host_ = std::make_unique<Host>(net_, kHostAddr);
    object_ = FileHandle::Make(1, (0xf0ull << 48) | 1, 1, FileType3::kReg, 1, kSecret);
    wal_ = std::make_unique<WriteAheadLog>(*host_, queue_, storage_->endpoint(), object_);
  }

  // A raw record: Append's encoder copies its bytes into the log as they are.
  static auto Record(std::string text) {
    return [text = std::move(text)](XdrEncoder& enc) {
      enc.PutRawBytes(ByteSpan(reinterpret_cast<const uint8_t*>(text.data()), text.size()));
    };
  }

  std::vector<std::string> ReplayAll() {
    std::vector<std::string> records;
    Status final_status(StatusCode::kInternal);
    wal_->Replay(
        [&](ByteSpan record) { records.emplace_back(record.begin(), record.end()); },
        [&](Status st) { final_status = st; });
    queue_.RunUntilIdle();
    EXPECT_TRUE(final_status.ok()) << final_status.ToString();
    return records;
  }

  EventQueue queue_;
  Network net_;
  std::unique_ptr<StorageNode> storage_;
  std::unique_ptr<Host> host_;
  FileHandle object_;
  std::unique_ptr<WriteAheadLog> wal_;
};

TEST_F(WalTest, AppendFlushReplayRoundTrip) {
  wal_->Append(Record("alpha"));
  wal_->Append(Record("beta"));
  wal_->Append(Record("gamma"));
  wal_->Flush();
  queue_.RunUntilIdle();

  EXPECT_EQ(ReplayAll(), (std::vector<std::string>{"alpha", "beta", "gamma"}));
}

TEST_F(WalTest, GroupCommitTimerFlushesAutomatically) {
  wal_->Append(Record("timed"));
  EXPECT_EQ(wal_->flushes(), 0u);
  queue_.RunUntilIdle();  // flush timer fires
  EXPECT_EQ(wal_->flushes(), 1u);
  EXPECT_EQ(ReplayAll(), std::vector<std::string>{"timed"});
}

TEST_F(WalTest, ManyRecordsBatchIntoFewFlushes) {
  for (int i = 0; i < 200; ++i) {
    wal_->Append(Record("r" + std::to_string(i)));
  }
  queue_.RunUntilIdle();
  EXPECT_EQ(wal_->records_logged(), 200u);
  EXPECT_LE(wal_->flushes(), 3u) << "group commit must batch";
  EXPECT_EQ(ReplayAll().size(), 200u);
}

TEST_F(WalTest, DiscardBufferedModelsCrash) {
  wal_->Append(Record("durable"));
  wal_->Flush();
  queue_.RunUntilIdle();
  wal_->Append(Record("lost"));
  wal_->DiscardBuffered();
  EXPECT_EQ(ReplayAll(), std::vector<std::string>{"durable"});
}

TEST_F(WalTest, AppendsContinueAfterReplay) {
  wal_->Append(Record("one"));
  wal_->Flush();
  queue_.RunUntilIdle();
  ASSERT_EQ(ReplayAll().size(), 1u);

  // Replay repositions the append offset; further records must not clobber.
  wal_->Append(Record("two"));
  wal_->Flush();
  queue_.RunUntilIdle();
  EXPECT_EQ(ReplayAll(), (std::vector<std::string>{"one", "two"}));
}

TEST_F(WalTest, LargeRecordsSpanReplayChunks) {
  // Records larger than the 32KB replay chunk must reassemble correctly.
  std::string big(50000, 'x');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i % 26));
  }
  wal_->Append(Record(big));
  wal_->Append(Record("tail"));
  wal_->Flush();
  queue_.RunUntilIdle();
  std::vector<std::string> records = ReplayAll();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], big);
  EXPECT_EQ(records[1], "tail");
}

TEST_F(WalTest, EmptyLogReplaysNothing) {
  EXPECT_TRUE(ReplayAll().empty());
}

TEST_F(WalTest, BytesLoggedAccounting) {
  wal_->Append(Record("abcd"));  // 4 + 4-byte frame
  EXPECT_EQ(wal_->bytes_logged(), 8u);
  wal_->Flush();
  queue_.RunUntilIdle();
  wal_->Append(Record("ef"));
  EXPECT_EQ(wal_->bytes_logged(), 8u + 6u);
}

}  // namespace
}  // namespace slice
