// The wire, pinned and round-tripped. Every sample of tests/wire_samples.h
// must decode from its encoding, consuming every byte, to a value that
// re-encodes to the same bytes, and every strict prefix must fail. Three
// FNV-1a digests pin what the codecs and the write-ahead logs put on the
// wire: the samples' encodings, the decoders' verdicts on every prefix and
// on 64 seeded bit flips of each encoding, and the log bytes a scripted run
// of all eleven record kinds leaves in each server's log object. The digests
// were recorded before the codecs were last rewritten; a change that moves
// any byte or verdict moves a digest.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/coord/coordinator.h"
#include "src/dir/dir_server.h"
#include "src/nfs/nfs_client.h"
#include "src/rpc/rpc_message.h"
#include "src/sfs/small_file_server.h"
#include "src/storage/storage_node.h"
#include "tests/wire_samples.h"

namespace slice {
namespace {

using wire_samples::Fh;
using wire_samples::ForEachWireSample;
using wire_samples::kSecret;

// FNV-1a over a sequence of length-prefixed chunks.
class Fold {
 public:
  void Add(uint64_t v) {
    uint8_t word[8];
    PutU64(word, v);
    h_ = Fnv1a64(ByteSpan(word, sizeof(word)), h_);
  }
  void Add(ByteSpan bytes) {
    Add(bytes.size());
    h_ = Fnv1a64(bytes, h_);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = kFnvOffsetBasis;
};

template <typename T>
Bytes EncodeOf(const T& value) {
  XdrEncoder enc;
  value.Encode(enc);
  return enc.Take();
}

ReadRes Owned(const ReadResView& view) {
  ReadRes res;
  res.status = view.status;
  res.file_attributes = view.file_attributes;
  res.count = view.count;
  res.eof = view.eof;
  res.data.assign(view.data.begin(), view.data.end());
  return res;
}

// What decoding `body` as a T says: whether it decodes and, when it does,
// the decoded value's encoding. A READ result also decodes as a view.
template <typename T>
void FoldVerdict(Fold& fold, ByteSpan body, uint32_t proc) {
  const Result<T> decoded = DecodeBody<T>(body, proc);
  fold.Add(decoded.ok() ? 1 : 0);
  if (decoded.ok()) {
    fold.Add(EncodeOf(*decoded));
  }
  if constexpr (std::is_same_v<T, ReadRes>) {
    const Result<ReadResView> view = DecodeBody<ReadResView>(body, proc);
    fold.Add(view.ok() ? 1 : 0);
    if (view.ok()) {
      fold.Add(EncodeOf(Owned(*view)));
    }
  }
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Digests {
  uint64_t encodings = 0;
  uint64_t verdicts = 0;
  std::string per_sample;  // one line per sample, shown when a digest moves
};

Digests WireDigests() {
  Fold encodings;
  Fold verdicts;
  std::string per_sample;
  ForEachWireSample([&](const char* name, uint32_t proc, const auto& value) {
    using T = std::decay_t<decltype(value)>;
    const Bytes wire = EncodeOf(value);
    encodings.Add(wire);
    Fold sample;
    for (size_t keep = 0; keep < wire.size(); ++keep) {
      FoldVerdict<T>(sample, ByteSpan(wire.data(), keep), proc);
    }
    Rng rng(Fnv1a64(std::string_view(name)));
    for (int flip = 0; flip < 64; ++flip) {
      Bytes mutated = wire;
      const uint64_t bit = rng.NextBelow(mutated.size() * 8);
      mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      FoldVerdict<T>(sample, mutated, proc);
    }
    verdicts.Add(sample.value());
    per_sample += std::string(name) + " bytes=" + Hex(Fnv1a64(wire)) +
                  " verdicts=" + Hex(sample.value()) + "\n";
  });
  return Digests{encodings.value(), verdicts.value(), std::move(per_sample)};
}

constexpr uint64_t kEncodingsDigest = 0xd60c522f10312f43;
constexpr uint64_t kVerdictsDigest = 0xd051eda49ca58f60;
constexpr uint64_t kLogsDigest = 0x245b3c0da0aa4460;

TEST(WirePinTest, EncodingsAndDecodeVerdictsAreUnchanged) {
  const Digests d = WireDigests();
  EXPECT_EQ(Hex(d.encodings), Hex(kEncodingsDigest)) << d.per_sample;
  EXPECT_EQ(Hex(d.verdicts), Hex(kVerdictsDigest)) << d.per_sample;
}

// --- write-ahead logs ---

constexpr NetAddr kStorage0 = 0x0a000020;
constexpr NetAddr kStorage1 = 0x0a000021;
constexpr NetAddr kServerAddr = 0x0a000040;
constexpr NetAddr kClientAddr = 0x0a000001;

// A simulated world with two storage nodes, the first holding the log.
class LogWorld {
 public:
  LogWorld() : net_(queue_, NetworkParams{}) {
    StorageNodeParams snp;
    snp.volume_secret = kSecret;
    storage_.push_back(std::make_unique<StorageNode>(net_, queue_, kStorage0, snp));
    storage_.push_back(std::make_unique<StorageNode>(net_, queue_, kStorage1, snp));
    client_host_ = std::make_unique<Host>(net_, kClientAddr);
  }

  static FileHandle LogObject(uint64_t tag) {
    return FileHandle::Make(1, (tag << 48) | 0, 1, FileType3::kReg, 1, kSecret);
  }

  // Every byte the log object holds, read back over NFS once the run is
  // idle (every group-commit flush done).
  Bytes ReadLog(const FileHandle& object) {
    queue_.RunUntilIdle();
    SyncNfsClient client(*client_host_, queue_, storage_[0]->endpoint());
    Result<ReadRes> read = client.Read(object, 0, 1 << 16);
    EXPECT_TRUE(read.ok() && read->status == Nfsstat3::kOk);
    EXPECT_TRUE(read.ok() && read->eof);
    return read.ok() ? read->data : Bytes{};
  }

  EventQueue queue_;
  Network net_;
  std::vector<std::unique_ptr<StorageNode>> storage_;
  std::unique_ptr<Host> client_host_;
};

// The op tag of every length-framed record in `log`.
std::set<uint32_t> RecordOps(const Bytes& log) {
  std::set<uint32_t> ops;
  size_t pos = 0;
  while (pos + 8 <= log.size()) {
    const uint32_t len = GetU32(log.data() + pos);
    ops.insert(GetU32(log.data() + pos + 4));
    pos += 4 + len;
  }
  EXPECT_EQ(pos, log.size());
  return ops;
}

Bytes DirServerLog() {
  LogWorld w;
  DirServerParams params;
  params.volume_secret = kSecret;
  params.backing_node = w.storage_[0]->endpoint();
  params.backing_object = LogWorld::LogObject(0xf0);
  DirServer server(w.net_, w.queue_, kServerAddr, params);
  SyncNfsClient client(*w.client_host_, w.queue_, server.endpoint());
  const FileHandle root = server.RootHandle();
  const Result<CreateRes> created = client.Create(root, "alpha");
  EXPECT_TRUE(created.ok() && created->status == Nfsstat3::kOk);
  EXPECT_TRUE(client.Symlink(root, "link", "../target/path").ok());
  EXPECT_TRUE(client.Remove(root, "alpha").ok());
  const Bytes log = w.ReadLog(params.backing_object);
  EXPECT_EQ(RecordOps(log), (std::set<uint32_t>{1, 2, 3, 4}));
  return log;
}

Bytes CoordinatorLog() {
  LogWorld w;
  CoordinatorParams params;
  params.volume_secret = kSecret;
  params.num_storage_sites = 2;
  params.backing_node = w.storage_[0]->endpoint();
  params.backing_object = LogWorld::LogObject(0xfc);
  Coordinator coord(w.net_, w.queue_, kServerAddr, params,
                    {w.storage_[0]->endpoint(), w.storage_[1]->endpoint()}, {});
  RpcClient rpc(*w.client_host_, w.queue_);
  auto call = [&](CoordProc proc, const auto& args) {
    bool done = false;
    rpc.Call(coord.endpoint(), kCoordProgram, kCoordVersion, static_cast<uint32_t>(proc), args,
             [&](Status st, const RpcMessageView&) {
               EXPECT_TRUE(st.ok());
               done = true;
             });
    while (!done && w.queue_.RunOne()) {
    }
  };
  const FileHandle file = Fh(77);
  call(CoordProc::kLogIntent, LogIntentArgs{IntentOp::kTruncate, file, 4096});
  call(CoordProc::kComplete, CompleteArgs{1});
  call(CoordProc::kGetMap, GetMapArgs{file, 0, 3, true});
  // A region whose only replica is the node that missed it: the repair
  // gives up at once and logs it repaired.
  const uint32_t node = StripeSiteFor(file, 0, params.stripe_unit, 2);
  call(CoordProc::kLogDegraded, DegradedArgs{file, 0, 8192, node});
  coord.RepairNode(node);
  const Bytes log = w.ReadLog(params.backing_object);
  EXPECT_EQ(RecordOps(log), (std::set<uint32_t>{1, 2, 3, 4, 5}));
  return log;
}

Bytes SmallFileServerLog() {
  LogWorld w;
  SmallFileServerParams params;
  params.volume_secret = kSecret;
  params.backing_node = w.storage_[0]->endpoint();
  params.backing_object = LogWorld::LogObject(0xfd);
  SmallFileServer sfs(w.net_, w.queue_, kServerAddr, params,
                      {w.storage_[0]->endpoint(), w.storage_[1]->endpoint()});
  SyncNfsClient client(*w.client_host_, w.queue_, sfs.endpoint());
  const FileHandle file = FileHandle::Make(1, 88, 1, FileType3::kReg, 1, kSecret);
  Bytes data(10000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31);
  }
  EXPECT_TRUE(client.Write(file, 0, data, StableHow::kFileSync).ok());
  SetattrArgs truncate;
  truncate.object = file;
  truncate.new_attributes.size = 3000;
  EXPECT_TRUE(client.Setattr(truncate).ok());
  EXPECT_TRUE(client.Remove(file, "").ok());
  const Bytes log = w.ReadLog(params.backing_object);
  EXPECT_EQ(RecordOps(log), (std::set<uint32_t>{1, 2}));
  return log;
}

TEST(WirePinTest, WriteAheadLogBytesAreUnchanged) {
  Fold fold;
  const Bytes logs[] = {DirServerLog(), CoordinatorLog(), SmallFileServerLog()};
  std::string per_log;
  for (const Bytes& log : logs) {
    fold.Add(log);
    per_log += Hex(Fnv1a64(log)) + " (" + std::to_string(log.size()) + " bytes)\n";
  }
  EXPECT_EQ(Hex(fold.value()), Hex(kLogsDigest)) << per_log;
}

// --- round trips ---

TEST(WireCodecTest, EverySampleRoundTripsAndEveryPrefixFails) {
  int samples = 0;
  ForEachWireSample([&](const char* name, uint32_t proc, const auto& value) {
    using T = std::decay_t<decltype(value)>;
    ++samples;
    const Bytes wire = EncodeOf(value);
    XdrDecoder dec(wire);
    Result<T> decoded = [&] {
      if constexpr (requires { T::DecodeForProc(dec, proc); }) {
        return T::DecodeForProc(dec, proc);
      } else {
        return T::Decode(dec);
      }
    }();
    ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.status().ToString();
    EXPECT_TRUE(dec.exhausted()) << name << ": " << dec.remaining() << " bytes left";
    EXPECT_EQ(EncodeOf(*decoded), wire) << name;
    for (size_t keep = 0; keep < wire.size(); ++keep) {
      EXPECT_FALSE((DecodeBody<T>(ByteSpan(wire.data(), keep), proc).ok()))
          << name << " decoded from its first " << keep << " bytes";
    }
  });
  EXPECT_GE(samples, 40);
}

TEST(WireCodecTest, EveryLogRecordRoundTripsAndEveryPrefixFails) {
  int kinds = 0;
  wire_samples::ForEachLogRecordSample([&](const char* name, auto op, const auto& record) {
    using Op = decltype(op);
    using T = std::decay_t<decltype(record)>;
    ++kinds;
    XdrEncoder enc;
    XdrField(enc, op);
    XdrField(enc, record);
    const Bytes wire = enc.Take();
    XdrDecoder dec(wire);
    Op tag{};
    XdrField(dec, tag);
    EXPECT_EQ(tag, op) << name;
    Result<T> decoded = XdrDecode<T>(dec);
    ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.status().ToString();
    EXPECT_TRUE(dec.exhausted()) << name;
    XdrEncoder again;
    XdrField(again, op);
    XdrField(again, *decoded);
    EXPECT_EQ(again.bytes(), wire) << name;
    for (size_t keep = 4; keep < wire.size(); ++keep) {
      XdrDecoder prefix(ByteSpan(wire.data(), keep));
      XdrField(prefix, tag);
      EXPECT_FALSE(XdrDecode<T>(prefix).ok()) << name << " decoded from " << keep << " bytes";
    }
  });
  EXPECT_EQ(kinds, 11);
}

}  // namespace
}  // namespace slice
