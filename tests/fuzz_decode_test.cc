// Decoder robustness ("poor man's fuzzing", deterministic): every wire
// decoder — XDR, RPC, every NFS, coordinator and manager struct and every
// write-ahead-log record (tests/wire_samples.h lists them), µproxy request
// decode, packet parsing — must survive arbitrary bytes and systematic
// corruption of valid messages without crashing, over-reading, or claiming
// success on garbage it cannot have parsed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/request_decode.h"
#include "src/net/packet.h"
#include "src/nfs/nfs_xdr.h"
#include "src/obs/trace.h"
#include "src/rpc/rpc_message.h"
#include "tests/wire_samples.h"

namespace slice {
namespace {

Bytes RandomBytes(Rng& rng, size_t n) {
  Bytes data(n);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  return data;
}

// The µproxy's reply-side decode: the envelope through DecodeRpcMessage,
// then the result body through the src/nfs decoder (the lookup cache fill).
template <typename Res>
Result<Res> DecodeReplyResult(ByteSpan wire) {
  SLICE_ASSIGN_OR_RETURN(const RpcMessageView view, DecodeRpcMessage(wire));
  if (view.type != RpcMsgType::kReply || view.accept_stat != RpcAcceptStat::kSuccess) {
    return Status(StatusCode::kCorrupt, "not a successful reply");
  }
  XdrDecoder dec(view.body);
  return Res::Decode(dec);
}

class FuzzSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSeedTest, RandomBytesThroughEveryDecoder) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    const Bytes data = RandomBytes(rng, rng.NextBelow(600));

    // RPC layer.
    (void)DecodeRpcMessage(data);

    // µproxy fast path. A view that decodes must keep its name offsets
    // inside the payload: materializing both names reads every byte they
    // claim (the sanitizer build turns an over-read into a failure).
    DecodedView view;
    if (DecodeNfsRequestView(data, &view).ok()) {
      EXPECT_LE(std::string(view.name(data)).size() + view.name_off, data.size());
      EXPECT_LE(std::string(view.name2(data)).size() + view.name2_off, data.size());
    }

    // Reply-side decodes (in-proxy lookup/attribute cache).
    (void)DecodeReplyResult<LookupRes>(data);
    (void)DecodeReplyResult<GetattrRes>(data);

    // Every wire struct (as each of its samples' procedures decodes it:
    // READDIRPLUS too), the READ result's view form, and every log record
    // after its op tag.
    wire_samples::ForEachWireSample([&](const char*, uint32_t proc, const auto& sample) {
      using T = std::decay_t<decltype(sample)>;
      (void)DecodeBody<T>(data, proc);
    });
    (void)DecodeBody<ReadResView>(data, 0);
    wire_samples::ForEachLogRecordSample([&](const char*, auto op, const auto& sample) {
      using T = std::decay_t<decltype(sample)>;
      XdrDecoder dec(data);
      XdrField(dec, op);
      (void)XdrDecode<T>(dec);
    });
  }
  SUCCEED();  // the assertion is "no crash, no UB under ASAN-style checks"
}

TEST_P(FuzzSeedTest, BitFlippedValidCallsNeverCrashTheDecoder) {
  Rng rng(GetParam());
  // Build a valid WRITE call, then flip bits all over it.
  RpcCall call;
  call.xid = 9;
  call.prog = kNfsProgram;
  call.vers = kNfsVersion;
  call.proc = static_cast<uint32_t>(NfsProc::kWrite);
  WriteArgs wargs;
  wargs.file = FileHandle::Make(1, 5, 1, FileType3::kReg, 1, 0);
  wargs.offset = 8192;
  wargs.data = RandomBytes(rng, 300);
  wargs.count = 300;
  XdrEncoder enc;
  wargs.Encode(enc);
  call.args = enc.Take();
  const Bytes valid = call.Encode();

  for (int trial = 0; trial < 400; ++trial) {
    Bytes mutated = valid;
    const int flips = 1 + static_cast<int>(rng.NextBelow(8));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.NextBelow(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    DecodedView req;
    const Status st = DecodeNfsRequestView(mutated, &req);
    if (st.ok()) {
      // If it still parses, the parsed fields must at least be internally
      // sane (proc in range, fh length respected by construction, names
      // inside the payload).
      EXPECT_LE(static_cast<uint32_t>(req.proc), 21u);
      EXPECT_LE(std::string(req.name(mutated)).size() + req.name_off, mutated.size());
      EXPECT_LE(std::string(req.name2(mutated)).size() + req.name2_off, mutated.size());
    }
  }
}

TEST_P(FuzzSeedTest, BitFlippedCacheFillRepliesNeverCrashTheViewDecoders) {
  Rng rng(GetParam());
  // Valid LOOKUP reply: child handle plus post-op attributes, the exact
  // shape the µproxy's cache-fill path peeks at.
  const FileHandle child = FileHandle::Make(2, 7, 3, FileType3::kReg, 2, 0);
  Bytes valid_lookup;
  {
    RpcReply reply;
    reply.xid = 77;
    LookupRes res;
    res.status = Nfsstat3::kOk;
    res.object = child;
    Fattr3 attr;
    attr.type = FileType3::kReg;
    attr.fileid = child.fileid();
    attr.size = 4096;
    res.obj_attributes = attr;
    XdrEncoder enc;
    res.Encode(enc);
    reply.result = enc.Take();
    valid_lookup = reply.Encode();
  }
  // Valid GETATTR reply.
  Bytes valid_getattr;
  {
    RpcReply reply;
    reply.xid = 78;
    GetattrRes res;
    res.status = Nfsstat3::kOk;
    res.attributes.type = FileType3::kDir;
    res.attributes.fileid = 42;
    XdrEncoder enc;
    res.Encode(enc);
    reply.result = enc.Take();
    valid_getattr = reply.Encode();
  }

  for (int trial = 0; trial < 400; ++trial) {
    Bytes lm = valid_lookup;
    Bytes gm = valid_getattr;
    const int flips = 1 + static_cast<int>(rng.NextBelow(8));
    for (int f = 0; f < flips; ++f) {
      lm[rng.NextBelow(lm.size())] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
      gm[rng.NextBelow(gm.size())] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    Result<LookupRes> lres = DecodeReplyResult<LookupRes>(lm);
    if (lres.ok() && lres->status != Nfsstat3::kOk) {
      // If it still parses, a non-OK status never claims the child's
      // attributes (the cache-fill path trusts this).
      EXPECT_FALSE(lres->obj_attributes.has_value());
    }
    (void)DecodeReplyResult<GetattrRes>(gm);
  }
}

TEST_P(FuzzSeedTest, TruncatedCacheFillRepliesFailCleanly) {
  // Every strict prefix of a valid LOOKUP reply must be rejected; the
  // untruncated bytes must round-trip the fields the cache-fill path
  // consumes.
  const FileHandle child = FileHandle::Make(1, 9, 2, FileType3::kReg, 4, 0);
  RpcReply reply;
  reply.xid = 501;
  LookupRes res;
  res.status = Nfsstat3::kOk;
  res.object = child;
  Fattr3 attr;
  attr.type = FileType3::kReg;
  attr.fileid = child.fileid();
  res.obj_attributes = attr;
  XdrEncoder enc;
  res.Encode(enc);
  reply.result = enc.Take();
  const Bytes valid = reply.Encode();

  // LookupRes::Decode reads through the trailing dir_attributes flag, so a
  // reply cut anywhere, even just before that flag, fills nothing.
  for (size_t keep = 0; keep < valid.size(); ++keep) {
    EXPECT_FALSE(DecodeReplyResult<LookupRes>(ByteSpan(valid.data(), keep)).ok())
        << "keep=" << keep;
  }
  Result<RpcMessageView> envelope = DecodeRpcMessage(valid);
  ASSERT_TRUE(envelope.ok());
  EXPECT_EQ(envelope->xid, 501u);
  Result<LookupRes> decoded = DecodeReplyResult<LookupRes>(valid);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->status, Nfsstat3::kOk);
  EXPECT_EQ(decoded->object.fileid(), child.fileid());
  ASSERT_TRUE(decoded->obj_attributes.has_value());
  EXPECT_EQ(decoded->obj_attributes->fileid, child.fileid());
}

TEST_P(FuzzSeedTest, TruncationsOfValidMessagesFailCleanly) {
  Rng rng(GetParam());
  RpcReply reply;
  reply.xid = 3;
  ReadRes res;
  res.file_attributes = Fattr3{};
  res.data = RandomBytes(rng, 200);
  res.count = 200;
  XdrEncoder enc;
  res.Encode(enc);
  reply.result = enc.Take();
  const Bytes valid = reply.Encode();

  for (size_t keep = 0; keep < valid.size(); ++keep) {
    Result<RpcMessageView> view = DecodeRpcMessage(ByteSpan(valid.data(), keep));
    if (view.ok()) {
      // A prefix that still decodes as an RPC envelope must not yield a
      // successfully decoded READ result beyond its bytes.
      XdrDecoder dec(view->body);
      Result<ReadRes> decoded = ReadRes::Decode(dec);
      if (decoded.ok() && decoded->status == Nfsstat3::kOk) {
        EXPECT_EQ(decoded->data.size(), decoded->count);
      }
    }
  }
  SUCCEED();
}

// Builds a READ reply wire exactly as the server does: the result's data
// gathered from the payload's pieces (the storage node's page views,
// ReadResPieces) straight into a reply frame, whose envelope is then filled
// in place (RpcServerNode::SendReply), with no intermediate Bytes copy.
Bytes ServerShapedReadReply(uint32_t xid, const Fattr3& attr,
                            std::span<const ByteSpan> pieces, bool eof) {
  ReadResPieces res;
  res.status = Nfsstat3::kOk;
  res.file_attributes = attr;
  for (ByteSpan piece : pieces) {
    res.count += static_cast<uint32_t>(piece.size());
  }
  res.eof = eof;
  res.data = pieces;
  XdrEncoder reply = NewReplyEncoder();
  res.Encode(reply);
  Bytes frame = reply.Take();
  const ByteSpan message = SealReplyFrame(frame, xid, RpcAcceptStat::kSuccess);
  return Bytes(message.begin(), message.end());
}

// The client decodes READ replies as views (ReadResView), a caller that
// keeps them as owned data (ReadRes): one field list over two data types.
// Both must accept and reject the same bodies, with equal fields and the
// same bytes consumed.
void ExpectReadDecodersAgree(ByteSpan body, const std::string& what) {
  XdrDecoder owned_dec(body);
  const Result<ReadRes> owned = ReadRes::Decode(owned_dec);
  XdrDecoder view_dec(body);
  const Result<ReadResView> view = ReadResView::Decode(view_dec);
  ASSERT_EQ(owned.ok(), view.ok()) << what;
  if (!owned.ok()) {
    EXPECT_EQ(owned.status().code(), view.status().code()) << what;
    return;
  }
  EXPECT_EQ(owned->status, view->status) << what;
  EXPECT_EQ(owned->file_attributes, view->file_attributes) << what;
  EXPECT_EQ(owned->count, view->count) << what;
  EXPECT_EQ(owned->eof, view->eof) << what;
  EXPECT_TRUE(std::equal(owned->data.begin(), owned->data.end(), view->data.begin(),
                         view->data.end()))
      << what;
  EXPECT_EQ(owned_dec.position(), view_dec.position()) << what;
}

TEST_P(FuzzSeedTest, ReadResViewDecodesExactlyWhatReadResDecodes) {
  Rng rng(GetParam());
  Fattr3 attr;
  attr.type = FileType3::kReg;
  attr.fileid = 31;
  const Bytes payload = RandomBytes(rng, 1 + rng.NextBelow(700));
  attr.size = payload.size();
  const ByteSpan whole(payload);
  const Bytes valid = ServerShapedReadReply(77, attr, {&whole, 1}, (GetParam() & 1) != 0);
  const size_t body_offset = kRpcReplyEnvelopeSize;

  ExpectReadDecodersAgree(ByteSpan(valid).subspan(body_offset), "valid");
  for (size_t keep = body_offset; keep < valid.size(); ++keep) {
    ExpectReadDecodersAgree(ByteSpan(valid.data() + body_offset, keep - body_offset),
                            "keep=" + std::to_string(keep));
  }
  for (int trial = 0; trial < 400; ++trial) {
    Bytes mutated = valid;
    const int flips = 1 + static_cast<int>(rng.NextBelow(8));
    for (int f = 0; f < flips; ++f) {
      mutated[body_offset + rng.NextBelow(mutated.size() - body_offset)] ^=
          static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    ExpectReadDecodersAgree(ByteSpan(mutated).subspan(body_offset),
                            "trial=" + std::to_string(trial));
  }
}

TEST_P(FuzzSeedTest, ServerEncodedReadReplyRoundTrips) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const Bytes payload = RandomBytes(rng, rng.NextBelow(2000));
    Fattr3 attr;
    attr.type = FileType3::kReg;
    attr.fileid = rng.NextU64();
    attr.size = payload.size();
    const uint32_t xid = static_cast<uint32_t>(rng.NextU64());
    const bool eof = (trial & 1) != 0;
    // Cut the payload into up to three pieces at random points, empty
    // pieces included, as page boundaries cut a read.
    size_t cut1 = rng.NextBelow(payload.size() + 1);
    size_t cut2 = rng.NextBelow(payload.size() + 1);
    if (cut1 > cut2) {
      std::swap(cut1, cut2);
    }
    const ByteSpan whole(payload);
    const ByteSpan pieces[] = {whole.subspan(0, cut1), whole.subspan(cut1, cut2 - cut1),
                               whole.subspan(cut2)};
    const Bytes wire = ServerShapedReadReply(xid, attr, pieces, eof);

    // The gathered encoding must be byte-identical to the owned one — this
    // is the contract the zero-copy reply path stands on.
    {
      ReadRes res;
      res.status = Nfsstat3::kOk;
      res.file_attributes = attr;
      res.count = static_cast<uint32_t>(payload.size());
      res.eof = eof;
      res.data = payload;
      XdrEncoder materialized;
      res.Encode(materialized);
      const ReadResPieces gathered{res.status, res.file_attributes, res.count, res.eof, pieces};
      XdrEncoder spanned;
      gathered.Encode(spanned);
      EXPECT_EQ(materialized.bytes().size(), spanned.bytes().size());
      EXPECT_TRUE(std::memcmp(materialized.bytes().data(), spanned.bytes().data(),
                              spanned.bytes().size()) == 0);
    }

    // Full round trip through the envelope and result decoders.
    Result<RpcMessageView> view = DecodeRpcMessage(wire);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view->xid, xid);
    XdrDecoder dec(view->body);
    Result<ReadRes> decoded = ReadRes::Decode(dec);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->status, Nfsstat3::kOk);
    EXPECT_EQ(decoded->count, payload.size());
    EXPECT_EQ(decoded->eof, eof);
    ASSERT_EQ(decoded->data.size(), payload.size());
    EXPECT_TRUE(decoded->data == payload);
    ASSERT_TRUE(decoded->file_attributes.has_value());
    EXPECT_EQ(decoded->file_attributes->fileid, attr.fileid);
  }
}

TEST_P(FuzzSeedTest, BitFlippedServerRepliesNeverCrashTheDecoders) {
  Rng rng(GetParam());
  Fattr3 attr;
  attr.type = FileType3::kReg;
  attr.fileid = 77;
  const Bytes payload = RandomBytes(rng, 512);
  attr.size = payload.size();
  const ByteSpan whole(payload);
  const Bytes valid = ServerShapedReadReply(4242, attr, {&whole, 1}, true);

  for (int trial = 0; trial < 400; ++trial) {
    Bytes mutated = valid;
    const int flips = 1 + static_cast<int>(rng.NextBelow(8));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.NextBelow(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    Result<RpcMessageView> view = DecodeRpcMessage(mutated);
    if (view.ok()) {
      XdrDecoder dec(view->body);
      Result<ReadRes> decoded = ReadRes::Decode(dec);
      if (decoded.ok()) {
        // A parse that survives corruption must never claim more payload
        // than the wire could carry (no over-read).
        EXPECT_LE(decoded->data.size(), mutated.size());
      }
    }
  }
}

TEST_P(FuzzSeedTest, TruncatedServerRepliesFailCleanly) {
  Rng rng(GetParam());
  Fattr3 attr;
  attr.type = FileType3::kReg;
  attr.fileid = 9;
  const Bytes payload = RandomBytes(rng, 300);
  attr.size = payload.size();
  const ByteSpan whole(payload);
  const Bytes valid = ServerShapedReadReply(600, attr, {&whole, 1}, false);

  for (size_t keep = 0; keep < valid.size(); ++keep) {
    Result<RpcMessageView> view = DecodeRpcMessage(ByteSpan(valid.data(), keep));
    if (view.ok()) {
      XdrDecoder dec(view->body);
      Result<ReadRes> decoded = ReadRes::Decode(dec);
      if (decoded.ok() && decoded->status == Nfsstat3::kOk) {
        // The opaque length header inside the prefix is intact, so any
        // successful parse carries exactly the advertised byte count.
        EXPECT_EQ(decoded->data.size(), decoded->count);
      }
    }
  }
  SUCCEED();
}

TEST_P(FuzzSeedTest, RandomBytesThroughTraceTrailerDecoders) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    Packet pkt(RandomBytes(rng, rng.NextBelow(200)));
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    (void)pkt.HasTrace();
    (void)pkt.PeekTrace(&trace_id, &span_id);
    (void)pkt.PeekTrace(nullptr, nullptr);
    if (pkt.DetachTrace(&trace_id, &span_id)) {
      // A detached trailer is gone: a second detach must find nothing.
      EXPECT_FALSE(pkt.HasTrace());
      EXPECT_FALSE(pkt.DetachTrace());
    }
    if (pkt.IsValidUdp()) {
      (void)pkt.payload();
      (void)pkt.VerifyChecksums();
    }
  }
  SUCCEED();
}

TEST_P(FuzzSeedTest, CorruptedTraceTrailersNeverCrashOrCorruptOtherSpans) {
  Rng rng(GetParam());
  // A sentinel span recorded up front; no amount of trailer corruption on
  // unrelated packets may change it.
  obs::Tracer tracer;
  const obs::TraceContext sentinel{42, 4242};
  tracer.RecordSpan(1, sentinel, obs::SpanCat::kCpu, "sentinel", 100, 200);
  const std::vector<obs::Span> before = tracer.Collect();
  ASSERT_EQ(before.size(), 1u);

  const Bytes payload = RandomBytes(rng, 128);
  const Packet valid = [&] {
    Packet p = Packet::MakeUdp(Endpoint{0x0a000001, 700}, Endpoint{0x0a000064, 2049}, payload);
    p.AttachTrace(7, 9);
    return p;
  }();
  ASSERT_TRUE(valid.HasTrace());
  ASSERT_TRUE(valid.IsValidUdp());

  auto exercise = [&](Packet pkt) {
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    if (pkt.PeekTrace(&trace_id, &span_id)) {
      // A corrupted trailer may peek as garbage ids; recording under them
      // must stay confined to the garbage trace, never the sentinel's.
      tracer.RecordSpan(2, obs::TraceContext{trace_id, span_id}, obs::SpanCat::kWire,
                        "fuzzed", 0, 1);
    }
    if (pkt.IsValidUdp()) {
      (void)pkt.payload();
      (void)pkt.VerifyChecksums();
    }
    (void)pkt.DetachTrace();
  };

  // Systematic: every single-bit flip across the whole buffer, trailer
  // included (magic, ids, and the IP length field that gates recognition).
  const Bytes& raw = valid.bytes();
  for (size_t byte = 0; byte < raw.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutated = raw;
      mutated[byte] ^= static_cast<uint8_t>(1u << bit);
      exercise(Packet(std::move(mutated)));
    }
  }
  // Random: multi-bit corruption.
  for (int trial = 0; trial < 200; ++trial) {
    Bytes mutated = raw;
    const int flips = 2 + static_cast<int>(rng.NextBelow(12));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.NextBelow(mutated.size())] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    exercise(Packet(std::move(mutated)));
  }

  // The sentinel span survives, bit for bit.
  const std::vector<obs::Span> after = tracer.Collect();
  const obs::Span* survivor = nullptr;
  for (const obs::Span& span : after) {
    if (span.trace_id == sentinel.trace_id) {
      ASSERT_EQ(survivor, nullptr) << "exactly one sentinel span";
      survivor = &span;
    }
  }
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(std::memcmp(survivor, &before[0], sizeof(obs::Span)), 0)
      << "corrupted trailers never touch an unrelated span";
}

TEST_P(FuzzSeedTest, TruncatedTraceTrailersFailCleanly) {
  Rng rng(GetParam());
  Packet full = Packet::MakeUdp(Endpoint{0x0a000002, 701}, Endpoint{0x0a000064, 2049},
                                RandomBytes(rng, 96));
  full.AttachTrace(1234, 5678);
  const Bytes valid = full.bytes();

  for (size_t keep = 0; keep < valid.size(); ++keep) {
    Packet pkt(Bytes(valid.begin(), valid.begin() + static_cast<ptrdiff_t>(keep)));
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    (void)pkt.HasTrace();
    (void)pkt.PeekTrace(&trace_id, &span_id);
    if (keep == valid.size() - kTraceTrailerSize) {
      // Cutting exactly the trailer restores a trace-free, fully valid
      // datagram — the trailer really is outside the IP length/checksums.
      EXPECT_FALSE(pkt.HasTrace());
      EXPECT_TRUE(pkt.IsValidUdp());
      EXPECT_TRUE(pkt.VerifyChecksums());
    } else if (keep < valid.size()) {
      // Any other truncation breaks the length relationship: never
      // misrecognized as a trailer, and never a valid datagram either.
      EXPECT_FALSE(pkt.HasTrace());
      EXPECT_FALSE(pkt.IsValidUdp());
    }
    (void)pkt.DetachTrace(&trace_id, &span_id);
  }

  // Untruncated: the ids round-trip and detaching restores the exact
  // pre-attach datagram bytes.
  Packet pkt(valid);
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  ASSERT_TRUE(pkt.PeekTrace(&trace_id, &span_id));
  EXPECT_EQ(trace_id, 1234u);
  EXPECT_EQ(span_id, 5678u);
  ASSERT_TRUE(pkt.DetachTrace());
  EXPECT_TRUE(pkt.IsValidUdp());
  EXPECT_TRUE(pkt.VerifyChecksums());
  EXPECT_EQ(pkt.size(), valid.size() - kTraceTrailerSize);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest,
                         ::testing::Values(0x1a, 0x2b, 0x3c, 0x4d, 0x5e, 0x6f));

}  // namespace
}  // namespace slice
