// Unit tests for the XDR (RFC 4506) codec.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/xdr/xdr.h"

namespace slice {
namespace {

TEST(XdrTest, ScalarRoundTrip) {
  XdrEncoder enc;
  enc.PutUint32(0xdeadbeef);
  enc.PutUint64(0x0123456789abcdefull);
  enc.PutBool(true);
  enc.PutBool(false);

  XdrDecoder dec(enc.bytes());
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  bool yes = false;
  bool no = true;
  XdrField(dec, u32);
  XdrField(dec, u64);
  XdrField(dec, yes);
  XdrField(dec, no);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_TRUE(yes);
  EXPECT_FALSE(no);
  EXPECT_TRUE(dec.exhausted());
  EXPECT_TRUE(dec.ok());
}

TEST(XdrTest, BigEndianWire) {
  XdrEncoder enc;
  enc.PutUint32(1);
  ASSERT_EQ(enc.size(), 4u);
  EXPECT_EQ(enc.bytes()[0], 0);
  EXPECT_EQ(enc.bytes()[3], 1);
}

TEST(XdrTest, StringPadding) {
  XdrEncoder enc;
  enc.PutString("abcde");  // 4 len + 5 data + 3 pad = 12
  EXPECT_EQ(enc.size(), 12u);
  EXPECT_EQ(enc.bytes()[4 + 5], 0);

  XdrDecoder dec(enc.bytes());
  std::string out;
  XdrField(dec, out, 255);
  EXPECT_EQ(out, "abcde");
  EXPECT_TRUE(dec.exhausted());
}

TEST(XdrTest, EmptyString) {
  XdrEncoder enc;
  enc.PutString("");
  EXPECT_EQ(enc.size(), 4u);
  XdrDecoder dec(enc.bytes());
  std::string out = "stale";
  XdrField(dec, out, 255);
  EXPECT_TRUE(dec.ok());
  EXPECT_EQ(out, "");
}

TEST(XdrTest, OpaqueFixedAlignment) {
  XdrEncoder enc;
  const uint8_t data[] = {1, 2, 3};
  enc.PutOpaqueFixed(ByteSpan(data, 3));
  EXPECT_EQ(enc.bytes(), Bytes({1, 2, 3, 0}));
}

TEST(XdrTest, OpaqueVarRoundTrip) {
  Rng rng(3);
  for (size_t len : {0u, 1u, 3u, 4u, 5u, 1000u}) {
    Bytes data(len);
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    XdrEncoder enc;
    enc.PutOpaqueVar(data);
    EXPECT_EQ(enc.size() % 4, 0u);
    XdrDecoder dec(enc.bytes());
    Bytes out;
    XdrField(dec, out, 1000);
    EXPECT_TRUE(dec.ok());
    EXPECT_TRUE(dec.exhausted());
    EXPECT_EQ(out, data);
  }
}

TEST(XdrTest, ShortBufferIsCorrupt) {
  XdrEncoder enc;
  enc.PutUint32(7);
  XdrDecoder dec(enc.bytes());
  uint64_t v = 9;
  XdrField(dec, v);
  EXPECT_EQ(v, 9u);
  EXPECT_EQ(dec.status().code(), StatusCode::kCorrupt);
}

TEST(XdrTest, OversizeOpaqueRejected) {
  XdrEncoder enc;
  enc.PutUint32(1 << 30);  // absurd length word
  XdrDecoder dec(enc.bytes());
  Bytes out;
  XdrField(dec, out, 1 << 22);
  EXPECT_EQ(dec.status().code(), StatusCode::kCorrupt);
}

TEST(XdrTest, BadBoolRejected) {
  XdrEncoder enc;
  enc.PutUint32(2);
  XdrDecoder dec(enc.bytes());
  bool v = false;
  XdrField(dec, v);
  EXPECT_EQ(dec.status().code(), StatusCode::kCorrupt);
}

TEST(XdrTest, RawViewZeroCopy) {
  XdrEncoder enc;
  const uint8_t data[] = {1, 2, 3, 4, 5};
  enc.PutOpaqueVar(ByteSpan(data, 5));
  XdrDecoder dec(enc.bytes());
  ByteSpan view;
  XdrField(dec, view, 8);
  EXPECT_EQ(view.size(), 5u);
  EXPECT_EQ(view.data(), enc.bytes().data() + 4);  // past the length word
  EXPECT_TRUE(dec.exhausted());                     // padding read too
}

TEST(XdrTest, FirstFailureSticks) {
  XdrEncoder enc;
  enc.PutUint32(7);  // not a bool
  enc.PutUint32(8);
  XdrDecoder dec(enc.bytes());
  bool flag = false;
  uint32_t next = 0;
  XdrField(dec, flag);
  XdrField(dec, next);  // a word is there, but the decode has failed
  EXPECT_EQ(next, 0u);
  EXPECT_EQ(dec.position(), 4u);
  EXPECT_FALSE(dec.ok());
  EXPECT_EQ(dec.status().message(), "xdr: bad bool");
}

TEST(XdrTest, PositionTracking) {
  XdrEncoder enc;
  enc.PutUint32(1);
  enc.PutUint64(2);
  XdrDecoder dec(enc.bytes());
  EXPECT_EQ(dec.position(), 0u);
  uint32_t v = 0;
  XdrField(dec, v);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.position(), 4u);
  EXPECT_EQ(dec.remaining(), 8u);
}

TEST(XdrTest, PadHelper) {
  EXPECT_EQ(XdrPad(0), 0u);
  EXPECT_EQ(XdrPad(1), 3u);
  EXPECT_EQ(XdrPad(2), 2u);
  EXPECT_EQ(XdrPad(3), 1u);
  EXPECT_EQ(XdrPad(4), 0u);
}

// Property test: arbitrary interleavings of typed values round-trip.
TEST(XdrTest, PropertyRandomRoundTrip) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    XdrEncoder enc;
    std::vector<int> kinds;
    std::vector<uint64_t> ints;
    std::vector<std::string> strs;
    const int n = 1 + static_cast<int>(rng.NextBelow(20));
    for (int i = 0; i < n; ++i) {
      const int kind = static_cast<int>(rng.NextBelow(3));
      kinds.push_back(kind);
      if (kind == 0) {
        const uint32_t v = static_cast<uint32_t>(rng.NextU64());
        ints.push_back(v);
        enc.PutUint32(v);
      } else if (kind == 1) {
        const uint64_t v = rng.NextU64();
        ints.push_back(v);
        enc.PutUint64(v);
      } else {
        std::string s(rng.NextBelow(40), 'q');
        strs.push_back(s);
        enc.PutString(s);
      }
    }
    XdrDecoder dec(enc.bytes());
    size_t ii = 0;
    size_t si = 0;
    for (int kind : kinds) {
      if (kind == 0) {
        uint32_t v = 0;
        XdrField(dec, v);
        EXPECT_EQ(v, static_cast<uint32_t>(ints[ii++]));
      } else if (kind == 1) {
        uint64_t v = 0;
        XdrField(dec, v);
        EXPECT_EQ(v, ints[ii++]);
      } else {
        std::string v;
        XdrField(dec, v, 40);
        EXPECT_EQ(v, strs[si++]);
      }
    }
    EXPECT_TRUE(dec.ok());
    EXPECT_TRUE(dec.exhausted());
  }
}

}  // namespace
}  // namespace slice
