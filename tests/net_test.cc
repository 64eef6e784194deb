// Unit tests for packets (header layout, checksum rewriting) and the
// simulated network (delivery, timing, taps, loss, failure, and the
// in-flight slot table's ordering, guards and growth).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/network.h"
#include "src/net/packet.h"

namespace slice {
namespace {

constexpr NetAddr kHostA = 0x0a000001;  // 10.0.0.1
constexpr NetAddr kHostB = 0x0a000002;  // 10.0.0.2

Packet TestPacket(size_t payload_size = 100) {
  Bytes payload(payload_size, 0x5a);
  return Packet::MakeUdp(Endpoint{kHostA, 1000}, Endpoint{kHostB, 2049}, payload);
}

TEST(PacketTest, BuildsValidUdp) {
  Packet pkt = TestPacket();
  EXPECT_TRUE(pkt.IsValidUdp());
  EXPECT_EQ(pkt.src_addr(), kHostA);
  EXPECT_EQ(pkt.dst_addr(), kHostB);
  EXPECT_EQ(pkt.src_port(), 1000);
  EXPECT_EQ(pkt.dst_port(), 2049);
  EXPECT_EQ(pkt.payload().size(), 100u);
  EXPECT_EQ(pkt.size(), kPacketHeaderSize + 100);
  EXPECT_TRUE(pkt.VerifyChecksums());
}

TEST(PacketTest, ChecksumsDetectCorruption) {
  Packet pkt = TestPacket();
  pkt.mutable_payload()[10] ^= 0xff;
  EXPECT_FALSE(pkt.VerifyChecksums());
}

TEST(PacketTest, RewriteDstPreservesChecksums) {
  Packet pkt = TestPacket();
  pkt.RewriteDst(Endpoint{0x0a0000ff, 3333});
  EXPECT_EQ(pkt.dst_addr(), 0x0a0000ffu);
  EXPECT_EQ(pkt.dst_port(), 3333);
  // The incremental update must agree with a full recompute.
  EXPECT_TRUE(pkt.VerifyChecksums());
}

TEST(PacketTest, RewriteSrcPreservesChecksums) {
  Packet pkt = TestPacket();
  pkt.RewriteSrc(Endpoint{0x0a000042, 777});
  EXPECT_EQ(pkt.src_addr(), 0x0a000042u);
  EXPECT_EQ(pkt.src_port(), 777);
  EXPECT_TRUE(pkt.VerifyChecksums());
}

TEST(PacketTest, RepeatedRewritesStayConsistent) {
  Packet pkt = TestPacket();
  for (uint32_t i = 0; i < 20; ++i) {
    pkt.RewriteDst(Endpoint{0x0a000000 + i, static_cast<NetPort>(2000 + i)});
    pkt.RewriteSrc(Endpoint{0x0a000100 + i, static_cast<NetPort>(4000 + i)});
    ASSERT_TRUE(pkt.VerifyChecksums()) << "iteration " << i;
  }
}

TEST(PacketTest, EmptyPayload) {
  Packet pkt = Packet::MakeUdp(Endpoint{kHostA, 1}, Endpoint{kHostB, 2}, ByteSpan{});
  EXPECT_TRUE(pkt.IsValidUdp());
  EXPECT_EQ(pkt.payload().size(), 0u);
  EXPECT_TRUE(pkt.VerifyChecksums());
}

TEST(PacketTest, AddrFormatting) {
  EXPECT_EQ(AddrToString(0x0a000001), "10.0.0.1");
  EXPECT_EQ(EndpointToString(Endpoint{0x0a000001, 2049}), "10.0.0.1:2049");
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(queue_, NetworkParams{}) {
    net_.Attach(kHostA, [this](Packet&& pkt) { a_inbox_.push_back(std::move(pkt)); });
    net_.Attach(kHostB, [this](Packet&& pkt) { b_inbox_.push_back(std::move(pkt)); });
  }

  EventQueue queue_;
  Network net_;
  std::vector<Packet> a_inbox_;
  std::vector<Packet> b_inbox_;
};

TEST_F(NetworkTest, DeliversPacket) {
  net_.Send(TestPacket());
  queue_.RunUntilIdle();
  ASSERT_EQ(b_inbox_.size(), 1u);
  EXPECT_TRUE(b_inbox_[0].VerifyChecksums());
  EXPECT_EQ(a_inbox_.size(), 0u);
}

TEST_F(NetworkTest, DeliveryTakesWireTime) {
  net_.Send(TestPacket(9000));
  queue_.RunUntilIdle();
  // 9028 bytes at 1Gb/s ≈ 72.2us serialization, twice (tx+rx), + 30us switch.
  const double expect_us = 2 * (9028.0 * 8 / 1e9 * 1e6) + 30.0;
  EXPECT_NEAR(static_cast<double>(queue_.now()) / 1000.0, expect_us, 5.0);
}

TEST_F(NetworkTest, UnknownDestinationDropped) {
  Bytes payload(10, 1);
  net_.Send(Packet::MakeUdp(Endpoint{kHostA, 1}, Endpoint{0x0afffffe, 2}, payload));
  queue_.RunUntilIdle();
  EXPECT_EQ(net_.packets_dropped(), 1u);
}

TEST_F(NetworkTest, LossInjectionDropsSome) {
  net_.set_loss_rate(0.5);
  for (int i = 0; i < 200; ++i) {
    net_.Send(TestPacket(10));
  }
  queue_.RunUntilIdle();
  EXPECT_GT(b_inbox_.size(), 50u);
  EXPECT_LT(b_inbox_.size(), 150u);
  EXPECT_EQ(b_inbox_.size() + net_.packets_dropped(), 200u);
}

TEST_F(NetworkTest, FailedHostReceivesNothing) {
  net_.SetHostFailed(kHostB, true);
  net_.Send(TestPacket());
  queue_.RunUntilIdle();
  EXPECT_EQ(b_inbox_.size(), 0u);

  net_.SetHostFailed(kHostB, false);
  net_.Send(TestPacket());
  queue_.RunUntilIdle();
  EXPECT_EQ(b_inbox_.size(), 1u);
}

TEST_F(NetworkTest, FailedHostSendsNothing) {
  net_.SetHostFailed(kHostA, true);
  net_.Send(TestPacket());
  queue_.RunUntilIdle();
  EXPECT_EQ(b_inbox_.size(), 0u);
}

// A tap that redirects outbound packets to a different destination and
// counts inbound ones — the skeleton of what the µproxy does.
class RedirectTap : public PacketTap {
 public:
  RedirectTap(Network& net, Endpoint target) : net_(net), target_(target) {}

  void HandleOutbound(Packet&& pkt) override {
    ++outbound_seen;
    pkt.RewriteDst(target_);
    net_.Inject(std::move(pkt));
  }
  void HandleInbound(Packet&& pkt) override {
    ++inbound_seen;
    net_.DeliverLocal(pkt.dst_addr(), std::move(pkt));
  }

  int outbound_seen = 0;
  int inbound_seen = 0;

 private:
  Network& net_;
  Endpoint target_;
};

TEST_F(NetworkTest, TapRedirectsTraffic) {
  constexpr NetAddr kHostC = 0x0a000003;
  std::vector<Packet> c_inbox;
  net_.Attach(kHostC, [&](Packet&& pkt) { c_inbox.push_back(std::move(pkt)); });

  RedirectTap tap(net_, Endpoint{kHostC, 9999});
  net_.InstallTap(kHostA, &tap);

  net_.Send(TestPacket());  // addressed to B, tap redirects to C
  queue_.RunUntilIdle();
  EXPECT_EQ(tap.outbound_seen, 1);
  EXPECT_EQ(b_inbox_.size(), 0u);
  ASSERT_EQ(c_inbox.size(), 1u);
  EXPECT_EQ(c_inbox[0].dst_port(), 9999);
  EXPECT_TRUE(c_inbox[0].VerifyChecksums());
}

TEST_F(NetworkTest, TapSeesInbound) {
  RedirectTap tap(net_, Endpoint{kHostB, 2049});
  net_.InstallTap(kHostB, &tap);
  net_.Send(TestPacket());
  queue_.RunUntilIdle();
  EXPECT_EQ(tap.inbound_seen, 1);
  ASSERT_EQ(b_inbox_.size(), 1u);  // tap passed it up
}

TEST_F(NetworkTest, SerializationQueuesBackToBackPackets) {
  for (int i = 0; i < 10; ++i) {
    net_.Send(TestPacket(9000));
  }
  queue_.RunUntilIdle();
  EXPECT_EQ(b_inbox_.size(), 10u);
  // 10 jumbo packets serialized at 1Gb/s: at least 10 * 72us of wire time.
  EXPECT_GT(queue_.now(), FromMicros(700));
}

TEST_F(NetworkTest, CountsBytes) {
  net_.Send(TestPacket(72));
  queue_.RunUntilIdle();
  EXPECT_EQ(net_.bytes_sent(), kPacketHeaderSize + 72);
  EXPECT_EQ(net_.packets_sent(), 1u);
}

// In-flight packets sit in the network's slot table and each stage is one
// ordinary event-queue event, so flights and other events share one order.
Packet PortPacket(NetAddr src, NetAddr dst, NetPort src_port) {
  Bytes payload(16, 0x5a);
  return Packet::MakeUdp(Endpoint{src, src_port}, Endpoint{dst, 2049}, payload);
}

TEST_F(NetworkTest, SameInstantFlightsAndEventsRunInScheduleOrder) {
  const SimTime at = FromMicros(50);
  size_t delivered_before_event = 99;
  net_.DeliverLocalAt(kHostB, PortPacket(kHostA, kHostB, 1), at);
  queue_.ScheduleAt(at, [&] { delivered_before_event = b_inbox_.size(); });
  net_.DeliverLocalAt(kHostB, PortPacket(kHostA, kHostB, 2), at);
  queue_.RunUntilIdle();
  EXPECT_EQ(queue_.now(), at);
  EXPECT_EQ(delivered_before_event, 1u);
  ASSERT_EQ(b_inbox_.size(), 2u);
  EXPECT_EQ(b_inbox_[0].src_port(), 1);
  EXPECT_EQ(b_inbox_[1].src_port(), 2);
}

// Issues one InjectAt, one DeliverLocalAt and one SendAt flight, all bound
// for host B and all guarded by `guard`.
void DeferAllKinds(Network& net, const std::shared_ptr<const bool>& guard) {
  const SimTime at = FromMicros(10);
  net.InjectAt(PortPacket(kHostA, kHostB, 1), at, guard);
  net.DeliverLocalAt(kHostB, PortPacket(kHostA, kHostB, 2), at, guard);
  net.SendAt(PortPacket(kHostA, kHostB, 3), at, guard);
}

TEST_F(NetworkTest, DeadGuardDropsDeferredFlightsSilently) {
  auto alive = std::make_shared<bool>(true);
  DeferAllKinds(net_, alive);
  *alive = false;  // the originator dies before the flights are due
  queue_.RunUntilIdle();
  EXPECT_TRUE(b_inbox_.empty());
  EXPECT_EQ(net_.packets_sent(), 0u);
  EXPECT_EQ(net_.packets_dropped(), 0u);
}

TEST_F(NetworkTest, LiveGuardDeliversDeferredFlights) {
  auto alive = std::make_shared<bool>(true);
  DeferAllKinds(net_, alive);
  queue_.RunUntilIdle();
  ASSERT_EQ(b_inbox_.size(), 3u);
  // The local delivery skips the wire; the other two cross it in issue order.
  EXPECT_EQ(b_inbox_[0].src_port(), 2);
  EXPECT_EQ(b_inbox_[1].src_port(), 1);
  EXPECT_EQ(b_inbox_[2].src_port(), 3);
  EXPECT_EQ(net_.packets_sent(), 2u);
}

// On each inbound packet, sends a burst of packets back to the sender.
class BurstTap : public PacketTap {
 public:
  BurstTap(Network& net, int burst) : net_(net), burst_(burst) {}

  void HandleOutbound(Packet&& pkt) override { net_.Inject(std::move(pkt)); }
  void HandleInbound(Packet&& pkt) override {
    for (int i = 0; i < burst_; ++i) {
      net_.Inject(PortPacket(pkt.dst_addr(), pkt.src_addr(), static_cast<NetPort>(i)));
    }
    net_.DeliverLocal(pkt.dst_addr(), std::move(pkt));
  }

 private:
  Network& net_;
  int burst_;
};

TEST_F(NetworkTest, TapBurstGrowsFlightTableMidDispatch) {
  constexpr int kBurst = 64;
  BurstTap tap(net_, kBurst);
  net_.InstallTap(kHostB, &tap);
  net_.Send(TestPacket());
  queue_.RunUntilIdle();
  ASSERT_EQ(b_inbox_.size(), 1u);
  ASSERT_EQ(a_inbox_.size(), static_cast<size_t>(kBurst));
  for (int i = 0; i < kBurst; ++i) {
    EXPECT_EQ(a_inbox_[i].src_port(), i) << "delivery " << i;
    EXPECT_TRUE(a_inbox_[i].VerifyChecksums());
  }
}

// Simulation digests hash executed(), so a delivered packet must stay
// exactly two events: arrival at the receiver's NIC, then delivery.
TEST_F(NetworkTest, DeliveredPacketCostsTwoEvents) {
  const uint64_t before = queue_.executed();
  net_.Send(TestPacket());
  queue_.RunUntilIdle();
  ASSERT_EQ(b_inbox_.size(), 1u);
  EXPECT_EQ(queue_.executed() - before, 2u);
}

}  // namespace
}  // namespace slice
