#include "net/mac.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "net/node.h"

namespace diknn {
namespace {

struct TestMessage : Message {
  int value = 0;
  explicit TestMessage(int v) : value(v) {}
};

class MacTest : public ::testing::Test {
 protected:
  void Build(const std::vector<Point>& positions, ChannelParams params = {}) {
    channel_ = std::make_unique<Channel>(&sim_, params, Rng(1));
    NodeParams node_params;
    for (size_t i = 0; i < positions.size(); ++i) {
      nodes_.push_back(std::make_unique<Node>(
          static_cast<NodeId>(i), &sim_, channel_.get(),
          std::make_unique<StaticMobility>(positions[i]), node_params,
          Rng(100 + i)));
      channel_->Attach(nodes_.back().get());
    }
  }

  // A frame from node 0 put straight on the air, bypassing its MAC, so a
  // test can replay a uid at will.
  void AirFrom0(SimTime at, NodeId dst, MessageType type, uint64_t uid) {
    sim_.ScheduleAt(at, [this, dst, type, uid] {
      Packet p;
      p.src = 0;
      p.dst = dst;
      p.type = type;
      p.size_bytes = 20;
      p.uid = uid;
      channel_->Transmit(nodes_[0].get(), p);
    });
  }

  // Airs unicast uid 7 to node 1, then `broadcasts` beacons, then uid 7
  // again, 10 ms apart (no collisions), and returns how often node 1's
  // protocol layer saw uid 7.
  int UnicastSeenAfterBroadcasts(int broadcasts) {
    Build({{0, 0}, {10, 0}});
    int seen = 0;
    nodes_[1]->RegisterHandler(MessageType::kGeoRouted,
                               [&seen](const Packet&) { ++seen; });
    AirFrom0(0.0, 1, MessageType::kGeoRouted, 7);
    for (int i = 1; i <= broadcasts; ++i) {
      AirFrom0(i * 0.01, kBroadcastId, MessageType::kBeacon, 1000 + i);
    }
    AirFrom0((broadcasts + 1) * 0.01, 1, MessageType::kGeoRouted, 7);
    sim_.Run();
    EXPECT_EQ(channel_->stats().receptions_collided, 0u);
    return seen;
  }

  Simulator sim_;
  std::unique_ptr<Channel> channel_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

TEST_F(MacTest, UnicastDeliversAndAcks) {
  Build({{0, 0}, {10, 0}});
  int received = 0;
  nodes_[1]->RegisterHandler(MessageType::kGeoRouted, [&](const Packet& p) {
    ++received;
    EXPECT_EQ(static_cast<const TestMessage*>(p.payload.get())->value, 42);
    EXPECT_EQ(p.src, 0);
  });
  bool callback_success = false;
  nodes_[0]->SendUnicast(1, MessageType::kGeoRouted,
                         std::make_shared<TestMessage>(42), 20,
                         EnergyCategory::kQuery,
                         [&](bool ok) { callback_success = ok; });
  sim_.Run();
  EXPECT_EQ(received, 1);
  EXPECT_TRUE(callback_success);
  EXPECT_EQ(nodes_[0]->mac().stats().retries, 0u);
}

TEST_F(MacTest, UnicastToUnreachableFailsAfterRetries) {
  Build({{0, 0}, {100, 0}});  // Out of range.
  bool callback_called = false, callback_success = true;
  nodes_[0]->SendUnicast(1, MessageType::kGeoRouted,
                         std::make_shared<TestMessage>(1), 20,
                         EnergyCategory::kQuery, [&](bool ok) {
                           callback_called = true;
                           callback_success = ok;
                         });
  sim_.Run();
  EXPECT_TRUE(callback_called);
  EXPECT_FALSE(callback_success);
  const MacStats& stats = nodes_[0]->mac().stats();
  EXPECT_EQ(stats.retries, 3u);  // max_frame_retries default.
  EXPECT_EQ(stats.tx_attempts, 4u);
  EXPECT_EQ(stats.send_failures, 1u);
}

TEST_F(MacTest, BroadcastNeedsNoAck) {
  Build({{0, 0}, {10, 0}, {15, 0}});
  int received = 0;
  for (int i = 1; i <= 2; ++i) {
    nodes_[i]->RegisterHandler(MessageType::kBeacon,
                               [&](const Packet&) { ++received; });
  }
  bool done = false;
  nodes_[0]->SendBroadcast(MessageType::kBeacon,
                           std::make_shared<TestMessage>(0), 20,
                           EnergyCategory::kBeacon,
                           [&](bool ok) { done = ok; });
  sim_.Run();
  EXPECT_EQ(received, 2);
  EXPECT_TRUE(done);
  EXPECT_EQ(nodes_[0]->mac().stats().tx_attempts, 1u);
}

TEST_F(MacTest, QueueSerializesFrames) {
  Build({{0, 0}, {10, 0}});
  std::vector<int> received;
  nodes_[1]->RegisterHandler(MessageType::kGeoRouted, [&](const Packet& p) {
    received.push_back(static_cast<const TestMessage*>(p.payload.get())->value);
  });
  for (int i = 0; i < 5; ++i) {
    nodes_[0]->SendUnicast(1, MessageType::kGeoRouted,
                           std::make_shared<TestMessage>(i), 20,
                           EnergyCategory::kQuery);
  }
  sim_.Run();
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(MacTest, UnicastNotDeliveredToProtocolOfBystander) {
  Build({{0, 0}, {10, 0}, {12, 0}});
  int bystander = 0;
  nodes_[2]->RegisterHandler(MessageType::kGeoRouted,
                             [&](const Packet&) { ++bystander; });
  nodes_[0]->SendUnicast(1, MessageType::kGeoRouted,
                         std::make_shared<TestMessage>(0), 20,
                         EnergyCategory::kQuery);
  sim_.Run();
  EXPECT_EQ(bystander, 0);  // Overheard frames are filtered by the MAC.
}

TEST_F(MacTest, DuplicateSuppression) {
  // Lossy channel forces retransmissions; the receiver must deliver each
  // logical frame to the protocol at most once.
  ChannelParams params;
  params.loss_rate = 0.4;
  Build({{0, 0}, {5, 0}}, params);
  int received = 0;
  nodes_[1]->RegisterHandler(MessageType::kGeoRouted,
                             [&](const Packet&) { ++received; });
  int sent = 0, acked = 0;
  for (int i = 0; i < 200; ++i) {
    sim_.ScheduleAt(i * 0.05, [&] {
      ++sent;
      nodes_[0]->SendUnicast(1, MessageType::kGeoRouted,
                             std::make_shared<TestMessage>(0), 20,
                             EnergyCategory::kQuery, [&](bool ok) {
                               if (ok) ++acked;
                             });
    });
  }
  sim_.Run();
  // Every frame the protocol saw was delivered exactly once, so the
  // receive count can never exceed the send count even though the MAC
  // retransmitted (duplicates_dropped > 0 shows dedup actually engaged).
  EXPECT_LE(received, sent);
  EXPECT_GE(received, acked);  // An acked frame was certainly delivered.
  EXPECT_GT(nodes_[0]->mac().stats().retries, 0u);
  EXPECT_GT(nodes_[1]->mac().stats().duplicates_dropped, 0u);
}

// The duplicate window spans the last Mac::kSeenWindow protocol
// deliveries, and beacons count towards it even though the MAC does not
// remember their uids.
TEST_F(MacTest, ReplayWithinWindowOfBroadcastsIsDropped) {
  EXPECT_EQ(UnicastSeenAfterBroadcasts(Mac::kSeenWindow - 1), 1);
  EXPECT_EQ(nodes_[1]->mac().stats().duplicates_dropped, 1u);
}

TEST_F(MacTest, ReplayPastWindowOfBroadcastsIsDelivered) {
  EXPECT_EQ(UnicastSeenAfterBroadcasts(Mac::kSeenWindow), 2);
  EXPECT_EQ(nodes_[1]->mac().stats().duplicates_dropped, 0u);
}

TEST_F(MacTest, DupFaultedBroadcastReachesProtocolOnce) {
  Build({{0, 0}, {10, 0}});
  channel_->set_fault_hook([](const Packet& p, NodeId) {
    Channel::FrameFault fault;
    fault.duplicate = p.IsBroadcast();
    return fault;
  });
  int received = 0;
  nodes_[1]->RegisterHandler(MessageType::kBeacon,
                             [&](const Packet&) { ++received; });
  nodes_[0]->SendBroadcast(MessageType::kBeacon,
                           std::make_shared<TestMessage>(0), 20,
                           EnergyCategory::kBeacon);
  sim_.Run();
  EXPECT_EQ(channel_->stats().frames_sent, 2u);  // Original + replay.
  EXPECT_EQ(channel_->stats().receptions_delivered, 2u);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(nodes_[1]->mac().stats().duplicates_dropped, 1u);
}

// Once the duplicate cache has grown to its high-water mark, storing and
// ageing out uids allocates nothing.
TEST_F(MacTest, DuplicateCacheAllocationFreeOnceWarm) {
  ChannelParams params;
  params.loss_rate = 0.3;  // Forces retransmissions, hence duplicates.
  Build({{0, 0}, {5, 0}}, params);
  nodes_[1]->RegisterHandler(MessageType::kGeoRouted, [](const Packet&) {});
  nodes_[1]->RegisterHandler(MessageType::kBeacon, [](const Packet&) {});
  // Each round: one unicast and three beacons, 40 ms apart.
  const auto rounds = [&](int first, int count) {
    for (int i = first; i < first + count; ++i) {
      sim_.ScheduleAt(i * 0.04, [this] {
        nodes_[0]->SendUnicast(1, MessageType::kGeoRouted,
                               std::make_shared<TestMessage>(0), 20,
                               EnergyCategory::kQuery);
        for (int b = 0; b < 3; ++b) {
          nodes_[0]->SendBroadcast(MessageType::kBeacon,
                                   std::make_shared<TestMessage>(0), 20,
                                   EnergyCategory::kBeacon);
        }
      });
    }
    sim_.Run();
  };
  rounds(0, 400);
  const uint64_t warm_dropped = nodes_[1]->mac().stats().duplicates_dropped;
  const uint64_t warm_delivered = channel_->stats().receptions_delivered;
  const uint64_t warm_allocs = channel_->net_allocs().allocations;
  rounds(400, 400);
  // The second half cycled the window several times and dropped
  // duplicates, without a single packet-plane allocation.
  EXPECT_GT(nodes_[1]->mac().stats().duplicates_dropped, warm_dropped);
  EXPECT_GT(channel_->stats().receptions_delivered - warm_delivered,
            4 * Mac::kSeenWindow);
  EXPECT_EQ(channel_->net_allocs().allocations, warm_allocs);
}

TEST_F(MacTest, CsmaDefersWhileChannelBusy) {
  Build({{0, 0}, {10, 0}, {5, 5}});
  // A foreign transmission occupies the channel for 16 ms — longer than
  // any single backoff draw, short enough that the CSMA retry budget can
  // outlast it.
  Packet big;
  big.type = MessageType::kBeacon;
  big.size_bytes = 500;  // 16 ms on air.
  big.uid = 77;
  channel_->Transmit(nodes_[2].get(), big);

  double delivered_at = -1;
  nodes_[1]->RegisterHandler(MessageType::kGeoRouted, [&](const Packet&) {
    delivered_at = sim_.Now();
  });
  nodes_[0]->SendUnicast(1, MessageType::kGeoRouted,
                         std::make_shared<TestMessage>(0), 20,
                         EnergyCategory::kQuery);
  sim_.Run();
  // The frame could not start until the 16 ms blocker ended.
  EXPECT_GT(delivered_at, 0.016);
}

TEST_F(MacTest, DeadNodeDoesNotSend) {
  Build({{0, 0}, {10, 0}});
  nodes_[0]->set_alive(false);
  bool callback_success = true;
  nodes_[0]->SendUnicast(1, MessageType::kGeoRouted,
                         std::make_shared<TestMessage>(0), 20,
                         EnergyCategory::kQuery,
                         [&](bool ok) { callback_success = ok; });
  sim_.Run();
  EXPECT_FALSE(callback_success);
  EXPECT_EQ(channel_->stats().frames_sent, 0u);
}

TEST_F(MacTest, MacHeaderAddedToWireSize) {
  Build({{0, 0}, {10, 0}});
  double delivered_at = -1;
  nodes_[1]->RegisterHandler(MessageType::kGeoRouted, [&](const Packet& p) {
    delivered_at = sim_.Now();
    EXPECT_EQ(p.size_bytes, 20 + kMacHeaderBytes);
  });
  nodes_[0]->SendUnicast(1, MessageType::kGeoRouted,
                         std::make_shared<TestMessage>(0), 20,
                         EnergyCategory::kQuery);
  sim_.Run();
  EXPECT_GT(delivered_at, 0.0);
}

}  // namespace
}  // namespace diknn
