#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "cluster/faults.hpp"
#include "common/error.hpp"

namespace qsv {
namespace {

std::vector<std::byte> payload(std::initializer_list<int> vals) {
  std::vector<std::byte> p;
  for (int v : vals) {
    p.push_back(static_cast<std::byte>(v));
  }
  return p;
}

TEST(Cluster, RequiresPowerOfTwoRanks) {
  EXPECT_NO_THROW(VirtualCluster(1, 1024));
  EXPECT_NO_THROW(VirtualCluster(64, 1024));
  EXPECT_THROW(VirtualCluster(3, 1024), Error);
  EXPECT_THROW(VirtualCluster(0, 1024), Error);
}

TEST(Cluster, SendRecvDeliversInOrder) {
  VirtualCluster c(4, 1024);
  c.send(0, 1, payload({1, 2, 3}));
  c.send(0, 1, payload({9}));
  std::vector<std::byte> a(3);
  std::vector<std::byte> b(1);
  c.recv(0, 1, a);
  c.recv(0, 1, b);
  EXPECT_EQ(a, payload({1, 2, 3}));
  EXPECT_EQ(b, payload({9}));
  EXPECT_TRUE(c.quiescent());
}

TEST(Cluster, QueuesArePerDirectedPair) {
  VirtualCluster c(4, 1024);
  c.send(0, 1, payload({1}));
  c.send(1, 0, payload({2}));
  EXPECT_EQ(c.pending(0, 1), 1u);
  EXPECT_EQ(c.pending(1, 0), 1u);
  EXPECT_EQ(c.pending(2, 3), 0u);
  std::vector<std::byte> buf(1);
  c.recv(1, 0, buf);
  EXPECT_EQ(buf, payload({2}));
  c.recv(0, 1, buf);
  EXPECT_EQ(buf, payload({1}));
}

TEST(Cluster, EnforcesMessageCap) {
  VirtualCluster c(2, 16);
  std::vector<std::byte> big(17);
  EXPECT_THROW(c.send(0, 1, big), Error);
  std::vector<std::byte> ok(16);
  EXPECT_NO_THROW(c.send(0, 1, ok));
}

TEST(Cluster, RejectsBadRanksAndSelfSend) {
  VirtualCluster c(2, 1024);
  std::vector<std::byte> p(1);
  EXPECT_THROW(c.send(0, 2, p), Error);
  EXPECT_THROW(c.send(-1, 0, p), Error);
  EXPECT_THROW(c.send(0, 0, p), Error);
}

TEST(Cluster, RecvWithoutMessageThrows) {
  VirtualCluster c(2, 1024);
  std::vector<std::byte> buf(1);
  EXPECT_THROW(c.recv(0, 1, buf), Error);
}

TEST(Cluster, RecvSizeMustMatch) {
  VirtualCluster c(2, 1024);
  c.send(0, 1, payload({1, 2}));
  std::vector<std::byte> small(1);
  EXPECT_THROW(c.recv(0, 1, small), Error);
}

TEST(Cluster, StatsTrackTraffic) {
  VirtualCluster c(4, 1024);
  c.send(0, 1, payload({1, 2, 3}));
  c.send(1, 0, payload({4, 5}));
  std::vector<std::byte> b3(3);
  std::vector<std::byte> b2(2);
  c.recv(0, 1, b3);
  c.recv(1, 0, b2);

  const CommStats& s = c.stats();
  EXPECT_EQ(s.messages, 2u);
  EXPECT_EQ(s.bytes, 5u);
  EXPECT_EQ(s.max_message_bytes, 3u);
  EXPECT_EQ(s.max_in_flight, 2u);

  c.reset_stats();
  EXPECT_EQ(c.stats().messages, 0u);
}

TEST(Cluster, MaxInFlightSeesQueueDepth) {
  VirtualCluster c(2, 1024);
  for (int i = 0; i < 5; ++i) {
    c.send(0, 1, payload({i}));
  }
  std::vector<std::byte> b(1);
  for (int i = 0; i < 5; ++i) {
    c.recv(0, 1, b);
  }
  EXPECT_EQ(c.stats().max_in_flight, 5u);
  EXPECT_TRUE(c.quiescent());
}

TEST(Cluster, ErrorMessagesCarryBothRanksDepthAndCap) {
  VirtualCluster c(4, 16);

  // Oversized send: names both ranks, the payload size and the cap.
  try {
    c.send(0, 1, std::vector<std::byte>(17));
    FAIL() << "expected cap error";
  } catch (const Error& e) {
    const std::string w = e.what();
    EXPECT_NE(w.find("0 -> 1"), std::string::npos);
    EXPECT_NE(w.find("17"), std::string::npos);
    EXPECT_NE(w.find("16"), std::string::npos);
  }

  // Empty-queue recv: names the pair, the (zero) queue depth and the cap.
  try {
    std::vector<std::byte> buf(1);
    c.recv(2, 3, buf);
    FAIL() << "expected timeout error";
  } catch (const Error& e) {
    const std::string w = e.what();
    EXPECT_NE(w.find("2 -> 3"), std::string::npos);
    EXPECT_NE(w.find("queue depth 0"), std::string::npos);
    EXPECT_NE(w.find("16"), std::string::npos);
  }

  // Size-mismatch recv: names both sizes and the live queue depth.
  c.send(0, 1, payload({1, 2}));
  c.send(0, 1, payload({3}));
  try {
    std::vector<std::byte> small(1);
    c.recv(0, 1, small);
    FAIL() << "expected size mismatch";
  } catch (const Error& e) {
    const std::string w = e.what();
    EXPECT_NE(w.find("0 -> 1"), std::string::npos);
    EXPECT_NE(w.find("queue depth 2"), std::string::npos);
    EXPECT_NE(w.find("1 bytes"), std::string::npos);
    EXPECT_NE(w.find("2 bytes"), std::string::npos);
  }
}

TEST(Cluster, PurgePairClearsBothDirections) {
  VirtualCluster c(4, 1024);
  c.send(0, 1, payload({1}));
  c.send(1, 0, payload({2}));
  c.send(2, 3, payload({3}));
  c.purge_pair(0, 1);
  EXPECT_EQ(c.pending(0, 1), 0u);
  EXPECT_EQ(c.pending(1, 0), 0u);
  EXPECT_EQ(c.pending(2, 3), 1u);  // unrelated pairs untouched
  std::vector<std::byte> buf(1);
  c.recv(2, 3, buf);
  EXPECT_TRUE(c.quiescent());
}

TEST(Cluster, ResetQueuesRestoresQuiescence) {
  VirtualCluster c(4, 1024);
  c.send(0, 1, payload({1}));
  c.send(2, 3, payload({2}));
  EXPECT_FALSE(c.quiescent());
  c.reset_queues();
  EXPECT_TRUE(c.quiescent());
  EXPECT_EQ(c.pending(0, 1), 0u);
  std::vector<std::byte> buf(1);
  EXPECT_THROW(c.recv(0, 1, buf), Error);
}

TEST(Cluster, MessageCount) {
  EXPECT_EQ(message_count(0, 100), 0);
  EXPECT_EQ(message_count(100, 100), 1);
  EXPECT_EQ(message_count(101, 100), 2);
  // The paper's case: a 64 GiB slice under a 2 GiB cap = 32 messages.
  EXPECT_EQ(message_count(64ull << 30, 2ull << 30), 32);
}

TEST(Cluster, CleanDeliveriesAreCountedAsVerified) {
  VirtualCluster c(2, 1024);
  c.send(0, 1, payload({1, 2, 3}));
  std::vector<std::byte> b(3);
  c.recv(0, 1, b);
  EXPECT_EQ(c.stats().delivered, 1u);
  EXPECT_EQ(c.stats().checksum_failures, 0u);
}

TEST(Cluster, CorruptedPayloadFailsItsChecksumAtTheReceiver) {
  FaultInjector inj(parse_fault_plan("corrupt@1"));
  VirtualCluster c(2, 1024);
  c.set_fault_injector(&inj);
  c.send(0, 1, payload({1, 2, 3, 4}));
  std::vector<std::byte> b(4);
  try {
    c.recv(0, 1, b);
    FAIL() << "expected CommCorrupt";
  } catch (const CommCorrupt& e) {
    const std::string w = e.what();
    EXPECT_NE(w.find("0 -> 1"), std::string::npos);
    EXPECT_NE(w.find("CRC-32 mismatch"), std::string::npos);
  }
  EXPECT_EQ(c.stats().checksum_failures, 1u);
  EXPECT_EQ(c.stats().delivered, 0u);
  EXPECT_EQ(inj.totals().corrupted, 1u);
}

TEST(Cluster, InjectedCorruptionCanNeverPassTheChecksum) {
  // Regression for the oracle removal: the receiver consults no injector
  // state, so the only way a corrupted payload could be delivered is a
  // CRC-32 collision — impossible for the injector's single-bit flips.
  // A corrupted-but-checksum-clean delivery cannot be constructed through
  // the public API.
  FaultPlan plan;
  plan.corrupt_prob = 1.0;  // every message is corrupted in flight
  FaultInjector inj(plan);
  VirtualCluster c(2, 1024);
  c.set_fault_injector(&inj);
  for (int i = 0; i < 32; ++i) {
    c.send(0, 1, payload({i, i + 1, 7 * i}));
    std::vector<std::byte> b(3);
    EXPECT_THROW(c.recv(0, 1, b), CommCorrupt);
  }
  EXPECT_EQ(c.stats().checksum_failures, 32u);
  EXPECT_EQ(c.stats().delivered, 0u);
  EXPECT_EQ(inj.totals().corrupted, 32u);
}

TEST(Cluster, WatchdogDeadlineIsConfigurableAndNamedInTheTimeout) {
  EXPECT_THROW(VirtualCluster(2, 1024, 0.0), Error);
  EXPECT_THROW(VirtualCluster(2, 1024, -1.0), Error);

  VirtualCluster c(2, 1024, 0.25);
  EXPECT_DOUBLE_EQ(c.recv_deadline_s(), 0.25);
  try {
    std::vector<std::byte> b(1);
    c.recv(0, 1, b);
    FAIL() << "expected CommTimeout";
  } catch (const CommTimeout& e) {
    const std::string w = e.what();
    EXPECT_NE(w.find("watchdog deadline"), std::string::npos);
    EXPECT_NE(w.find("0.25"), std::string::npos);
  }
}

TEST(Cluster, PurgePairDropsInFlightMessagesInBothDirections) {
  // Regression: a failed rank can leave an unconsumed message it *sent*
  // (the reverse direction of the pair) queued, not just messages sent to
  // it. purge_pair must clear both directions or the substituted rank's
  // next exchange receives a stale slice.
  VirtualCluster c(2, 1024);
  c.send(0, 1, payload({1, 2, 3}));
  c.send(1, 0, payload({4, 5, 6}));
  ASSERT_EQ(c.pending(0, 1), 1u);
  ASSERT_EQ(c.pending(1, 0), 1u);
  EXPECT_FALSE(c.quiescent());

  c.purge_pair(0, 1);
  EXPECT_EQ(c.pending(0, 1), 0u);
  EXPECT_EQ(c.pending(1, 0), 0u);
  EXPECT_TRUE(c.quiescent());
}

TEST(Cluster, PurgeRankClearsEveryQueueTouchingTheRankAndNoOthers) {
  VirtualCluster c(4, 1024);
  c.send(0, 1, payload({1}));
  c.send(1, 2, payload({2}));
  c.send(2, 3, payload({3}));

  c.purge_rank(1);
  EXPECT_EQ(c.pending(0, 1), 0u);
  EXPECT_EQ(c.pending(1, 2), 0u);
  EXPECT_EQ(c.pending(2, 3), 1u);

  std::vector<std::byte> b(1);
  c.recv(2, 3, b);  // the unrelated queue still delivers
  EXPECT_TRUE(c.quiescent());
}

TEST(Cluster, ShrinkToHalvesTheClusterAndPreservesStats) {
  VirtualCluster c(4, 1024);
  c.send(0, 1, payload({1, 2}));
  std::vector<std::byte> b(2);
  c.recv(0, 1, b);
  const CommStats before = c.stats();
  ASSERT_GT(before.messages, 0u);

  c.shrink_to(2);
  EXPECT_EQ(c.num_ranks(), 2);
  // The lifetime traffic record survives the re-shard.
  EXPECT_EQ(c.stats(), before);
}

TEST(Cluster, ShrinkToRejectsBadWidthsAndBusyClusters) {
  VirtualCluster c(4, 1024);
  EXPECT_THROW(c.shrink_to(0), Error);
  EXPECT_THROW(c.shrink_to(3), Error);   // not a power of two
  EXPECT_THROW(c.shrink_to(4), Error);   // not a reduction
  EXPECT_THROW(c.shrink_to(8), Error);

  c.send(0, 1, payload({9}));
  EXPECT_THROW(c.shrink_to(2), Error);   // in-flight message: not quiescent
  std::vector<std::byte> b(1);
  c.recv(0, 1, b);
  c.shrink_to(2);                        // quiescent again: allowed
  EXPECT_EQ(c.num_ranks(), 2);
}

TEST(Cluster, PolicyNames) {
  EXPECT_STREQ(comm_policy_name(CommPolicy::kBlocking), "blocking");
  EXPECT_STREQ(comm_policy_name(CommPolicy::kNonBlocking), "non-blocking");
}

}  // namespace
}  // namespace qsv
