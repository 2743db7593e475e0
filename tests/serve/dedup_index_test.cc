/// \file dedup_index_test.cc
/// \brief The exactly-once index the router's mutation log and the direct
/// server share: recording, eviction, reset, and the delivery verdict.
#include "serve/dedup_index.h"

#include <gtest/gtest.h>

namespace abp::serve {
namespace {

WriteAck ack_at(std::uint64_t version) {
  return {version,
          {{1.0 * version, 2.0}},
          {static_cast<std::uint32_t>(version)}};
}

TEST(DedupIndex, RecordRefusesIdZeroAndAKnownId) {
  DedupIndex index;
  EXPECT_FALSE(index.record(0, ack_at(1))) << "id 0 means no id";
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.find(0), nullptr);

  EXPECT_TRUE(index.record(7, ack_at(2)));
  EXPECT_FALSE(index.record(7, ack_at(3)));
  ASSERT_NE(index.find(7), nullptr);
  EXPECT_EQ(index.find(7)->version, 2u) << "the first ack stays";
  EXPECT_EQ(index.find(7)->positions, ack_at(2).positions);
  EXPECT_EQ(index.find(7)->beacon_ids, ack_at(2).beacon_ids);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.find(8), nullptr);
  EXPECT_TRUE(index.complete()) << "refusals forget nothing";
}

TEST(DedupIndex, EvictOldestGoesByInsertionAndLeavesTheIndexIncomplete) {
  DedupIndex index;
  index.record(30, ack_at(1));
  index.record(10, ack_at(2));
  index.record(20, ack_at(3));
  index.evict_oldest();
  EXPECT_EQ(index.find(30), nullptr) << "oldest recorded, not lowest id";
  EXPECT_NE(index.find(10), nullptr);
  EXPECT_NE(index.find(20), nullptr);
  EXPECT_EQ(index.size(), 2u);
  EXPECT_FALSE(index.complete());

  // Incomplete for good: new records and emptying the index change nothing.
  index.record(40, ack_at(4));
  EXPECT_FALSE(index.complete());
  index.evict_oldest();
  index.evict_oldest();
  index.evict_oldest();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.complete());
  index.evict_oldest();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.complete());
}

TEST(DedupIndex, ResetForgetsEveryIdAndSetsCompleteness) {
  DedupIndex index;
  index.record(1, ack_at(1));
  index.record(2, ack_at(2));
  index.reset(false);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.find(1), nullptr);
  EXPECT_EQ(index.find(2), nullptr);
  EXPECT_FALSE(index.complete());

  index.record(3, ack_at(3));
  index.reset(true);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.find(3), nullptr);
  EXPECT_TRUE(index.complete()) << "reset(true) restores completeness";
  EXPECT_TRUE(index.record(1, ack_at(4))) << "forgotten ids record afresh";
}

TEST(DedupIndex, VerdictTruthTable) {
  using Verdict = DedupIndex::Verdict;
  constexpr std::uint64_t kRemembered = 5;
  constexpr std::uint64_t kUnknown = 9;
  for (const bool complete : {true, false}) {
    DedupIndex index;
    if (!complete) {
      index.record(4, ack_at(1));
      index.evict_oldest();
    }
    index.record(kRemembered, ack_at(2));
    ASSERT_EQ(index.complete(), complete);
    for (const std::uint32_t attempt : {0u, 1u, 7u}) {
      SCOPED_TRACE(testing::Message() << "complete " << complete
                                      << " attempt " << attempt);
      EXPECT_EQ(index.verdict(kRemembered, attempt), Verdict::kDuplicate);
      const Verdict unknown =
          attempt > 0 && !complete ? Verdict::kExpired : Verdict::kFresh;
      EXPECT_EQ(index.verdict(kUnknown, attempt), unknown);
      EXPECT_EQ(index.verdict(0, attempt), Verdict::kFresh)
          << "an id-free write is never a duplicate nor expired";
    }
  }
}

TEST(DedupIndex, ExpiredMessageNamesTheDeployment) {
  // These bytes reach clients of both the router and a direct server.
  EXPECT_EQ(DedupIndex::expired_message("north"),
            "request id unknown and the dedup window for 'north' has rolled "
            "over; verify the write and mint a fresh id");
}

}  // namespace
}  // namespace abp::serve
