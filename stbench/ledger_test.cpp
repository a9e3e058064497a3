// Unit tests of the benchmark's arithmetic (ledger.hpp). run.py builds and
// runs this before every benchmark run, so a broken rule fails the run.
#include "ledger.hpp"

#include <gtest/gtest.h>

using namespace stbench;

namespace {

ClientRecord finished(double connect, double end, std::vector<double> rounds) {
    return {connect, true, true, end, std::move(rounds)};
}

ClientRecord stuck(double connect, std::vector<double> rounds) {
    return {connect, true, false, 0, std::move(rounds)};
}

} // namespace

TEST(TailRule, HighestLevelLeavingTenSamplesBeyond) {
    EXPECT_EQ(tail_level(80000, 99.0), 99.0);
    EXPECT_EQ(tail_level(1000, 99.0), 99.0);  // ranks 991..1000 lie beyond
    EXPECT_EQ(tail_level(999, 99.0), 98.0);
    EXPECT_EQ(tail_level(500, 99.0), 98.0);
    EXPECT_EQ(tail_level(100, 99.0), 90.0);
    EXPECT_EQ(tail_level(500, 98.0), 98.0);
    EXPECT_EQ(tail_level(400, 98.0), 95.0);  // rank 392 leaves 8 beyond
}

TEST(TailRule, FallsBackToTheMedianOnSmallSamples) {
    EXPECT_EQ(tail_level(40, 99.0), 75.0);
    EXPECT_EQ(tail_level(39, 99.0), 50.0);
    EXPECT_EQ(tail_level(10, 99.0), 50.0);
    EXPECT_EQ(tail_level(1, 99.0), 50.0);
    EXPECT_EQ(tail_level(0, 99.0), 50.0);
}

TEST(Percentile, NearestRank) {
    std::vector<double> v;
    for (int i = 100; i >= 1; --i) v.push_back(i);
    EXPECT_EQ(percentile(v, 50), 50);
    EXPECT_EQ(percentile(v, 99), 99);
    EXPECT_EQ(percentile(v, 100), 100);
    EXPECT_EQ(percentile({7.0}, 99), 7.0);
    EXPECT_EQ(percentile({}, 50), 0.0);
}

TEST(Median, MatchesStatisticsMedian) {
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0);
}

TEST(Ratios, ZeroBaseReadsZero) {
    EXPECT_EQ(ratio(3, 4), 0.75);
    EXPECT_EQ(ratio(3, 0), 0.0);
    EXPECT_DOUBLE_EQ(share_saved(1.5, 2.0), 0.25);
    EXPECT_EQ(share_saved(1.0, 0.0), 0.0);
}

TEST(RoundCompletions, FinishedCountsBackFromLastByte) {
    auto at = round_completions(finished(1.0, 2.0, {0.25, 0.5, 0.25}));
    ASSERT_EQ(at.size(), 3u);
    EXPECT_DOUBLE_EQ(at[0], 1.25);
    EXPECT_DOUBLE_EQ(at[1], 1.75);
    EXPECT_DOUBLE_EQ(at[2], 2.0);
}

TEST(RoundCompletions, UnfinishedCountsForwardFromConnect) {
    auto at = round_completions(stuck(1.0, {0.5, 0.5}));
    ASSERT_EQ(at.size(), 2u);
    EXPECT_DOUBLE_EQ(at[0], 1.5);
    EXPECT_DOUBLE_EQ(at[1], 2.0);
}

TEST(RoundLedger, CensorsUnfinishedRoundsAtTheDeadline) {
    // Client 0 completes both rounds; client 1 completes one round and is
    // stuck on the second since t = 2.0; client 2 never started.
    std::vector<ClientRecord> clients = {finished(0.0, 1.0, {0.4, 0.6}), stuck(1.0, {1.0}),
                                         ClientRecord{}};
    RoundLedger l = round_ledger(clients, 2, 10.0);
    EXPECT_EQ(l.attempted, 6u);
    EXPECT_EQ(l.completed, 3u);
    EXPECT_EQ(l.failed(), 3u);
    EXPECT_DOUBLE_EQ(l.failed_share(), 0.5);
    EXPECT_DOUBLE_EQ(l.completed_share(), 0.5);
    std::vector<double> want = {0.4, 0.6, 1.0, 8.0, 0.0, 0.0};
    ASSERT_EQ(l.latency_s.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) EXPECT_DOUBLE_EQ(l.latency_s[i], want[i]);
}

TEST(RoundLedger, QueuedRoundsWaitSinceTheStuckOne) {
    RoundLedger l = round_ledger({stuck(2.0, {})}, 3, 5.0);
    EXPECT_EQ(l.failed(), 3u);
    for (double s : l.latency_s) EXPECT_DOUBLE_EQ(s, 3.0);
    EXPECT_EQ(percentile(l.latency_s, tail_level(l.latency_s.size(), 99)), 3.0);
}

TEST(RoundLedger, AllCompletedHasNoFailures) {
    RoundLedger l = round_ledger({finished(0.0, 0.3, {0.1, 0.2})}, 2, 1.0);
    EXPECT_EQ(l.failed(), 0u);
    EXPECT_EQ(l.failed_share(), 0.0);
    EXPECT_EQ(l.completed_share(), 1.0);
}

TEST(CrashStalls, FirstCompletionAfterTheCrash) {
    std::vector<ClientRecord> clients = {
        finished(0.0, 3.0, {1.0, 1.5, 0.5}),  // completions 1.0, 2.5, 3.0
        finished(0.0, 1.0, {1.0}),            // done before the crash: idle
        stuck(0.0, {1.0}),                    // never completes again
        finished(2.5, 3.0, {0.5}),            // connected after the crash
    };
    auto stalls = crash_stalls(clients, 2.0, 10.0);
    ASSERT_EQ(stalls.size(), 2u);
    EXPECT_DOUBLE_EQ(stalls[0], 0.5);
    EXPECT_DOUBLE_EQ(stalls[1], 8.0);
}

TEST(CompletionSpan, FirstConnectToLastVerifiedByte) {
    std::vector<ClientRecord> clients = {finished(0.5, 3.0, {2.5}), stuck(0.25, {1.0}),
                                         ClientRecord{}};
    EXPECT_DOUBLE_EQ(completion_span(clients), 2.75);
    EXPECT_EQ(completion_span({}), 0.0);
}
