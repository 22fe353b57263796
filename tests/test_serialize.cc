/**
 * @file
 * Unit tests for profile/matching serialization.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "io/serialize.hh"
#include "util/error.hh"

namespace cooper {
namespace {

TEST(Serialize, ProfilesRoundTrip)
{
    SparseMatrix m(4, 5);
    m.set(0, 0, 0.125);
    m.set(1, 3, -0.01);
    m.set(3, 4, 0.3333333333333333);

    std::stringstream buffer;
    writeProfiles(buffer, m);
    const SparseMatrix back = readProfiles(buffer);

    EXPECT_EQ(back.rows(), 4u);
    EXPECT_EQ(back.cols(), 5u);
    EXPECT_EQ(back.knownCount(), 3u);
    EXPECT_DOUBLE_EQ(back.at(0, 0), 0.125);
    EXPECT_DOUBLE_EQ(back.at(1, 3), -0.01);
    EXPECT_DOUBLE_EQ(back.at(3, 4), 0.3333333333333333);
    EXPECT_FALSE(back.known(2, 2));
}

TEST(Serialize, EmptyProfilesRoundTrip)
{
    SparseMatrix m(2, 2);
    std::stringstream buffer;
    writeProfiles(buffer, m);
    const SparseMatrix back = readProfiles(buffer);
    EXPECT_EQ(back.knownCount(), 0u);
}

TEST(Serialize, MatchingRoundTrip)
{
    Matching m(6);
    m.pair(0, 5);
    m.pair(2, 3);

    std::stringstream buffer;
    writeMatching(buffer, m);
    const Matching back = readMatching(buffer);

    EXPECT_EQ(back.size(), 6u);
    EXPECT_EQ(back.partnerOf(0), 5u);
    EXPECT_EQ(back.partnerOf(3), 2u);
    EXPECT_FALSE(back.isMatched(1));
    EXPECT_FALSE(back.isMatched(4));
}

TEST(Serialize, RejectsWrongHeader)
{
    std::stringstream buffer("cooper-matching 1 4\n0 1\n");
    EXPECT_THROW(readProfiles(buffer), FatalError);
    std::stringstream buffer2("cooper-profiles 1 2 2\n");
    EXPECT_THROW(readMatching(buffer2), FatalError);
}

TEST(Serialize, RejectsUnsupportedVersion)
{
    std::stringstream buffer("cooper-profiles 99 2 2\n");
    EXPECT_THROW(readProfiles(buffer), FatalError);
}

TEST(Serialize, RejectsMalformedCells)
{
    std::stringstream garbage("cooper-profiles 1 2 2\n0 zero 0.5\n");
    EXPECT_THROW(readProfiles(garbage), FatalError);
    std::stringstream outside("cooper-profiles 1 2 2\n5 0 0.5\n");
    EXPECT_THROW(readProfiles(outside), FatalError);
}

TEST(Serialize, RejectsCorruptMatching)
{
    std::stringstream repeated("cooper-matching 1 4\n0 1\n1 2\n");
    EXPECT_THROW(readMatching(repeated), FatalError);
    std::stringstream outside("cooper-matching 1 2\n0 7\n");
    EXPECT_THROW(readMatching(outside), FatalError);
    std::stringstream empty("");
    EXPECT_THROW(readMatching(empty), FatalError);
}

TEST(Serialize, FileRoundTrip)
{
    const std::string profile_path = "/tmp/cooper_test_profiles.txt";
    const std::string matching_path = "/tmp/cooper_test_matching.txt";

    SparseMatrix m(3, 3);
    m.set(1, 2, 0.07);
    saveProfiles(profile_path, m);
    const SparseMatrix mp = loadProfiles(profile_path);
    EXPECT_DOUBLE_EQ(mp.at(1, 2), 0.07);

    Matching match(4);
    match.pair(1, 2);
    saveMatching(matching_path, match);
    const Matching mm = loadMatching(matching_path);
    EXPECT_EQ(mm.partnerOf(1), 2u);

    std::remove(profile_path.c_str());
    std::remove(matching_path.c_str());
}

OnlineState
sampleOnlineState()
{
    OnlineState state;
    state.seed = 42;
    state.epoch = 3;
    state.clockTick = 300;
    state.live = {{1, 0}, {2, 4}, {5, 2}};
    state.pairs = {{1, 5}};
    state.pending = {{7, 1, 250}, {8, 3, 260}};
    state.rejected = 2;
    state.queueHighWater = 5;
    state.totals.arrivals = 9;
    state.totals.departures = 4;
    state.totals.admitted = 6;
    state.totals.probes = 21;
    state.totals.migrations = 8;
    state.totals.pairsBroken = 3;
    state.totals.fullRematch = 1;
    state.lastMeanPenalty = 0.03125;
    SparseMatrix ratings(6, 6);
    ratings.set(0, 0, 0.125);
    ratings.set(2, 4, -0.01);
    ratings.set(4, 2, 0.3333333333333333);
    state.ratings = ratings;
    return state;
}

TEST(Serialize, OnlineStateRoundTrip)
{
    const OnlineState state = sampleOnlineState();
    std::stringstream buffer;
    writeOnlineState(buffer, state);
    const OnlineState back = readOnlineState(buffer);

    EXPECT_EQ(back.seed, 42u);
    EXPECT_EQ(back.epoch, 3u);
    EXPECT_EQ(back.clockTick, 300u);
    ASSERT_EQ(back.live.size(), 3u);
    EXPECT_EQ(back.live[1].uid, 2u);
    EXPECT_EQ(back.live[1].type, 4u);
    ASSERT_EQ(back.pairs.size(), 1u);
    EXPECT_EQ(back.pairs[0].first, 1u);
    EXPECT_EQ(back.pairs[0].second, 5u);
    ASSERT_EQ(back.pending.size(), 2u);
    EXPECT_EQ(back.pending[1].uid, 8u);
    EXPECT_EQ(back.pending[1].arrivalTick, 260u);
    EXPECT_EQ(back.rejected, 2u);
    EXPECT_EQ(back.queueHighWater, 5u);
    EXPECT_EQ(back.totals.probes, 21u);
    EXPECT_EQ(back.totals.fullRematch, 1u);
    EXPECT_DOUBLE_EQ(back.lastMeanPenalty, 0.03125);
    EXPECT_EQ(back.ratings.rows(), 6u);
    EXPECT_EQ(back.ratings.knownCount(), 3u);
    EXPECT_DOUBLE_EQ(back.ratings.at(4, 2), 0.3333333333333333);

    // The round trip must be byte-stable, not just value-stable: a
    // checkpoint written from a restored state is the same file.
    std::stringstream first, second;
    writeOnlineState(first, state);
    writeOnlineState(second, back);
    EXPECT_EQ(first.str(), second.str());
}

TEST(Serialize, OnlineStateRejectsWrongHeader)
{
    std::stringstream wrong("cooper-matching 1 4\n0 1\n");
    EXPECT_THROW(readOnlineState(wrong), FatalError);
    std::stringstream version("cooper-online-state 99\nseed 1\n");
    EXPECT_THROW(readOnlineState(version), FatalError);
}

TEST(Serialize, OnlineStateRejectsTruncation)
{
    std::stringstream full;
    writeOnlineState(full, sampleOnlineState());
    const std::string text = full.str();

    // Cut the document off after each of the first few lines; every
    // prefix must be rejected, never half-read.
    std::size_t pos = 0;
    for (int lines = 0; lines < 6; ++lines) {
        pos = text.find('\n', pos) + 1;
        std::stringstream cut(text.substr(0, pos));
        EXPECT_THROW(readOnlineState(cut), FatalError);
    }
}

TEST(Serialize, OnlineStateRejectsBadKeyword)
{
    std::stringstream full;
    writeOnlineState(full, sampleOnlineState());
    std::string text = full.str();
    const std::size_t at = text.find("penalty");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 7, "penalti");
    std::stringstream corrupt(text);
    EXPECT_THROW(readOnlineState(corrupt), FatalError);
}

TEST(Serialize, OnlineStateRejectsUnorderedPair)
{
    std::stringstream full;
    writeOnlineState(full, sampleOnlineState());
    std::string text = full.str();
    const std::size_t at = text.find("pairs 1\n1 5\n");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 12, "pairs 1\n5 1\n");
    std::stringstream corrupt(text);
    EXPECT_THROW(readOnlineState(corrupt), FatalError);
}

TEST(Serialize, OnlineStateRejectsRatingsOutsideShape)
{
    std::stringstream full;
    writeOnlineState(full, sampleOnlineState());
    std::string text = full.str();
    const std::size_t at = text.find("2 4 -0.01");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 9, "2 9 -0.01");
    std::stringstream corrupt(text);
    EXPECT_THROW(readOnlineState(corrupt), FatalError);
}

TEST(Serialize, OnlineStateRejectsDuplicateRatingsCell)
{
    std::stringstream full;
    writeOnlineState(full, sampleOnlineState());
    std::string text = full.str();
    const std::size_t at = text.find("2 4 -0.01");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 9, "0 0 -0.01");
    std::stringstream corrupt(text);
    EXPECT_THROW(readOnlineState(corrupt), FatalError);
}

/** A state whose population runs under the coalition policy. */
OnlineState
sampleCoalitionState()
{
    OnlineState state = sampleOnlineState();
    state.live = {{1, 0}, {2, 4}, {5, 2}, {8, 1}, {9, 3}};
    state.pairs = {};
    state.groups = {{1, 2, 5}, {8, 9}};
    return state;
}

TEST(Serialize, OnlineStateGroupsRoundTrip)
{
    const OnlineState state = sampleCoalitionState();
    std::stringstream buffer;
    writeOnlineState(buffer, state);
    const OnlineState back = readOnlineState(buffer);

    ASSERT_EQ(back.groups.size(), 2u);
    EXPECT_EQ(back.groups[0], (std::vector<JobUid>{1, 2, 5}));
    EXPECT_EQ(back.groups[1], (std::vector<JobUid>{8, 9}));

    // Byte-stable like the rest of the format.
    std::stringstream first, second;
    writeOnlineState(first, state);
    writeOnlineState(second, back);
    EXPECT_EQ(first.str(), second.str());
}

TEST(Serialize, OnlineStateRejectsUndersizedGroup)
{
    std::stringstream full;
    writeOnlineState(full, sampleCoalitionState());
    std::string text = full.str();
    const std::size_t at = text.find("groups 2\n3 1 2 5\n");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 17, "groups 2\n1 1\n");
    std::stringstream corrupt(text);
    EXPECT_THROW(readOnlineState(corrupt), FatalError);
}

TEST(Serialize, OnlineStateRejectsTruncatedGroup)
{
    std::stringstream full;
    writeOnlineState(full, sampleCoalitionState());
    std::string text = full.str();

    // Declare four members over a three-member line: the reader must
    // notice the shortfall, not bleed into the next section.
    const std::size_t at = text.find("3 1 2 5\n");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 8, "4 1 2 5\n");
    std::stringstream corrupt(text);
    EXPECT_THROW(readOnlineState(corrupt), FatalError);
}

TEST(Serialize, OnlineStateRejectsUidInTwoGroups)
{
    OnlineState state = sampleCoalitionState();
    state.groups = {{1, 2, 5}, {5, 8}};
    std::stringstream buffer;
    writeOnlineState(buffer, state);
    EXPECT_THROW(readOnlineState(buffer), FatalError);
}

TEST(Serialize, OnlineStateRejectsUnsortedGroupMembers)
{
    std::stringstream full;
    writeOnlineState(full, sampleCoalitionState());
    std::string text = full.str();
    const std::size_t at = text.find("3 1 2 5\n");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 8, "3 2 1 5\n");
    std::stringstream corrupt(text);
    EXPECT_THROW(readOnlineState(corrupt), FatalError);
}

TEST(Serialize, OnlineStateRejectsGroupsOutOfOrder)
{
    OnlineState state = sampleCoalitionState();
    state.groups = {{8, 9}, {1, 2, 5}};
    std::stringstream buffer;
    writeOnlineState(buffer, state);
    EXPECT_THROW(readOnlineState(buffer), FatalError);
}

TEST(Serialize, OnlineStateFileRoundTrip)
{
    const std::string path = "/tmp/cooper_test_online_state.txt";
    saveOnlineState(path, sampleOnlineState());
    const OnlineState back = loadOnlineState(path);
    EXPECT_EQ(back.seed, 42u);
    EXPECT_EQ(back.ratings.knownCount(), 3u);
    std::remove(path.c_str());

    EXPECT_THROW(
        saveOnlineState("/no_such_dir_xyz/s.txt", sampleOnlineState()),
        FatalError);
    EXPECT_THROW(loadOnlineState("/no_such_dir_xyz/s.txt"), FatalError);
}

ShardedState
sampleShardedState()
{
    ShardedState state;
    state.seed = 42;
    state.epoch = 3;
    state.typeShard = {0, 1, 1, 0};
    state.uidShard = {{1, 0}, {2, 1}, {5, 1}};
    state.totalCrossMigrations = 7;
    state.totalRebalanceEpochs = 2;
    state.lastObjective = 0.5;
    state.perShard = {sampleOnlineState(), sampleOnlineState()};
    state.perShard[1].live = {{2, 1}};
    state.perShard[1].pairs = {};
    return state;
}

TEST(Serialize, ShardedStateRoundTrip)
{
    const ShardedState state = sampleShardedState();
    std::stringstream buffer;
    writeShardedState(buffer, state);
    const ShardedState back = readShardedState(buffer);

    EXPECT_EQ(back.seed, 42u);
    EXPECT_EQ(back.epoch, 3u);
    EXPECT_EQ(back.typeShard, state.typeShard);
    EXPECT_EQ(back.uidShard, state.uidShard);
    EXPECT_EQ(back.totalCrossMigrations, 7u);
    EXPECT_EQ(back.totalRebalanceEpochs, 2u);
    EXPECT_DOUBLE_EQ(back.lastObjective, 0.5);
    ASSERT_EQ(back.perShard.size(), 2u);
    EXPECT_EQ(back.perShard[0].live.size(), 3u);
    EXPECT_EQ(back.perShard[1].live.size(), 1u);

    // Byte-stable, like the flat format: a checkpoint written from a
    // restored state is the same file.
    std::stringstream first, second;
    writeShardedState(first, state);
    writeShardedState(second, back);
    EXPECT_EQ(first.str(), second.str());
}

TEST(Serialize, ShardedStateRejectsShardCountMismatch)
{
    std::stringstream full;
    writeShardedState(full, sampleShardedState());
    std::string text = full.str();

    // Declare three shards over a two-shard body: the reader must
    // notice the missing block, not return a half-fleet.
    const std::size_t at = text.find("sharded 2 ");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 10, "sharded 3 ");
    std::stringstream corrupt(text);
    EXPECT_THROW(readShardedState(corrupt), FatalError);
}

TEST(Serialize, ShardedStateRejectsTruncatedShardBlock)
{
    std::stringstream full;
    writeShardedState(full, sampleShardedState());
    const std::string text = full.str();

    // Cut inside the last per-shard block; the embedded v4 reader
    // must fail on its own truncation, never half-read.
    const std::size_t at = text.rfind("penalty");
    ASSERT_NE(at, std::string::npos);
    std::stringstream cut(text.substr(0, at));
    EXPECT_THROW(readShardedState(cut), FatalError);

    // And cut right before the second block's header line.
    const std::size_t shard1 = text.find("shard 1\n");
    ASSERT_NE(shard1, std::string::npos);
    std::stringstream missing(text.substr(0, shard1));
    EXPECT_THROW(readShardedState(missing), FatalError);
}

TEST(Serialize, ShardedStateRejectsUidOutsideDeclaredShards)
{
    std::stringstream full;
    writeShardedState(full, sampleShardedState());
    std::string text = full.str();
    const std::size_t at = text.find("uids 3\n1 0\n");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 11, "uids 3\n1 9\n");
    std::stringstream corrupt(text);
    EXPECT_THROW(readShardedState(corrupt), FatalError);
}

TEST(Serialize, ShardedStateRejectsDisagreeingShardEpochs)
{
    ShardedState state = sampleShardedState();
    state.perShard[1].epoch = 4; // fleet committed epoch 3
    std::stringstream buffer;
    writeShardedState(buffer, state);
    EXPECT_THROW(readShardedState(buffer), FatalError);
}

TEST(Serialize, ShardedStateFileRoundTrip)
{
    const std::string path = "/tmp/cooper_test_sharded_state.txt";
    saveShardedState(path, sampleShardedState());
    const ShardedState back = loadShardedState(path);
    EXPECT_EQ(back.perShard.size(), 2u);
    std::remove(path.c_str());

    EXPECT_THROW(saveShardedState("/no_such_dir_xyz/s.txt",
                                  sampleShardedState()),
                 FatalError);
    EXPECT_THROW(loadShardedState("/no_such_dir_xyz/s.txt"),
                 FatalError);
}

TEST(Serialize, FileErrorsFatal)
{
    SparseMatrix m(2, 2);
    EXPECT_THROW(saveProfiles("/no_such_dir_xyz/p.txt", m), FatalError);
    EXPECT_THROW(loadProfiles("/no_such_dir_xyz/p.txt"), FatalError);
    Matching match(2);
    EXPECT_THROW(saveMatching("/no_such_dir_xyz/m.txt", match),
                 FatalError);
    EXPECT_THROW(loadMatching("/no_such_dir_xyz/m.txt"), FatalError);
}

} // namespace
} // namespace cooper
