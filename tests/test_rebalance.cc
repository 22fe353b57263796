/**
 * @file
 * Property tests for the pure cross-shard rebalance planner: the
 * migration budget is respected, every applied move strictly improves
 * the egalitarian objective and the chain is monotone non-increasing,
 * plans are deterministic, targets without admission room never
 * receive migrants, and profile merging averages exactly the shards
 * that know a cell.
 */

#include <gtest/gtest.h>

#include <vector>

#include "shard/rebalance.hh"
#include "util/error.hh"

namespace cooper {
namespace {

/** Two-type profile matrix: penalty(a colocated with b). */
SparseMatrix
makeProfiles(double same0, double cross, double same1)
{
    SparseMatrix m(2, 2);
    m.set(0, 0, same0);
    m.set(0, 1, cross);
    m.set(1, 0, cross);
    m.set(1, 1, same1);
    return m;
}

/** Shard 0 pairs two type-0 jobs (cost 10); shard 1 pairs two type-1
 *  jobs (cost 1). Moving one type-0 job next door drops the fleet's
 *  worst-off cost from 10 to ~cross. */
std::vector<ShardView>
hotColdFleet(std::size_t room = 8)
{
    std::vector<ShardView> shards(2);
    shards[0].live = {{1, 0}, {2, 0}};
    shards[0].pairs = {{1, 2}};
    shards[0].admissionRoom = room;
    shards[1].live = {{3, 1}, {4, 1}};
    shards[1].pairs = {{3, 4}};
    shards[1].admissionRoom = room;
    return shards;
}

TEST(Rebalancer, MovesTheWorstOffJobOutOfTheHotShard)
{
    const SparseMatrix profiles = makeProfiles(10.0, 1.0, 1.0);
    const Rebalancer rebalancer(4);
    const RebalanceOutcome outcome =
        rebalancer.plan(hotColdFleet(), profiles);

    ASSERT_EQ(outcome.moves.size(), 1u);
    const MigrationMove &move = outcome.moves[0];
    EXPECT_EQ(move.uid, 1u);
    EXPECT_EQ(move.fromShard, 0u);
    EXPECT_EQ(move.toShard, 1u);
    EXPECT_DOUBLE_EQ(outcome.objectiveBefore, 10.0);
    EXPECT_LT(outcome.objectiveAfter, outcome.objectiveBefore);
}

TEST(Rebalancer, RespectsTheMigrationBudget)
{
    const SparseMatrix profiles = makeProfiles(10.0, 1.0, 1.0);
    for (const std::size_t budget : {0u, 1u, 2u, 5u}) {
        const Rebalancer rebalancer(budget);
        const RebalanceOutcome outcome =
            rebalancer.plan(hotColdFleet(), profiles);
        EXPECT_LE(outcome.moves.size(), budget);
        if (budget == 0) {
            EXPECT_DOUBLE_EQ(outcome.objectiveAfter,
                             outcome.objectiveBefore);
        }
    }
}

TEST(Rebalancer, ObjectiveIsMonotoneNonIncreasingAcrossMoves)
{
    // Three hot pairs force several passes; every one must strictly
    // improve, and the chained before/after values must never rise.
    SparseMatrix profiles(4, 4);
    for (std::size_t a = 0; a < 4; ++a)
        for (std::size_t b = 0; b < 4; ++b)
            profiles.set(a, b, a == b ? 8.0 + static_cast<double>(a)
                                      : 0.5);

    std::vector<ShardView> shards(3);
    shards[0].live = {{1, 3}, {2, 3}, {3, 2}, {4, 2}};
    shards[0].pairs = {{1, 2}, {3, 4}};
    shards[0].admissionRoom = 8;
    shards[1].live = {{5, 1}, {6, 1}};
    shards[1].pairs = {{5, 6}};
    shards[1].admissionRoom = 8;
    shards[2].live = {{7, 0}};
    shards[2].pairs = {};
    shards[2].admissionRoom = 8;

    const Rebalancer rebalancer(8);
    const RebalanceOutcome outcome = rebalancer.plan(shards, profiles);

    ASSERT_FALSE(outcome.moves.empty());
    double last = outcome.objectiveBefore;
    for (const MigrationMove &move : outcome.moves) {
        EXPECT_LE(move.objectiveBefore, last + 1e-12);
        EXPECT_LT(move.objectiveAfter, move.objectiveBefore);
        last = move.objectiveAfter;
    }
    EXPECT_LE(outcome.objectiveAfter, outcome.objectiveBefore);
}

TEST(Rebalancer, PlanIsDeterministic)
{
    const SparseMatrix profiles = makeProfiles(10.0, 1.0, 9.0);
    const std::vector<ShardView> shards = hotColdFleet();
    const Rebalancer rebalancer(4);

    const RebalanceOutcome first = rebalancer.plan(shards, profiles);
    const RebalanceOutcome second = rebalancer.plan(shards, profiles);

    ASSERT_EQ(first.moves.size(), second.moves.size());
    for (std::size_t i = 0; i < first.moves.size(); ++i) {
        EXPECT_EQ(first.moves[i].uid, second.moves[i].uid);
        EXPECT_EQ(first.moves[i].fromShard, second.moves[i].fromShard);
        EXPECT_EQ(first.moves[i].toShard, second.moves[i].toShard);
    }
    EXPECT_DOUBLE_EQ(first.objectiveAfter, second.objectiveAfter);
}

TEST(Rebalancer, SingleShardHasNowhereToMove)
{
    const SparseMatrix profiles = makeProfiles(10.0, 1.0, 1.0);
    std::vector<ShardView> shards(1);
    shards[0].live = {{1, 0}, {2, 0}};
    shards[0].pairs = {{1, 2}};
    shards[0].admissionRoom = 8;

    const RebalanceOutcome outcome =
        Rebalancer(4).plan(shards, profiles);
    EXPECT_TRUE(outcome.moves.empty());
    EXPECT_DOUBLE_EQ(outcome.objectiveAfter, outcome.objectiveBefore);
}

TEST(Rebalancer, NeverMigratesIntoAFullShard)
{
    const SparseMatrix profiles = makeProfiles(10.0, 1.0, 1.0);
    std::vector<ShardView> shards = hotColdFleet();
    shards[1].admissionRoom = 0; // the only possible target is full

    const RebalanceOutcome outcome =
        Rebalancer(4).plan(shards, profiles);
    EXPECT_TRUE(outcome.moves.empty());
    EXPECT_DOUBLE_EQ(outcome.objectiveBefore, 10.0);
    EXPECT_DOUBLE_EQ(outcome.objectiveAfter, 10.0);
}

TEST(Rebalancer, UnmatchedJobsCostNothing)
{
    // Everyone is unmatched: the objective is already zero and no
    // move can improve it.
    const SparseMatrix profiles = makeProfiles(10.0, 10.0, 10.0);
    std::vector<ShardView> shards(2);
    shards[0].live = {{1, 0}, {2, 1}};
    shards[0].admissionRoom = 8;
    shards[1].live = {{3, 0}};
    shards[1].admissionRoom = 8;

    const RebalanceOutcome outcome =
        Rebalancer(4).plan(shards, profiles);
    EXPECT_TRUE(outcome.moves.empty());
    EXPECT_DOUBLE_EQ(outcome.objectiveBefore, 0.0);
    EXPECT_DOUBLE_EQ(outcome.objectiveAfter, 0.0);
}

TEST(MergeProfiles, AveragesExactlyTheShardsThatKnowACell)
{
    SparseMatrix a(2, 2);
    a.set(0, 0, 4.0);
    a.set(0, 1, 2.0);
    SparseMatrix b(2, 2);
    b.set(0, 0, 6.0);
    b.set(1, 1, 3.0);

    const SparseMatrix merged = mergeProfiles({&a, &b});
    EXPECT_TRUE(merged.known(0, 0));
    EXPECT_DOUBLE_EQ(merged.at(0, 0), 5.0); // both know it
    EXPECT_DOUBLE_EQ(merged.at(0, 1), 2.0); // only a
    EXPECT_DOUBLE_EQ(merged.at(1, 1), 3.0); // only b
    EXPECT_FALSE(merged.known(1, 0));       // nobody
}

TEST(MergeProfiles, RefusesMismatchedShapes)
{
    SparseMatrix a(2, 2);
    SparseMatrix b(3, 3);
    EXPECT_THROW(mergeProfiles({&a, &b}), FatalError);
}

} // namespace
} // namespace cooper
