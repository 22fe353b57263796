/**
 * @file
 * Property tests for the pure cross-shard rebalance planner: the
 * migration budget is respected, every applied move strictly improves
 * the egalitarian objective and the chain is monotone non-increasing,
 * plans are deterministic, targets without admission room never
 * receive migrants, and profile merging averages exactly the shards
 * that know a cell. A differential test holds the flat planner to a
 * reference copy of the map-based planner it replaced, move for move
 * and bit for bit, on randomized fleets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "shard/rebalance.hh"
#include "util/error.hh"
#include "util/rng.hh"

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

// -- Differential test against the map-based planner ----------------

/**
 * Reference planner: the map-based Rebalancer::plan the flat planner
 * replaced, unchanged apart from naming and its input checks (the
 * generated fleets are valid). Every pass re-derives each job's cost
 * through uid maps and rescans the whole fleet.
 */
namespace reference {

struct Fleet
{
    struct Shard
    {
        std::vector<LiveJob> live;
        std::map<JobUid, JobUid> partner; // both directions
        std::map<JobUid, JobTypeId> type;
        std::size_t room = 0;
    };

    std::vector<Shard> shards;
    const SparseMatrix *profiles = nullptr;
    double fallback = 0.0;

    double
    estimate(JobTypeId self, JobTypeId other) const
    {
        return profiles->valueOr(self, other, fallback);
    }

    double
    pairCost(JobTypeId a, JobTypeId b) const
    {
        return std::max(estimate(a, b), estimate(b, a));
    }

    double
    costOf(const Shard &shard, const LiveJob &job) const
    {
        const auto link = shard.partner.find(job.uid);
        if (link == shard.partner.end())
            return 0.0;
        return pairCost(job.type, shard.type.at(link->second));
    }

    std::pair<double, const LiveJob *>
    worstOf(const Shard &shard) const
    {
        double worst = 0.0;
        const LiveJob *job = nullptr;
        for (const LiveJob &candidate : shard.live) {
            const double cost = costOf(shard, candidate);
            if (job == nullptr || cost > worst) {
                worst = cost;
                job = &candidate;
            }
        }
        return {job == nullptr ? 0.0 : worst, job};
    }

    std::pair<double, std::size_t>
    objective() const
    {
        double worst = 0.0;
        std::size_t at = 0;
        for (std::size_t s = 0; s < shards.size(); ++s) {
            const double cost = worstOf(shards[s]).first;
            if (cost > worst) {
                worst = cost;
                at = s;
            }
        }
        return {worst, at};
    }

    double
    entryCost(const Shard &shard, JobTypeId type) const
    {
        if (shard.live.empty())
            return 0.0;
        double best = std::numeric_limits<double>::infinity();
        for (const LiveJob &host : shard.live)
            best = std::min(best, pairCost(type, host.type));
        return best;
    }

    double
    worstWithout(const Shard &shard, JobUid uid) const
    {
        const auto link = shard.partner.find(uid);
        const bool widows = link != shard.partner.end();
        const JobUid widowed = widows ? link->second : 0;
        double worst = 0.0;
        for (const LiveJob &candidate : shard.live) {
            if (candidate.uid == uid)
                continue;
            const double cost = widows && candidate.uid == widowed
                                    ? 0.0
                                    : costOf(shard, candidate);
            worst = std::max(worst, cost);
        }
        return worst;
    }

    void
    move(JobUid uid, std::size_t from, std::size_t to)
    {
        Shard &src = shards[from];
        const auto it = std::find_if(
            src.live.begin(), src.live.end(),
            [uid](const LiveJob &job) { return job.uid == uid; });
        const LiveJob job = *it;
        const auto link = src.partner.find(uid);
        if (link != src.partner.end()) {
            const JobUid other = link->second;
            src.partner.erase(link);
            src.partner.erase(other);
        }
        src.live.erase(it);
        src.type.erase(uid);

        Shard &dst = shards[to];
        --dst.room;
        dst.live.push_back(job);
        dst.type.emplace(job.uid, job.type);
    }
};

RebalanceOutcome
plan(std::size_t budget, const std::vector<ShardView> &shards,
     const SparseMatrix &profiles)
{
    Fleet fleet;
    fleet.profiles = &profiles;
    fleet.fallback = profiles.knownCount() > 0 ? profiles.knownMean()
                                               : 0.0;
    for (const ShardView &view : shards) {
        Fleet::Shard shard;
        shard.live = view.live;
        shard.room = view.admissionRoom;
        for (const LiveJob &job : view.live)
            shard.type.emplace(job.uid, job.type);
        for (const auto &[a, b] : view.pairs) {
            shard.partner[a] = b;
            shard.partner[b] = a;
        }
        fleet.shards.push_back(std::move(shard));
    }

    RebalanceOutcome outcome;
    auto [phi, worstShard] = fleet.objective();
    outcome.objectiveBefore = phi;
    outcome.objectiveAfter = phi;
    outcome.worstShard = worstShard;

    while (outcome.moves.size() < budget) {
        const auto [before, source] = fleet.objective();
        if (before <= 0.0)
            break;
        const LiveJob job = *fleet.worstOf(fleet.shards[source]).second;
        const double sourceAfter =
            fleet.worstWithout(fleet.shards[source], job.uid);
        double othersWorst = 0.0;
        for (std::size_t s = 0; s < fleet.shards.size(); ++s)
            if (s != source)
                othersWorst = std::max(
                    othersWorst, fleet.worstOf(fleet.shards[s]).first);
        const double floor = std::max(sourceAfter, othersWorst);

        std::size_t target = fleet.shards.size();
        double bestPhi = before;
        for (std::size_t t = 0; t < fleet.shards.size(); ++t) {
            if (t == source || fleet.shards[t].room == 0)
                continue;
            const double candidate = std::max(
                floor, fleet.entryCost(fleet.shards[t], job.type));
            if (candidate < bestPhi) {
                bestPhi = candidate;
                target = t;
            }
        }
        if (target == fleet.shards.size())
            break;

        fleet.move(job.uid, source, target);
        MigrationMove moved;
        moved.uid = job.uid;
        moved.fromShard = source;
        moved.toShard = target;
        moved.objectiveBefore = before;
        moved.objectiveAfter = bestPhi;
        outcome.moves.push_back(moved);
    }

    const auto [finalPhi, finalWorst] = fleet.objective();
    outcome.objectiveAfter = finalPhi;
    outcome.worstShard = finalWorst;
    return outcome;
}

} // namespace reference

std::uint64_t
bitsOf(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

/** A random fleet: 1-6 shards of 0 to `maxJobs` (at most 120) jobs
 *  with unique uids, some paired and some not, and 0-4 admission
 *  slots each. Few types or few distinct profile values force ties
 *  within and across shards. */
std::vector<ShardView>
randomFleet(Rng &rng, std::size_t types, std::int64_t maxJobs)
{
    const auto count = static_cast<std::size_t>(rng.uniformInt(1, 6));
    std::vector<ShardView> shards(count);
    JobUid next = 1 + rng.uniformInt(1000);
    const double pairedShare = rng.uniform();
    for (ShardView &shard : shards) {
        const auto n =
            static_cast<std::size_t>(rng.uniformInt(0, maxJobs));
        for (std::size_t i = 0; i < n; ++i) {
            next += 1 + rng.uniformInt(3);
            shard.live.push_back(
                {next, static_cast<JobTypeId>(rng.uniformInt(types))});
        }
        rng.shuffle(shard.live); // admission order is not uid order
        std::vector<std::size_t> slots = rng.permutation(n);
        for (std::size_t i = 0; i + 1 < n; i += 2) {
            if (!rng.bernoulli(pairedShare))
                continue;
            JobUid a = shard.live[slots[i]].uid;
            JobUid b = shard.live[slots[i + 1]].uid;
            shard.pairs.emplace_back(std::min(a, b), std::max(a, b));
        }
        std::sort(shard.pairs.begin(), shard.pairs.end());
        shard.admissionRoom =
            static_cast<std::size_t>(rng.uniformInt(0, 4));
    }
    return shards;
}

/** Random type x type profiles: each cell known with one shared
 *  probability (so unknown cells exercise the fallback mean), values
 *  drawn from `levels` distinct penalties, or continuous when
 *  `levels` is 0. */
SparseMatrix
randomProfiles(Rng &rng, std::size_t types, std::size_t levels)
{
    SparseMatrix profiles(types, types);
    const double known = rng.uniform();
    for (std::size_t a = 0; a < types; ++a)
        for (std::size_t b = 0; b < types; ++b)
            if (rng.bernoulli(known))
                profiles.set(a, b,
                             levels == 0
                                 ? rng.uniform()
                                 : 0.05 * static_cast<double>(
                                              1 + rng.uniformInt(levels)));
    return profiles;
}

TEST(Rebalancer, FlatPlannerMatchesTheReferencePlanner)
{
    Rng rng(2024);
    std::size_t moves = 0;
    std::size_t multiMove = 0;
    const std::int64_t fleetSizes[] = {4, 12, 40, 120};
    for (int trial = 0; trial < 2000; ++trial) {
        const auto types = static_cast<std::size_t>(
            trial % 3 == 0 ? rng.uniformInt(1, 3) : rng.uniformInt(4, 20));
        const auto levels = static_cast<std::size_t>(
            trial % 5 == 0 ? 1 : rng.uniformInt(0, 12));
        const SparseMatrix profiles = randomProfiles(rng, types, levels);
        const std::vector<ShardView> shards =
            randomFleet(rng, types, fleetSizes[trial % 4]);
        const auto budget = static_cast<std::size_t>(rng.uniformInt(0, 6));

        const RebalanceOutcome want =
            reference::plan(budget, shards, profiles);
        const RebalanceOutcome got = Rebalancer(budget).plan(shards, profiles);

        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << ": " << shards.size()
                     << " shards, " << types << " types, budget "
                     << budget);
        ASSERT_EQ(got.moves.size(), want.moves.size());
        for (std::size_t i = 0; i < want.moves.size(); ++i) {
            EXPECT_EQ(got.moves[i].uid, want.moves[i].uid);
            EXPECT_EQ(got.moves[i].fromShard, want.moves[i].fromShard);
            EXPECT_EQ(got.moves[i].toShard, want.moves[i].toShard);
            EXPECT_EQ(bitsOf(got.moves[i].objectiveBefore),
                      bitsOf(want.moves[i].objectiveBefore));
            EXPECT_EQ(bitsOf(got.moves[i].objectiveAfter),
                      bitsOf(want.moves[i].objectiveAfter));
        }
        EXPECT_EQ(bitsOf(got.objectiveBefore),
                  bitsOf(want.objectiveBefore));
        EXPECT_EQ(bitsOf(got.objectiveAfter), bitsOf(want.objectiveAfter));
        EXPECT_EQ(got.worstShard, want.worstShard);
        moves += want.moves.size();
        multiMove += want.moves.size() > 1 ? 1 : 0;
    }
    // The comparison must cover real decisions, not only empty plans.
    EXPECT_GT(moves, 300u);
    EXPECT_GT(multiMove, 50u);
}

TEST(Rebalancer, RejectsAJobTypeOutsideTheProfiles)
{
    const SparseMatrix profiles = makeProfiles(1.0, 1.0, 1.0);
    std::vector<ShardView> shards(1);
    shards[0].live = {{1, 0}, {2, 2}};
    shards[0].pairs = {{1, 2}};
    EXPECT_THROW(Rebalancer(1).plan(shards, profiles), FatalError);
}

} // namespace
} // namespace cooper
