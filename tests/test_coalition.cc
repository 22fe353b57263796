/**
 * @file
 * Differential and property tests for the coalition formation
 * subsystem: structures hold their partition invariants, the shared
 * value function agrees with the interference model, the G = 2
 * blocking-coalition scan is a drop-in for the pairwise blocking
 * scan and every scan matches a brute-force enumeration, formation is
 * bit-identical at any thread count and dominates packed pairs at
 * equal capacity, the online driver's coalition mode checkpoints and
 * resumes exactly, and stopping the core-seeking search at its first
 * revisited structure leaves pinned formation and summary bytes
 * unchanged.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "coalition/blocking_coalition.hh"
#include "coalition/formation.hh"
#include "coalition/prefs.hh"
#include "coalition/structure.hh"
#include "coalition/value.hh"
#include "core/experiment.hh"
#include "io/serialize.hh"
#include "obs/obs.hh"
#include "matching/blocking.hh"
#include "matching/stable_roommates.hh"
#include "online/churn.hh"
#include "online/driver.hh"
#include "online/events.hh"
#include "sim/interference.hh"
#include "util/error.hh"
#include "util/rng.hh"
#include "workload/catalog.hh"

namespace cooper {
namespace {

struct Fixture
{
    Catalog catalog = Catalog::paperTableI();
    InterferenceModel model{catalog};
};

/** A sampled population plus its believed table and agent types. */
struct Population
{
    ColocationInstance instance;
    DisutilityTable believed;
    std::vector<JobTypeId> types;
};

Population
makePopulation(const Fixture &fx, std::size_t agents,
               std::uint64_t seed)
{
    Rng rng(seed);
    ColocationInstance instance = sampleInstance(
        fx.catalog, fx.model, agents, MixKind::Uniform, rng);
    DisutilityTable believed = instance.believedTable();
    std::vector<JobTypeId> types;
    types.reserve(agents);
    for (AgentId a = 0; a < agents; ++a)
        types.push_back(instance.typeOf(a));
    return {std::move(instance), std::move(believed),
            std::move(types)};
}

TEST(CoalitionStructure, PartitionInvariantsHold)
{
    CoalitionStructure s(6);
    s.addCoalition({2, 0});
    s.addCoalition({3, 4, 5});
    EXPECT_TRUE(s.valid(3));
    EXPECT_EQ(s.coalitionOf(0), s.coalitionOf(2));
    EXPECT_EQ(s.coalitionOf(1), kNoCoalition);
    EXPECT_EQ(s.othersOf(4), (std::vector<AgentId>{3, 5}));
    EXPECT_EQ(s.machines(), 3u); // {0,2}, {3,4,5}, lone 1

    // A member may not join twice.
    EXPECT_THROW(s.addCoalition({1, 2}), FatalError);

    // Removing down to one member dissolves the coalition.
    s.removeAgent(0);
    EXPECT_EQ(s.coalitionOf(2), kNoCoalition);

    // Deviation carves members out of their current coalitions.
    s.deviate({2, 4});
    EXPECT_EQ(s.coalitionOf(2), s.coalitionOf(4));
    EXPECT_EQ(s.othersOf(3), (std::vector<AgentId>{5}));

    s.canonicalize();
    EXPECT_TRUE(s.valid(3));
    ASSERT_EQ(s.coalitions().size(), 2u);
    EXPECT_EQ(s.coalitions()[0], (std::vector<AgentId>{2, 4}));
    EXPECT_EQ(s.coalitions()[1], (std::vector<AgentId>{3, 5}));
}

TEST(CoalitionStructure, PackMatchingRespectsTheMachineBudget)
{
    Matching matching(10);
    matching.pair(0, 1);
    matching.pair(2, 3);
    matching.pair(4, 5);
    matching.pair(6, 7);

    for (const std::size_t g : {2u, 3u, 4u}) {
        const CoalitionStructure packed =
            CoalitionStructure::packMatching(matching, g);
        EXPECT_TRUE(packed.valid(g)) << "G=" << g;
        EXPECT_LE(packed.machines(), (10 + g - 1) / g) << "G=" << g;
        // Every agent is accounted for exactly once.
        std::size_t grouped = 0;
        for (const auto &group : packed.coalitions())
            grouped += group.size();
        for (AgentId a = 0; a < 10; ++a)
            if (packed.coalitionOf(a) == kNoCoalition)
                ++grouped;
        EXPECT_EQ(grouped, 10u) << "G=" << g;
    }

    // At G = 2 packing adds nothing beyond lifting the pairs (the
    // two unmatched agents share the one remaining machine).
    const CoalitionStructure pairs =
        CoalitionStructure::packMatching(matching, 2);
    EXPECT_EQ(pairs.coalitionOf(0), pairs.coalitionOf(1));
    EXPECT_EQ(pairs.coalitionOf(8), pairs.coalitionOf(9));
}

TEST(CoalitionValue, MemberPenaltyMatchesTheModel)
{
    const Fixture fx;
    const JobTypeId a = 0, b = 5, c = 11;
    const std::vector<JobTypeId> none;
    EXPECT_DOUBLE_EQ(coalitionMemberPenalty(fx.model, a, none), 0.0);

    const std::vector<JobTypeId> one{b};
    EXPECT_DOUBLE_EQ(coalitionMemberPenalty(fx.model, a, one),
                     fx.model.penalty(a, b));

    const std::vector<JobTypeId> two{b, c};
    EXPECT_DOUBLE_EQ(coalitionMemberPenalty(fx.model, a, two),
                     fx.model.groupPenalty(a, two));

    // v(S) sums the member penalties; the per-member vector agrees.
    const std::vector<JobTypeId> members{a, b, c};
    const std::vector<double> each =
        coalitionMemberPenalties(fx.model, members);
    ASSERT_EQ(each.size(), 3u);
    EXPECT_DOUBLE_EQ(coalitionValue(fx.model, members),
                     each[0] + each[1] + each[2]);
}

TEST(CoalitionPrefs, AdditiveExtensionRestrictsToPairs)
{
    const Fixture fx;
    const Population pop = makePopulation(fx, 12, 3);
    const CoalitionPreferences prefs(pop.believed);

    const std::vector<AgentId> one{3};
    EXPECT_DOUBLE_EQ(prefs.believedPenalty(0, one),
                     pop.believed(0, 3));
    const std::vector<AgentId> two{3, 7};
    EXPECT_DOUBLE_EQ(prefs.believedPenalty(0, two),
                     pop.believed(0, 3) + pop.believed(0, 7));

    // Ranked candidates ascend by pairwise believed cost.
    const std::vector<AgentId> ranked = prefs.rankedCandidates(0);
    ASSERT_EQ(ranked.size(), 11u);
    for (std::size_t i = 1; i < ranked.size(); ++i)
        EXPECT_LE(pop.believed(0, ranked[i - 1]),
                  pop.believed(0, ranked[i]));
}

TEST(CoalitionBlocking, PairScanMatchesThePairwiseBlockingScan)
{
    const Fixture fx;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        const Population pop = makePopulation(fx, 20, seed);
        // An arbitrary full matching: 0-1, 2-3, ... — plenty of
        // blocking pairs to count.
        Matching matching(20);
        for (AgentId a = 0; a + 1 < 20; a += 2)
            matching.pair(a, a + 1);

        const CoalitionStructure structure =
            CoalitionStructure::fromMatching(matching);
        const CoalitionPreferences prefs(pop.believed);
        CoalitionScanConfig scan;
        scan.maxSize = 2;
        const std::size_t pairwise =
            countBlockingPairs(matching, pop.believed, 0.0);
        EXPECT_EQ(scanBlockingCoalitions(structure, prefs, scan).count,
                  pairwise)
            << "seed " << seed;

        // And the count is thread-count independent.
        scan.threads = 4;
        EXPECT_EQ(scanBlockingCoalitions(structure, prefs, scan).count,
                  pairwise);
    }
}

/**
 * Reference scan: every 2..max_size subset of grouped agents, scored
 * from scratch. Costs sum pairwise entries in ascending member order,
 * the order the scan sums them in, so gains compare exactly.
 */
BlockingScan
bruteForceScan(const CoalitionStructure &structure,
               const DisutilityTable &believed, std::size_t max_size,
               double alpha)
{
    const auto cost = [&](AgentId self,
                          const std::vector<AgentId> &group) {
        double total = 0.0;
        for (const AgentId m : group)
            if (m != self)
                total += believed(self, m);
        return total;
    };
    std::vector<AgentId> grouped;
    std::vector<double> current(structure.agents(), 0.0);
    for (AgentId a = 0; a < structure.agents(); ++a) {
        const std::size_t g = structure.coalitionOf(a);
        if (g == kNoCoalition)
            continue;
        grouped.push_back(a);
        std::vector<AgentId> home = structure.coalitions()[g];
        std::sort(home.begin(), home.end());
        current[a] = cost(a, home);
    }

    BlockingScan out;
    std::vector<AgentId> subset;
    const auto visit = [&](auto &&self, std::size_t next) -> void {
        if (subset.size() >= 2) {
            double min_gain = std::numeric_limits<double>::infinity();
            for (const AgentId m : subset)
                min_gain = std::min(min_gain, current[m] - cost(m, subset));
            const bool blocks =
                alpha > 0.0 ? min_gain >= alpha : min_gain > 0.0;
            if (blocks) {
                ++out.count;
                if (!out.best || min_gain > out.best->minGain ||
                    (min_gain == out.best->minGain &&
                     subset < out.best->members))
                    out.best = BlockingCoalition{subset, min_gain};
            }
        }
        if (subset.size() == max_size)
            return;
        for (std::size_t i = next; i < grouped.size(); ++i) {
            subset.push_back(grouped[i]);
            self(self, i + 1);
            subset.pop_back();
        }
    };
    visit(visit, 0);
    return out;
}

/** A random partition: shuffled agents carved into groups of 2..G,
 *  with about one agent in five left alone. */
CoalitionStructure
randomStructure(std::size_t n, std::size_t max_size, Rng &rng)
{
    std::vector<AgentId> order(n);
    for (AgentId a = 0; a < n; ++a)
        order[a] = a;
    rng.shuffle(order);
    CoalitionStructure structure(n);
    std::size_t next = 0;
    while (next + 1 < n) {
        if (rng.bernoulli(0.2)) {
            ++next;
            continue;
        }
        const std::size_t size = std::min(
            n - next, 2 + static_cast<std::size_t>(
                              rng.uniformInt(max_size - 1)));
        structure.addCoalition(std::vector<AgentId>(
            order.begin() + static_cast<std::ptrdiff_t>(next),
            order.begin() + static_cast<std::ptrdiff_t>(next + size)));
        next += size;
    }
    return structure;
}

TEST(CoalitionBlocking, ScanMatchesBruteForceEnumeration)
{
    const Fixture fx;
    const std::size_t n = 13;

    // A sampled believed table, and a synthetic one drawn from a few
    // values so that rows hold negative entries and gains tie
    // exactly. Its diagonal sits above every entry, so each row's
    // minimum is a real co-runner and the anchor prune is as tight as
    // it gets.
    const Population pop = makePopulation(fx, n, 5);
    Rng table_rng(19);
    const double levels[] = {-0.1, -0.05, 0.0, 0.05, 0.1};
    std::vector<double> cells(n * n);
    for (double &cell : cells)
        cell = levels[table_rng.uniformInt(5)];
    const DisutilityTable synthetic(n, n, [&](AgentId a, AgentId b) {
        return a == b ? 1.0 : cells[a * n + b];
    });
    std::size_t negative_rows = 0;
    for (AgentId a = 0; a < n; ++a)
        if (synthetic.rowMin(a) < 0.0)
            ++negative_rows;
    ASSERT_GT(negative_rows, 0u);

    std::size_t blocking_seen = 0;
    for (const DisutilityTable *believed : {&pop.believed, &synthetic}) {
        const CoalitionPreferences prefs(*believed);
        Rng rng(23);
        for (const std::size_t g : {2u, 3u, 4u}) {
            for (const double alpha : {0.0, 0.02}) {
                for (int trial = 0; trial < 5; ++trial) {
                    const CoalitionStructure structure =
                        randomStructure(n, g, rng);
                    ASSERT_TRUE(structure.valid(g));
                    const BlockingScan expected =
                        bruteForceScan(structure, *believed, g, alpha);
                    blocking_seen += expected.count;
                    for (const std::size_t threads : {1u, 2u, 8u}) {
                        const BlockingScan actual = scanBlockingCoalitions(
                            structure, prefs, {g, alpha, threads});
                        const std::string where =
                            "G=" + std::to_string(g) +
                            " alpha=" + std::to_string(alpha) +
                            " trial=" + std::to_string(trial) +
                            " threads=" + std::to_string(threads);
                        EXPECT_EQ(actual.count, expected.count) << where;
                        ASSERT_EQ(actual.best.has_value(),
                                  expected.best.has_value())
                            << where;
                        if (!expected.best)
                            continue;
                        EXPECT_EQ(actual.best->members,
                                  expected.best->members)
                            << where;
                        EXPECT_EQ(actual.best->minGain,
                                  expected.best->minGain)
                            << where;
                    }
                }
            }
        }
    }
    // The differential must not hold vacuously.
    EXPECT_GT(blocking_seen, 0u);
}

TEST(CoalitionFormation, BitIdenticalAcrossThreadCounts)
{
    const Fixture fx;
    const Population pop = makePopulation(fx, 30, 7);
    const Rng rng(99);

    for (const std::size_t g : {2u, 3u, 4u}) {
        FormationConfig config;
        config.groupSize = g;
        config.shapleySamples = 32;
        config.threads = 1;
        const FormationResult serial = formCoalitions(
            pop.types, pop.believed, fx.model, config, rng);
        for (const std::size_t threads : {2u, 8u}) {
            config.threads = threads;
            const FormationResult parallel = formCoalitions(
                pop.types, pop.believed, fx.model, config, rng);
            EXPECT_TRUE(parallel.structure == serial.structure)
                << "G=" << g << " threads=" << threads;
            EXPECT_EQ(parallel.rounds, serial.rounds);
            EXPECT_EQ(parallel.blockingAfter, serial.blockingAfter);
            // Exact equality — attribution must not drift either.
            EXPECT_EQ(parallel.shapleyShares, serial.shapleyShares);
            EXPECT_EQ(parallel.truePenalties, serial.truePenalties);
        }
    }
}

TEST(CoalitionFormation, PairFormationStableWhereverRoommatesIs)
{
    const Fixture fx;
    const Rng rng(5);
    std::size_t stable_seeds = 0;
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        const Population pop = makePopulation(fx, 24, seed);
        const CoalitionPreferences prefs(pop.believed);
        const RoommatesResult sr =
            adaptedRoommates(prefs.pairProfile(), pop.believed);
        if (!sr.perfectlyStable)
            continue;
        ++stable_seeds;

        FormationConfig config;
        config.shapleySamples = 0;
        const FormationResult formed = formCoalitions(
            pop.types, pop.believed, fx.model, config, rng);
        EXPECT_TRUE(formed.coreStable) << "seed " << seed;
        EXPECT_EQ(formed.blockingAfter, 0u) << "seed " << seed;
        EXPECT_TRUE(formed.structure ==
                    CoalitionStructure::fromMatching(sr.matching))
            << "seed " << seed;
    }
    // The adapted matcher finds a perfectly stable matching on most
    // sampled populations; the property must not hold vacuously.
    EXPECT_GE(stable_seeds, 1u);
}

TEST(CoalitionFormation, DominatesPackedPairsAtEqualCapacity)
{
    const Fixture fx;
    const Rng rng(17);
    for (const std::uint64_t seed : {2u, 6u}) {
        const Population pop = makePopulation(fx, 24, seed);
        const CoalitionPreferences prefs(pop.believed);
        const RoommatesResult sr =
            adaptedRoommates(prefs.pairProfile(), pop.believed);

        for (const std::size_t g : {3u, 4u}) {
            FormationConfig config;
            config.groupSize = g;
            config.shapleySamples = 0;
            const FormationResult formed = formCoalitions(
                pop.types, pop.believed, fx.model, config, rng);
            EXPECT_TRUE(formed.structure.valid(g));
            EXPECT_LE(formed.structure.machines(), (24 + g - 1) / g);

            CoalitionScanConfig scan;
            scan.maxSize = g;
            const std::size_t packed_blocking =
                scanBlockingCoalitions(
                    CoalitionStructure::packMatching(sr.matching, g),
                    prefs, scan)
                    .count;
            EXPECT_LE(formed.blockingAfter, packed_blocking)
                << "seed " << seed << " G=" << g;
            EXPECT_LE(formed.blockingAfter, formed.blockingBefore);
        }
    }
}

TEST(CoalitionFormation, WarmStartOverBudgetIsRepaired)
{
    const Fixture fx;
    const Population pop = makePopulation(fx, 6, 4);
    const Rng rng(8);

    // Three pairs need three machines; at G = 3 the budget is two.
    CoalitionStructure carried(6);
    carried.addCoalition({0, 1});
    carried.addCoalition({2, 3});
    carried.addCoalition({4, 5});

    FormationConfig config;
    config.groupSize = 3;
    config.shapleySamples = 0;
    const FormationResult formed = formCoalitions(
        pop.types, pop.believed, fx.model, config, rng, &carried);
    EXPECT_TRUE(formed.structure.valid(3));
    EXPECT_LE(formed.structure.machines(), 2u);
}

// --- Online driver, --policy coalition ---------------------------

ChurnTrace
makeTrace(const Catalog &catalog, std::size_t arrivals,
          std::uint64_t seed)
{
    ChurnConfig churn;
    churn.arrivals = arrivals;
    churn.initialJobs = 12;
    churn.meanInterarrivalTicks = 6.0;
    churn.meanLifetimeTicks = 400.0;
    Rng rng(seed);
    return generateChurnTrace(catalog, churn, rng);
}

FrameworkConfig
coalitionConfig(std::size_t group_size)
{
    FrameworkConfig config;
    config.policy = "coalition";
    config.execution.online.groupSize = group_size;
    config.execution.online.admitPerEpoch = 64;
    config.execution.online.maxQueueDepth = 0;
    return config;
}

std::string
summaryOf(const OnlineReport &report)
{
    std::ostringstream out;
    writeOnlineSummary(out, report);
    return out.str();
}

TEST(OnlineDriverCoalition, SameTraceSameSummaryAtAnyThreadCount)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 150, 2);

    std::vector<std::string> summaries;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        FrameworkConfig config = coalitionConfig(3);
        config.execution.threads = threads;
        OnlineDriver driver(fx.catalog, fx.model, config, 17);
        summaries.push_back(summaryOf(driver.run(trace)));
    }
    EXPECT_EQ(summaries[0], summaries[1]);
    EXPECT_EQ(summaries[0], summaries[2]);
}

TEST(OnlineDriverCoalition, GroupsRespectTheCapAndPartitionLiveJobs)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 150, 3);
    FrameworkConfig config = coalitionConfig(3);
    OnlineDriver driver(fx.catalog, fx.model, config, 21);
    const OnlineReport report = driver.run(trace);

    std::vector<JobUid> seen;
    for (const auto &group : report.finalGroups) {
        EXPECT_GE(group.size(), 2u);
        EXPECT_LE(group.size(), 3u);
        for (std::size_t i = 0; i < group.size(); ++i) {
            if (i > 0) {
                EXPECT_LT(group[i - 1], group[i]);
            }
            seen.push_back(group[i]);
        }
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) ==
                seen.end());
}

TEST(OnlineDriverCoalition, MidRunCheckpointResumesExactly)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 150, 9);
    const FrameworkConfig config = coalitionConfig(3);

    OnlineDriver whole(fx.catalog, fx.model, config, 10);
    const OnlineReport whole_report = whole.run(trace);

    const Tick cut = 10 * config.execution.online.epochTicks;
    std::vector<ChurnEvent> head;
    for (const ChurnEvent &event : trace.events())
        if (event.tick < cut)
            head.push_back(event);
    ASSERT_FALSE(head.empty());
    ASSERT_LT(head.size(), trace.size());

    OnlineDriver prefix(fx.catalog, fx.model, config, 10);
    prefix.run(ChurnTrace(std::move(head)));
    ASSERT_LE(prefix.clockTick(), cut);

    // Round-trip the checkpoint through the v4 text format, as the
    // CLI does, so the groups section itself is under test.
    std::stringstream checkpoint;
    writeOnlineState(checkpoint, prefix.snapshot());
    OnlineDriver resumed(fx.catalog, fx.model, config, 10);
    resumed.restore(readOnlineState(checkpoint));
    const OnlineReport tail_report =
        resumed.run(trace.suffix(resumed.clockTick()));

    EXPECT_EQ(tail_report.totalArrivals, whole_report.totalArrivals);
    EXPECT_EQ(tail_report.finalGroups, whole_report.finalGroups);

    std::ostringstream whole_state, resumed_state;
    writeOnlineState(whole_state, whole.snapshot());
    writeOnlineState(resumed_state, resumed.snapshot());
    EXPECT_EQ(whole_state.str(), resumed_state.str());
}

TEST(OnlineDriverCoalition, RestoreRejectsHostileGroupStates)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 60, 11);
    const FrameworkConfig config = coalitionConfig(2);
    OnlineDriver source(fx.catalog, fx.model, config, 12);
    source.run(trace);
    const OnlineState state = source.snapshot();

    // A group larger than the configured cap must not restore.
    if (state.live.size() >= 3) {
        OnlineState oversized = state;
        oversized.groups = {{state.live[0].uid, state.live[1].uid,
                             state.live[2].uid}};
        OnlineDriver target(fx.catalog, fx.model, config, 12);
        EXPECT_THROW(target.restore(oversized), FatalError);
    }

    // A grouped uid that is not live must not restore.
    OnlineState ghost = state;
    ghost.groups = {{999991, 999992}};
    OnlineDriver target(fx.catalog, fx.model, config, 12);
    EXPECT_THROW(target.restore(ghost), FatalError);
}

TEST(OnlineDriverCoalition, RejectsDegenerateGroupSize)
{
    const Fixture fx;
    FrameworkConfig config = coalitionConfig(1);
    EXPECT_THROW(OnlineDriver(fx.catalog, fx.model, config, 1),
                 FatalError);
    config = coalitionConfig(21);
    EXPECT_THROW(OnlineDriver(fx.catalog, fx.model, config, 1),
                 FatalError);
}


// --- Pinned formation bytes ------------------------------------------

/** 64-bit FNV-1a over little-endian words. */
class Fnv1a
{
  public:
    void word(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (value >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ull;
        }
    }

    void real(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        word(bits);
    }

    void text(const std::string &bytes)
    {
        for (const unsigned char c : bytes) {
            hash_ ^= c;
            hash_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Everything a formation decides except how many rounds it took. */
void
hashFormation(Fnv1a &fnv, const FormationResult &result)
{
    fnv.word(result.structure.coalitions().size());
    for (const auto &group : result.structure.coalitions()) {
        fnv.word(group.size());
        for (const AgentId a : group)
            fnv.word(a);
    }
    fnv.word(result.blockingBefore);
    fnv.word(result.blockingAfter);
    fnv.word(result.coreStable ? 1 : 0);
    for (const double p : result.believedPenalties)
        fnv.real(p);
    for (const double p : result.truePenalties)
        fnv.real(p);
}

/** A carried structure for warm starts: shuffled agents paired off,
 *  a third of them left loose. At G >= 3 it is over the machine
 *  budget, so formation repairs it before searching. */
CoalitionStructure
carriedPairs(std::size_t n, std::uint64_t seed)
{
    std::vector<AgentId> order(n);
    for (AgentId a = 0; a < n; ++a)
        order[a] = a;
    Rng rng(seed);
    rng.shuffle(order);
    CoalitionStructure carried(n);
    for (std::size_t i = 0; i + 1 < 2 * n / 3; i += 2)
        carried.addCoalition({order[i], order[i + 1]});
    return carried;
}

/** Digest and mean rounds of one formation sweep. */
struct SweepOutcome
{
    std::uint64_t digest = 0;
    double roundsMean = 0.0;
};

/** Cold or warm-started formation over a fixed set of populations. */
SweepOutcome
formationSweep(std::size_t group_size, bool warm)
{
    const Fixture fx;
    const Rng rng(31);
    Fnv1a fnv;
    std::size_t formations = 0;
    std::size_t rounds = 0;
    for (const std::size_t agents : {12u, 18u, 24u}) {
        for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
            const Population pop = makePopulation(fx, agents, seed);
            FormationConfig config;
            config.groupSize = group_size;
            config.alpha = seed % 2 == 0 ? 0.02 : 0.0;
            config.shapleySamples = 0;
            const CoalitionStructure carried =
                carriedPairs(agents, seed + 100);
            const FormationResult result =
                formCoalitions(pop.types, pop.believed, fx.model, config,
                               rng, warm ? &carried : nullptr);
            hashFormation(fnv, result);
            ++formations;
            rounds += result.rounds;
        }
    }
    return {fnv.value(),
            static_cast<double>(rounds) / static_cast<double>(formations)};
}

std::string
hex(std::uint64_t value)
{
    std::ostringstream out;
    out << "0x" << std::hex << value;
    return out.str();
}

TEST(CoalitionPinned, FormationBytesMatchThePinnedDigests)
{
    // Digests of the formation sweep as the core-seeking search
    // played every round up to maxRounds. Stopping the search early
    // must not move a single decided byte.
    struct Case
    {
        std::size_t groupSize;
        bool warm;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {3, false, 0xc7850dc5a730f65cull},
        {3, true, 0x1be4f2426f6d53aeull},
        {4, false, 0xa4b5325a660177b2ull},
        {4, true, 0xdf3ea38cf6dbc397ull},
    };
    for (const Case &c : cases) {
        const SweepOutcome outcome = formationSweep(c.groupSize, c.warm);
        EXPECT_EQ(outcome.digest, c.digest)
            << "G=" << c.groupSize << (c.warm ? " warm" : " cold")
            << " digest " << hex(outcome.digest);
    }
}

TEST(CoalitionPinned, GroupsReplaySummaryMatchesThePinnedDigest)
{
    // A replay shaped like the benchmark's groups workload.
    const Fixture fx;
    ChurnConfig churn;
    churn.arrivals = 1500;
    churn.initialJobs = 10;
    churn.meanInterarrivalTicks = 2.0;
    churn.meanLifetimeTicks = 40.0;
    churn.openEnded = true;
    Rng trace_rng(7);
    const ChurnTrace trace =
        generateChurnTrace(fx.catalog, churn, trace_rng);

    FrameworkConfig config = coalitionConfig(3);
    config.alpha = 0.02;
    config.execution.online.epochTicks = 50;
    config.execution.online.admitPerEpoch = 12;
    OnlineDriver driver(fx.catalog, fx.model, config, 7);
    Fnv1a fnv;
    fnv.text(summaryOf(driver.run(trace)));
    EXPECT_EQ(fnv.value(), 0xf7f0c48578a07c27ull)
        << "digest " << hex(fnv.value());
}

TEST(CoalitionPinned, SearchStopsAtTheFirstRevisitedStructure)
{
    // A search that never stops early plays all 64 rounds whenever
    // blocking coalitions are left, as they are in every formation of
    // this sweep. It cycles within a couple of rounds, so stopping at
    // the first revisited structure plays only a few.
    EXPECT_LT(formationSweep(3, false).roundsMean, 8.0);
    EXPECT_LT(formationSweep(3, true).roundsMean, 8.0);
}


TEST(CoalitionPinned, StopReasonsAccountForEveryFormation)
{
    ObsConfig obs;
    obs.metrics = true;
    const ObsScope scope(obs);
    ASSERT_TRUE(scope.active());
    formationSweep(3, false);
    formationSweep(4, true);

    // A zero-round cap stops any search that starts out blocked.
    const Fixture fx;
    const Population pop = makePopulation(fx, 24, 2);
    FormationConfig config;
    config.groupSize = 3;
    config.maxRounds = 0;
    config.shapleySamples = 0;
    const FormationResult capped = formCoalitions(
        pop.types, pop.believed, fx.model, config, Rng(31));
    ASSERT_GT(capped.blockingBefore, 0u);
    EXPECT_EQ(capped.rounds, 0u);

    // Two agents sharing one machine have nowhere to deviate to.
    const Population pair = makePopulation(fx, 2, 1);
    const FormationResult settled = formCoalitions(
        pair.types, pair.believed, fx.model, config, Rng(31));
    EXPECT_TRUE(settled.coreStable);

    const MetricsSnapshot snapshot =
        scope.session()->metrics()->snapshot();
    const auto counter = [&](const std::string &name) {
        for (const auto &[key, value] : snapshot.counters)
            if (key == name)
                return value;
        return std::uint64_t(0);
    };
    const std::uint64_t formations = counter("coalition.formations");
    EXPECT_EQ(formations, 26u);
    EXPECT_EQ(counter("coalition.stop_core") +
                  counter("coalition.stop_revisit") +
                  counter("coalition.stop_round_cap"),
              formations);
    EXPECT_EQ(counter("coalition.stop_core"), 1u);
    EXPECT_EQ(counter("coalition.stop_revisit"), 24u);
    EXPECT_EQ(counter("coalition.stop_round_cap"), 1u);
}

} // namespace
} // namespace cooper
