/**
 * @file
 * Differential and property tests for the sharded online service.
 *
 * The load-bearing guarantee is the K = 1 differential: a
 * single-shard ShardedDriver must reproduce the flat OnlineDriver
 * bit-for-bit — summary bytes, checkpoint bytes, and the
 * deterministic online.* metrics — at every thread count. On top of
 * that, the router's partition must cover the catalog disjointly
 * under a balance cap, routing must follow migrated jobs, replays
 * must be byte-identical at any thread count and shard count, no job
 * may be lost across shard boundaries, and the per-epoch rebalance
 * stats must honor the migration budget with a monotone
 * non-increasing egalitarian objective. Periodic fleet checkpoints
 * honor the fault plan's checkpoint failures as the flat driver's do.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "fault/plan.hh"
#include "io/serialize.hh"
#include "obs/obs.hh"
#include "online/churn.hh"
#include "online/driver.hh"
#include "online/events.hh"
#include "shard/router.hh"
#include "shard/sharded_driver.hh"
#include "sim/interference.hh"
#include "util/error.hh"
#include "workload/catalog.hh"

namespace cooper {
namespace {

struct Fixture
{
    Catalog catalog = Catalog::paperTableI();
    InterferenceModel model{catalog};
};

ChurnTrace
makeTrace(const Catalog &catalog, std::size_t arrivals,
          std::uint64_t seed, double mean_gap = 6.0,
          double mean_life = 400.0)
{
    ChurnConfig churn;
    churn.arrivals = arrivals;
    churn.initialJobs = 12;
    churn.meanInterarrivalTicks = mean_gap;
    churn.meanLifetimeTicks = mean_life;
    Rng rng(seed);
    return generateChurnTrace(catalog, churn, rng);
}

std::string
summaryOf(const OnlineReport &report)
{
    std::ostringstream out;
    writeOnlineSummary(out, report);
    return out.str();
}

std::string
summaryOf(const ShardedReport &report)
{
    std::ostringstream out;
    writeShardedSummary(out, report);
    return out.str();
}

std::string
checkpointOf(const OnlineState &state)
{
    std::ostringstream out;
    writeOnlineState(out, state);
    return out.str();
}

std::string
checkpointOf(const ShardedState &state)
{
    std::ostringstream out;
    writeShardedState(out, state);
    return out.str();
}

/** The deterministic metrics slice: online.* counters and gauges.
 *  Timing histograms are wall-clock and excluded by design. */
std::string
onlineMetricsSlice()
{
    MetricsRegistry *metrics = obsMetrics();
    if (metrics == nullptr)
        return "<no metrics session>";
    const MetricsSnapshot snap = metrics->snapshot();
    std::ostringstream out;
    for (const auto &[name, value] : snap.counters) {
        if (name.rfind("online.", 0) == 0)
            out << name << "=" << value << "\n";
    }
    for (const auto &[name, value] : snap.gauges) {
        if (name.rfind("online.", 0) == 0)
            out << name << "=" << value << "\n";
    }
    return out.str();
}

std::size_t
arrivalsIn(const ChurnTrace &trace)
{
    std::size_t count = 0;
    for (const ChurnEvent &event : trace.events())
        count += event.kind == EventKind::Arrival ? 1 : 0;
    return count;
}

TEST(ShardRouter, PartitionCoversTheCatalogUnderTheBalanceCap)
{
    const Fixture fx;
    const std::size_t types = fx.catalog.size();
    for (const std::size_t k : {2u, 4u, 5u}) {
        const ShardRouter router(fx.catalog, k, 99);
        ASSERT_EQ(router.shards(), k);
        const std::vector<std::size_t> &table = router.typeAssignment();
        ASSERT_EQ(table.size(), types);

        std::vector<std::size_t> counts(k, 0);
        for (const std::size_t shard : table) {
            ASSERT_LT(shard, k);
            ++counts[shard];
        }
        const std::size_t cap = (types + k - 1) / k;
        for (const std::size_t count : counts) {
            EXPECT_GE(count, 1u);
            EXPECT_LE(count, cap);
        }
    }
}

TEST(ShardRouter, ClampsMoreShardsThanTypes)
{
    // The K > catalog edge must clamp, not crash: kmeans itself
    // rejects k > n points, so the router may never forward that.
    const Fixture fx;
    const ShardRouter router(fx.catalog, 64, 7);
    EXPECT_EQ(router.shards(), fx.catalog.size());

    // With as many shards as types the partition is a bijection.
    std::vector<std::size_t> seen(router.shards(), 0);
    for (const std::size_t shard : router.typeAssignment())
        ++seen[shard];
    for (const std::size_t count : seen)
        EXPECT_EQ(count, 1u);

    const ShardRouter single(fx.catalog, 1, 7);
    EXPECT_EQ(single.shards(), 1u);
    for (const std::size_t shard : single.typeAssignment())
        EXPECT_EQ(shard, 0u);
}

TEST(ShardRouter, PartitionIsAPureFunctionOfItsInputs)
{
    const Fixture fx;
    const ShardRouter a(fx.catalog, 4, 2017);
    const ShardRouter b(fx.catalog, 4, 2017);
    EXPECT_EQ(a.typeAssignment(), b.typeAssignment());
}

TEST(ShardRouter, DeparturesFollowMigratedJobs)
{
    const Fixture fx;
    ShardRouter router(fx.catalog, 4, 1);

    const ChurnEvent arrival{10, EventKind::Arrival, 7, 3};
    const std::size_t home = router.route(arrival);
    EXPECT_EQ(home, router.shardOfType(3));
    EXPECT_EQ(router.shardOfUid(7), home);

    const std::size_t away = (home + 1) % router.shards();
    router.recordMigration(7, away);
    EXPECT_EQ(router.shardOfUid(7), away);

    const ChurnEvent departure{20, EventKind::Departure, 7, 3};
    EXPECT_EQ(router.route(departure), away);

    // Routed once, the uid is forgotten; a second departure is the
    // trace-validation failure the router promises to refuse.
    EXPECT_THROW(router.route(departure), FatalError);
}

TEST(ShardedDriver, SingleShardMatchesTheFlatDriverByteForByte)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 500, 2);
    EXPECT_GE(trace.size(), 900u);

    for (const std::size_t threads : {1u, 2u, 8u}) {
        FrameworkConfig config;
        config.execution.threads = threads;

        OnlineDriver flat(fx.catalog, fx.model, config, 17);
        const OnlineReport flat_report = flat.run(trace);

        config.execution.online.shards = 1;
        ShardedDriver sharded(fx.catalog, fx.model, config, 17);
        const ShardedReport report = sharded.run(trace);

        ASSERT_EQ(report.shards, 1u);
        ASSERT_EQ(report.perShard.size(), 1u);
        EXPECT_EQ(summaryOf(report.perShard[0]), summaryOf(flat_report))
            << "threads=" << threads;
        EXPECT_EQ(checkpointOf(sharded.shard(0).snapshot()),
                  checkpointOf(flat.snapshot()))
            << "threads=" << threads;
    }
}

TEST(ShardedDriver, SingleShardMatchesTheFlatDriverMetrics)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 120, 3);
    ObsConfig obs_config;
    obs_config.metrics = true;

    std::string flat_slice;
    {
        const ObsScope obs(obs_config);
        FrameworkConfig config;
        OnlineDriver flat(fx.catalog, fx.model, config, 11);
        flat.run(trace);
        flat_slice = onlineMetricsSlice();
    }

    std::string sharded_slice;
    {
        const ObsScope obs(obs_config);
        FrameworkConfig config;
        config.execution.online.shards = 1;
        ShardedDriver sharded(fx.catalog, fx.model, config, 11);
        sharded.run(trace);
        sharded_slice = onlineMetricsSlice();
    }

    EXPECT_FALSE(flat_slice.empty());
    EXPECT_EQ(sharded_slice, flat_slice);
}

TEST(ShardedDriver, SummaryIsByteIdenticalAtAnyThreadCount)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 300, 5);

    std::vector<std::string> summaries;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        FrameworkConfig config;
        config.execution.threads = threads;
        config.execution.online.shards = 3;
        ShardedDriver driver(fx.catalog, fx.model, config, 23);
        summaries.push_back(summaryOf(driver.run(trace)));
    }
    EXPECT_EQ(summaries[0], summaries[1]);
    EXPECT_EQ(summaries[0], summaries[2]);
}

TEST(ShardedDriver, ReplayIsByteIdenticalAtEveryShardCount)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 200, 6);

    for (const std::size_t k : {1u, 2u, 4u}) {
        FrameworkConfig config;
        config.execution.online.shards = k;
        ShardedDriver first(fx.catalog, fx.model, config, 29);
        ShardedDriver second(fx.catalog, fx.model, config, 29);
        EXPECT_EQ(summaryOf(first.run(trace)),
                  summaryOf(second.run(trace)))
            << "shards=" << k;
    }
}

TEST(ShardedDriver, NoJobIsLostAcrossShardBoundaries)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 200, 8);
    const std::size_t arrivals = arrivalsIn(trace);

    for (const std::size_t k : {1u, 2u, 4u}) {
        FrameworkConfig config;
        config.execution.online.shards = k;
        ShardedDriver driver(fx.catalog, fx.model, config, 31);
        const ShardedReport report = driver.run(trace);

        // Every trace arrival lands in exactly one shard (migrants
        // re-enter through acceptMigrant, which is not an arrival).
        std::size_t routed = 0;
        std::size_t population = 0;
        for (const OnlineReport &shard : report.perShard) {
            routed += shard.totalArrivals;
            population += shard.finalPopulation;
        }
        EXPECT_EQ(routed, arrivals) << "shards=" << k;
        EXPECT_EQ(population, report.finalPopulation) << "shards=" << k;
    }
}

TEST(ShardedDriver, EpochStatsHonorTheBudgetAndTheObjectiveIsMonotone)
{
    const Fixture fx;
    const ChurnTrace trace =
        makeTrace(fx.catalog, 300, 9, /*mean_gap=*/3.0,
                  /*mean_life=*/900.0);

    FrameworkConfig config;
    config.execution.online.shards = 4;
    config.execution.online.rebalanceBudgetPerEpoch = 2;
    ShardedDriver driver(fx.catalog, fx.model, config, 37);
    const ShardedReport report = driver.run(trace);

    ASSERT_FALSE(report.epochs.empty());
    std::size_t migrations = 0;
    for (const ShardEpochStats &epoch : report.epochs) {
        EXPECT_LE(epoch.migrations, 2u);
        EXPECT_LE(epoch.objectiveAfter, epoch.objectiveBefore + 1e-9);
        EXPECT_LT(epoch.worstShard, report.shards);
        migrations += epoch.migrations;
    }
    EXPECT_EQ(migrations, report.totalCrossMigrations);

    // Budget zero switches rebalancing off entirely.
    config.execution.online.rebalanceBudgetPerEpoch = 0;
    ShardedDriver frozen(fx.catalog, fx.model, config, 37);
    EXPECT_EQ(frozen.run(trace).totalCrossMigrations, 0u);
}

TEST(ShardedDriver, MidRunRestoreReachesTheStraightThroughState)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 200, 12);

    FrameworkConfig config;
    config.execution.online.shards = 3;
    config.execution.online.checkpointEveryEpochs = 3;

    // Straight through, capturing the first periodic checkpoint.
    ShardedDriver straight(fx.catalog, fx.model, config, 41);
    ShardedState mid;
    bool captured = false;
    straight.setCheckpointSink([&](const ShardedState &state) {
        if (!captured) {
            mid = state;
            captured = true;
        }
        return true;
    });
    const ShardedReport full_report = straight.run(trace);
    ASSERT_TRUE(captured);
    ASSERT_GT(full_report.epochs.size(), mid.epoch);

    // Resume from the mid-run state and drain the rest of the trace.
    ShardedDriver resumed(fx.catalog, fx.model, config, 41);
    resumed.restore(mid);
    EXPECT_EQ(resumed.epoch(), mid.epoch);
    resumed.run(trace.suffix(resumed.clockTick()));

    EXPECT_EQ(checkpointOf(resumed.snapshot()),
              checkpointOf(straight.snapshot()));
}

TEST(ShardedDriver, CheckpointsHonorThePlansCheckpointFailures)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 200, 12);

    FaultSpec spec;
    spec.seed = 1;
    spec.checkpointFailRate = 0.5;
    ScriptedFault fail;
    fail.epoch = 6;
    fail.kind = FaultKind::CheckpointFail;
    const FaultPlan plan(spec, {fail});

    FrameworkConfig config;
    config.execution.online.checkpointEveryEpochs = 3;

    // K = 1: the fleet sink sees exactly the flat driver's writes.
    std::vector<std::uint64_t> flat_epochs, fleet_epochs;
    OnlineDriver flat(fx.catalog, fx.model, config, 51);
    flat.setFaultPlan(plan);
    flat.setCheckpointSink([&](const OnlineState &state) {
        flat_epochs.push_back(state.epoch);
        return true;
    });
    flat.run(trace);
    config.execution.online.shards = 1;
    ShardedDriver single(fx.catalog, fx.model, config, 51);
    single.setFaultPlan(plan);
    single.setCheckpointSink([&](const ShardedState &state) {
        fleet_epochs.push_back(state.epoch);
        return true;
    });
    single.run(trace);
    EXPECT_EQ(fleet_epochs, flat_epochs);
    EXPECT_EQ(std::count(flat_epochs.begin(), flat_epochs.end(), 6u), 0);

    config.execution.online.shards = 4;
    for (const std::size_t threads : {1u, 8u}) {
        config.execution.threads = threads;
        ObsConfig obs_config;
        obs_config.metrics = true;
        const ObsScope obs(obs_config);

        ShardedDriver whole(fx.catalog, fx.model, config, 53);
        whole.setFaultPlan(plan);
        std::vector<ShardedState> kept;
        whole.setCheckpointSink([&](const ShardedState &state) {
            kept.push_back(state);
            return true;
        });
        const ShardedReport whole_report = whole.run(trace);

        // Every skipped cadence epoch is one counted failure.
        std::uint64_t skipped = 0, cadence = 0;
        for (std::uint64_t e = 3; e <= whole.epoch(); e += 3) {
            ++cadence;
            skipped += plan.checkpointFails(e) ? 1 : 0;
        }
        ASSERT_GT(skipped, 1u);
        ASSERT_FALSE(kept.empty());
        EXPECT_EQ(kept.size() + skipped, cadence);
        std::uint64_t failures = 0;
        for (const auto &[name, value] : obsMetrics()->snapshot().counters)
            if (name == "shard.checkpoint_failures")
                failures = value;
        EXPECT_EQ(failures, skipped) << "threads " << threads;
        for (const ShardedState &state : kept)
            EXPECT_FALSE(plan.checkpointFails(state.epoch));

        // Resume from the last kept checkpoint and drain the rest.
        const ShardedState &last = kept.back();
        ShardedDriver resumed(fx.catalog, fx.model, config, 53);
        resumed.setFaultPlan(plan);
        resumed.restore(last);
        const ShardedReport tail_report =
            resumed.run(trace.suffix(resumed.clockTick()));

        ShardedReport expected = whole_report;
        expected.epochs.erase(expected.epochs.begin(),
                              expected.epochs.begin() +
                                  static_cast<std::ptrdiff_t>(last.epoch));
        EXPECT_EQ(summaryOf(tail_report), summaryOf(expected))
            << "threads " << threads;
        EXPECT_EQ(checkpointOf(resumed.snapshot()),
                  checkpointOf(whole.snapshot()))
            << "threads " << threads;
    }
}

/** Observation count of histogram `name`; 0 when never recorded. */
std::uint64_t
histogramCount(const MetricsSnapshot &snap, const std::string &name)
{
    for (const auto &[key, histogram] : snap.histograms)
        if (key == name)
            return histogram.count;
    return 0;
}

TEST(ShardedDriver, StageTimersCountTheEpochsThatRanEachStage)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 240, 17, 20.0, 300.0);
    for (const std::size_t threads : {1u, 8u}) {
        FrameworkConfig config;
        config.execution.threads = threads;
        config.execution.online.shards = 3;
        config.execution.online.checkpointEveryEpochs = 3;

        ObsConfig obs;
        obs.metrics = true;
        const ObsScope scope(obs);
        ShardedDriver driver(fx.catalog, fx.model, config, 5);
        driver.setCheckpointSink([](const ShardedState &) { return true; });
        const ShardedReport report = driver.run(trace);
        const MetricsSnapshot snap = scope.session()->metrics()->snapshot();

        const std::uint64_t epochs = report.epochs.size();
        std::uint64_t shardEpochs = 0;
        std::uint64_t paired = 0;
        for (const OnlineReport &shard : report.perShard)
            for (const OnlineEpochStats &epoch : shard.epochs) {
                ++shardEpochs;
                paired += epoch.population >= 2 ? 1 : 0;
            }
        SCOPED_TRACE(::testing::Message() << "threads " << threads);
        ASSERT_GT(epochs, 3u);
        ASSERT_GT(paired, 0u);

        EXPECT_EQ(histogramCount(snap, "shard.epoch_seconds"), epochs);
        EXPECT_EQ(histogramCount(snap, "shard.stage.route_seconds"), epochs);
        EXPECT_EQ(histogramCount(snap, "shard.stage.rebalance_seconds"),
                  epochs);
        // A fleet checkpoint is due after every third committed epoch.
        EXPECT_EQ(histogramCount(snap, "shard.stage.checkpoint_seconds"),
                  epochs / 3);
        for (const char *every :
             {"online.stage.drain_seconds", "online.stage.fault_seconds",
              "online.stage.admit_seconds", "online.stage.commit_seconds"})
            EXPECT_EQ(histogramCount(snap, every), shardEpochs) << every;
        for (const char *pairedOnly :
             {"online.predict_seconds", "online.stage.instance_seconds",
              "online.stage.believed_seconds", "online.stage.match_seconds"})
            EXPECT_EQ(histogramCount(snap, pairedOnly), paired)
                << pairedOnly;
    }
}

TEST(ShardedDriver, SummaryIsByteIdenticalWithMetricsOnAndOff)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 240, 19, 4.0, 500.0);
    for (const std::size_t threads : {1u, 8u}) {
        std::vector<std::string> summaries;
        std::vector<std::string> checkpoints;
        for (const bool metrics : {false, true}) {
            FrameworkConfig config;
            config.execution.threads = threads;
            config.execution.online.shards = 4;
            config.execution.online.checkpointEveryEpochs = 2;
            ObsConfig obs;
            obs.metrics = metrics;
            const ObsScope scope(obs);
            ShardedDriver driver(fx.catalog, fx.model, config, 7);
            std::string last;
            driver.setCheckpointSink([&last](const ShardedState &state) {
                last = checkpointOf(state);
                return true;
            });
            summaries.push_back(summaryOf(driver.run(trace)));
            checkpoints.push_back(last);
        }
        EXPECT_FALSE(checkpoints[0].empty());
        EXPECT_EQ(summaries[1], summaries[0]) << "threads " << threads;
        EXPECT_EQ(checkpoints[1], checkpoints[0]) << "threads " << threads;
    }
}

TEST(ShardedDriver, RestoreRefusesForeignCheckpoints)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 80, 13);

    FrameworkConfig config;
    config.execution.online.shards = 2;
    ShardedDriver driver(fx.catalog, fx.model, config, 43);
    driver.run(trace);
    const ShardedState state = driver.snapshot();

    // Wrong root seed.
    ShardedDriver other_seed(fx.catalog, fx.model, config, 44);
    EXPECT_THROW(other_seed.restore(state), FatalError);

    // Wrong shard count.
    FrameworkConfig wide = config;
    wide.execution.online.shards = 4;
    ShardedDriver other_count(fx.catalog, fx.model, wide, 43);
    EXPECT_THROW(other_count.restore(state), FatalError);
}

} // namespace
} // namespace cooper
