/**
 * @file
 * Property tests for the online colocation service: trace replay is
 * deterministic at any thread count, backpressure counts every
 * rejection, the repairing policy honors its migration budget, the
 * published online.* counters equal the summary's lifetime totals,
 * and a mid-run checkpoint/restore (including one from a periodic
 * checkpoint taken after a failed write) replays into exactly the
 * state a straight-through run reaches.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/plan.hh"
#include "io/serialize.hh"
#include "obs/obs.hh"
#include "online/churn.hh"
#include "online/driver.hh"
#include "online/events.hh"
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
          double mean_life = 400.0, bool open_ended = false)
{
    ChurnConfig churn;
    churn.arrivals = arrivals;
    churn.initialJobs = 12;
    churn.meanInterarrivalTicks = mean_gap;
    churn.meanLifetimeTicks = mean_life;
    churn.openEnded = open_ended;
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

TEST(ChurnTrace, RoundTripsThroughStreams)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 40, 1);
    ASSERT_FALSE(trace.empty());

    std::stringstream buffer;
    writeTrace(buffer, trace);
    const ChurnTrace back = readTrace(buffer);

    ASSERT_EQ(back.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(back.events()[i].tick, trace.events()[i].tick);
        EXPECT_EQ(back.events()[i].kind, trace.events()[i].kind);
        EXPECT_EQ(back.events()[i].uid, trace.events()[i].uid);
        EXPECT_EQ(back.events()[i].type, trace.events()[i].type);
    }
}

TEST(EventQueue, PopsByTickThenPushOrder)
{
    EventQueue queue;
    queue.push(ChurnEvent{30, EventKind::Arrival, 3, 0});
    queue.push(ChurnEvent{10, EventKind::Arrival, 1, 0});
    queue.push(ChurnEvent{10, EventKind::Arrival, 2, 0});
    queue.push(ChurnEvent{10, EventKind::Departure, 1, 0});

    EXPECT_EQ(queue.pop().uid, 1u);
    const ChurnEvent second = queue.pop();
    EXPECT_EQ(second.uid, 2u);
    EXPECT_EQ(second.kind, EventKind::Arrival);
    EXPECT_EQ(queue.pop().kind, EventKind::Departure);
    EXPECT_EQ(queue.pop().tick, 30u);
    EXPECT_TRUE(queue.empty());
}

TEST(OnlineDriver, SameTraceSameSummaryAtAnyThreadCount)
{
    const Fixture fx;
    // ~1k events: every arrival pairs with a departure.
    const ChurnTrace trace = makeTrace(fx.catalog, 500, 2);
    EXPECT_GE(trace.size(), 900u);

    std::vector<std::string> summaries;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        FrameworkConfig config;
        config.execution.threads = threads;
        OnlineDriver driver(fx.catalog, fx.model, config, 17);
        summaries.push_back(summaryOf(driver.run(trace)));
    }
    EXPECT_EQ(summaries[0], summaries[1]);
    EXPECT_EQ(summaries[0], summaries[2]);
}

TEST(OnlineDriver, ReplayingTwiceIsBitIdentical)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 80, 3);
    const FrameworkConfig config;

    OnlineDriver first(fx.catalog, fx.model, config, 5);
    OnlineDriver second(fx.catalog, fx.model, config, 5);
    EXPECT_EQ(summaryOf(first.run(trace)), summaryOf(second.run(trace)));
}

TEST(OnlineDriver, BackpressureRejectsBeyondTheQueueBound)
{
    const Fixture fx;
    // A tight burst against a tiny queue and slow admission.
    const ChurnTrace trace =
        makeTrace(fx.catalog, 120, 4, /*mean_gap=*/0.5);
    FrameworkConfig config;
    config.execution.online.admitPerEpoch = 2;
    config.execution.online.maxQueueDepth = 4;

    OnlineDriver driver(fx.catalog, fx.model, config, 6);
    const OnlineReport report = driver.run(trace);

    EXPECT_GT(report.totalRejected, 0u);
    // Every arrival is admitted, rejected, or withdrawn (it departed
    // while still waiting in the queue) — never lost.
    EXPECT_LE(report.totalAdmitted + report.totalRejected,
              report.totalArrivals);
    for (const OnlineEpochStats &e : report.epochs)
        EXPECT_LE(e.queueDepth, 4u);
}

TEST(OnlineDriver, UnboundedQueueAdmitsEverything)
{
    const Fixture fx;
    // Open-ended, near-immortal jobs: nothing departs, so no arrival
    // can be withdrawn while waiting — the queue must drain fully.
    const ChurnTrace trace =
        makeTrace(fx.catalog, 120, 4, /*mean_gap=*/0.5,
                  /*mean_life=*/1e6, /*open_ended=*/true);
    FrameworkConfig config;
    config.execution.online.admitPerEpoch = 2;
    config.execution.online.maxQueueDepth = 0; // unbounded

    OnlineDriver driver(fx.catalog, fx.model, config, 6);
    const OnlineReport report = driver.run(trace);
    EXPECT_EQ(report.totalRejected, 0u);
    EXPECT_EQ(report.totalAdmitted, report.totalArrivals);
}

/** Churned beliefs (refresh probes under noise) force repairs. */
FrameworkConfig
repairHappyConfig()
{
    FrameworkConfig config;
    config.alpha = 0.0;
    config.noise.sigma = 0.02;
    config.execution.online.refreshProbesPerEpoch = 8;
    return config;
}

TEST(OnlineDriver, RepairsRespectTheMigrationBudget)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 150, 7);
    FrameworkConfig config = repairHappyConfig();
    config.execution.online.migrationBudget = 2;
    // Effectively never fall back to a full re-match.
    config.execution.online.fullRematchBlockingPairs = 100000;

    OnlineDriver driver(fx.catalog, fx.model, config, 8);
    const OnlineReport report = driver.run(trace);

    EXPECT_GT(report.totalPairsBroken, 0u); // the budget was exercised
    EXPECT_EQ(report.totalFullRematches, 0u);
    for (const OnlineEpochStats &e : report.epochs)
        EXPECT_LE(e.pairsBroken, 2u);
}

TEST(OnlineDriver, BlockingFloodTriggersAFullRematch)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 150, 7);
    FrameworkConfig config = repairHappyConfig();
    config.execution.online.fullRematchBlockingPairs = 1;

    OnlineDriver driver(fx.catalog, fx.model, config, 8);
    const OnlineReport report = driver.run(trace);
    EXPECT_GT(report.totalFullRematches, 0u);
}

TEST(OnlineDriver, MidRunCheckpointResumesExactly)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 200, 9);
    FrameworkConfig config;
    // Unbounded queue + generous admission: the prefix run drains
    // without running epochs past the cut, so its final clock lands
    // at or before the cut tick.
    config.execution.online.admitPerEpoch = 64;
    config.execution.online.maxQueueDepth = 0;

    // Straight through.
    OnlineDriver whole(fx.catalog, fx.model, config, 10);
    const OnlineReport whole_report = whole.run(trace);

    // Cut at an epoch boundary mid-trace; replay the prefix.
    const Tick cut = 10 * config.execution.online.epochTicks;
    std::vector<ChurnEvent> head;
    for (const ChurnEvent &event : trace.events())
        if (event.tick < cut)
            head.push_back(event);
    ASSERT_FALSE(head.empty());
    ASSERT_LT(head.size(), trace.size());

    OnlineDriver prefix(fx.catalog, fx.model, config, 10);
    const OnlineReport prefix_report =
        prefix.run(ChurnTrace(std::move(head)));
    ASSERT_LE(prefix.clockTick(), cut);

    // Resume a fresh driver from the checkpoint over the tail.
    OnlineDriver resumed(fx.catalog, fx.model, config, 10);
    resumed.restore(prefix.snapshot());
    const OnlineReport tail_report =
        resumed.run(trace.suffix(resumed.clockTick()));

    // The stitched run must equal the straight-through run: same
    // lifetime totals, same epoch sequence, same final state.
    EXPECT_EQ(tail_report.totalArrivals, whole_report.totalArrivals);
    EXPECT_EQ(tail_report.totalMigrations, whole_report.totalMigrations);
    EXPECT_EQ(tail_report.totalProbes, whole_report.totalProbes);
    ASSERT_EQ(prefix_report.epochs.size() + tail_report.epochs.size(),
              whole_report.epochs.size());
    for (std::size_t i = 0; i < whole_report.epochs.size(); ++i) {
        const OnlineEpochStats &expect = whole_report.epochs[i];
        const OnlineEpochStats &got =
            i < prefix_report.epochs.size()
                ? prefix_report.epochs[i]
                : tail_report.epochs[i - prefix_report.epochs.size()];
        EXPECT_EQ(got.epoch, expect.epoch);
        EXPECT_EQ(got.population, expect.population);
        EXPECT_EQ(got.migrations, expect.migrations);
        EXPECT_EQ(got.meanPenalty, expect.meanPenalty);
    }

    std::ostringstream whole_state, resumed_state;
    writeOnlineState(whole_state, whole.snapshot());
    writeOnlineState(resumed_state, resumed.snapshot());
    EXPECT_EQ(whole_state.str(), resumed_state.str());
}

/** Each lifetime total of `report` beside the counter that
 *  publishes it. */
std::vector<std::pair<std::string, std::size_t>>
publishedTotals(const OnlineReport &report)
{
    return {
        {"online.arrivals", report.totalArrivals},
        {"online.departures", report.totalDepartures},
        {"online.admitted", report.totalAdmitted},
        {"online.probes", report.totalProbes},
        {"online.migrations", report.totalMigrations},
        {"online.pairs_broken", report.totalPairsBroken},
        {"online.full_rematches", report.totalFullRematches},
        {"online.faults_injected", report.totalFaultsInjected},
        {"online.retries", report.totalRetries},
        {"online.crashes", report.totalCrashes},
        {"online.quarantined", report.totalQuarantined},
        {"online.quarantine_released", report.totalQuarantineReleased},
        {"online.abandoned", report.totalAbandoned},
        {"online.cf_fallbacks", report.totalCfFallbacks},
        {"online.checkpoint_failures", report.totalCheckpointFailures},
    };
}

/** Replay with metrics on; require every online.* count to equal
 *  the matching summary total. */
OnlineReport
expectMetricsMatchTotals(const Fixture &fx, const ChurnTrace &trace,
                         const FrameworkConfig &config,
                         const FaultPlan &plan, const std::string &label)
{
    ObsConfig obs;
    obs.metrics = true;
    const ObsScope scope(obs);
    EXPECT_TRUE(scope.active());

    OnlineDriver driver(fx.catalog, fx.model, config, 23);
    driver.setFaultPlan(plan);
    driver.setCheckpointSink([](const OnlineState &) { return true; });
    const OnlineReport report = driver.run(trace);

    std::map<std::string, std::uint64_t> counters;
    for (const auto &[name, value] :
         scope.session()->metrics()->snapshot().counters)
        counters.emplace(name, value);
    for (const auto &[name, total] : publishedTotals(report)) {
        const auto it = counters.find(name);
        if (it == counters.end()) {
            ADD_FAILURE() << label << ": " << name
                          << " not published (summary total " << total
                          << ")";
            continue;
        }
        EXPECT_EQ(it->second, total) << label << ": " << name;
    }
    return report;
}

TEST(OnlineDriver, MetricsEqualTheSummaryTotals)
{
    const Fixture fx;
    for (const std::size_t threads : {1u, 8u}) {
        const std::string at = " threads " + std::to_string(threads);

        // (a) SMR at alpha 0 with a rematch threshold that fires.
        FrameworkConfig rematch = repairHappyConfig();
        rematch.execution.threads = threads;
        rematch.execution.online.fullRematchBlockingPairs = 1;
        const OnlineReport a = expectMetricsMatchTotals(
            fx, makeTrace(fx.catalog, 150, 7), rematch, FaultPlan(),
            "rematch" + at);
        EXPECT_GT(a.totalFullRematches, 0u) << at;

        // (b) A groups-shaped coalition replay at G=3.
        ChurnConfig churn;
        churn.arrivals = 300;
        churn.initialJobs = 10;
        churn.meanInterarrivalTicks = 2.0;
        churn.meanLifetimeTicks = 40.0;
        Rng trace_rng(7);
        const ChurnTrace groups_trace =
            generateChurnTrace(fx.catalog, churn, trace_rng);
        FrameworkConfig groups;
        groups.policy = "coalition";
        groups.alpha = 0.02;
        groups.execution.threads = threads;
        groups.execution.online.groupSize = 3;
        groups.execution.online.epochTicks = 50;
        groups.execution.online.admitPerEpoch = 12;
        groups.execution.online.maxQueueDepth = 0;
        const OnlineReport b = expectMetricsMatchTotals(
            fx, groups_trace, groups, FaultPlan(), "groups" + at);
        EXPECT_GT(b.totalPairsBroken, 0u) << at;

        // (c) SMR under crashes and failing checkpoint writes.
        FaultSpec spec;
        spec.seed = 2;
        spec.probeTimeoutRate = 0.2;
        spec.crashRatePerEpoch = 0.2;
        spec.checkpointFailRate = 0.5;
        FrameworkConfig faulty;
        faulty.execution.threads = threads;
        faulty.execution.online.checkpointEveryEpochs = 3;
        const OnlineReport c = expectMetricsMatchTotals(
            fx, makeTrace(fx.catalog, 200, 9), faulty, FaultPlan(spec),
            "faults" + at);
        EXPECT_GT(c.totalCheckpointFailures, 0u) << at;
        EXPECT_GT(c.totalCrashes, 0u) << at;
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

TEST(OnlineDriver, StageTimersCountTheEpochsThatRanEachStage)
{
    const Fixture fx;
    // Sparse arrivals with short lives: the population keeps falling
    // below two, so the paired stages skip some epochs.
    const ChurnTrace trace = makeTrace(fx.catalog, 80, 13, 60.0, 90.0);
    struct Mode
    {
        const char *policy;
        bool incrementalBlocking;
    };
    for (const std::size_t threads : {1u, 8u}) {
        for (const Mode mode : {Mode{"SMR", true}, Mode{"SMR", false},
                                Mode{"coalition", false}}) {
            FrameworkConfig config;
            config.policy = mode.policy;
            config.execution.threads = threads;
            config.execution.online.groupSize = 3;
            config.execution.online.incrementalBlocking =
                mode.incrementalBlocking;

            ObsConfig obs;
            obs.metrics = true;
            const ObsScope scope(obs);
            OnlineDriver driver(fx.catalog, fx.model, config, 31);
            const OnlineReport report = driver.run(trace);
            const MetricsSnapshot snap =
                scope.session()->metrics()->snapshot();

            const std::uint64_t epochs = report.epochs.size();
            std::uint64_t paired = 0;
            for (const OnlineEpochStats &epoch : report.epochs)
                paired += epoch.population >= 2 ? 1 : 0;
            SCOPED_TRACE(::testing::Message()
                         << mode.policy << " incremental "
                         << mode.incrementalBlocking << " threads "
                         << threads);
            ASSERT_GT(paired, 0u);
            ASSERT_LT(paired, epochs);

            for (const char *every :
                 {"online.epoch_seconds", "online.stage.drain_seconds",
                  "online.stage.fault_seconds",
                  "online.stage.admit_seconds",
                  "online.stage.commit_seconds"})
                EXPECT_EQ(histogramCount(snap, every), epochs) << every;
            // With no fault plan every probe lands, so prediction runs
            // whenever there is someone to pair.
            for (const char *pairedOnly :
                 {"online.predict_seconds", "online.stage.instance_seconds",
                  "online.stage.believed_seconds",
                  "online.stage.match_seconds"})
                EXPECT_EQ(histogramCount(snap, pairedOnly), paired)
                    << pairedOnly;
        }
    }
}

TEST(OnlineDriver, RestoresFromAPeriodicCheckpointAfterAFailedWrite)
{
    // Checkpoints every 2 epochs; the write at epoch 4 is scripted to
    // fail, so the first state kept after it (epoch 6) already counts
    // one checkpoint failure. Resuming from it must land on the
    // straight-through run's summary and checkpoint bytes, which
    // holds only if each epoch's counts reach the lifetime totals
    // before that epoch's checkpoint is taken.
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 150, 19);
    ScriptedFault write_fails;
    write_fails.epoch = 4;
    write_fails.kind = FaultKind::CheckpointFail;
    FaultSpec spec;
    spec.seed = 3;
    spec.probeTimeoutRate = 0.1;
    spec.measurementDropRate = 0.05;
    const FaultPlan plan(spec, {write_fails});

    for (const std::size_t threads : {1u, 2u, 8u}) {
        FrameworkConfig config;
        config.execution.threads = threads;
        config.execution.online.checkpointEveryEpochs = 2;

        OnlineDriver whole(fx.catalog, fx.model, config, 21);
        whole.setFaultPlan(plan);
        std::vector<OnlineState> kept;
        whole.setCheckpointSink([&kept](const OnlineState &state) {
            kept.push_back(state);
            return true;
        });
        const OnlineReport whole_report = whole.run(trace);
        ASSERT_EQ(whole_report.totalCheckpointFailures, 1u);
        ASSERT_GT(whole_report.totalFaultsInjected, 1u);

        const auto after = std::find_if(
            kept.begin(), kept.end(),
            [](const OnlineState &state) { return state.epoch > 4; });
        ASSERT_NE(after, kept.end());
        EXPECT_EQ(after->epoch, 6u);
        EXPECT_EQ(after->totals.checkpointFailures, 1u);

        OnlineDriver resumed(fx.catalog, fx.model, config, 21);
        resumed.setFaultPlan(plan);
        resumed.setCheckpointSink([](const OnlineState &) { return true; });
        resumed.restore(*after);
        const OnlineReport tail_report =
            resumed.run(trace.suffix(resumed.clockTick()));

        // The straight-through summary as a run resumed at the same
        // epoch would write it.
        OnlineReport expected = whole_report;
        expected.startEpoch = after->epoch;
        expected.epochs.erase(expected.epochs.begin(),
                              expected.epochs.begin() +
                                  static_cast<std::ptrdiff_t>(after->epoch));
        EXPECT_EQ(summaryOf(tail_report), summaryOf(expected))
            << "threads " << threads;

        std::ostringstream whole_state, resumed_state;
        writeOnlineState(whole_state, whole.snapshot());
        writeOnlineState(resumed_state, resumed.snapshot());
        EXPECT_EQ(whole_state.str(), resumed_state.str())
            << "threads " << threads;
    }
}

TEST(OnlineDriver, RestoreRejectsForeignCheckpoints)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 30, 11);
    const FrameworkConfig config;

    OnlineDriver source(fx.catalog, fx.model, config, 12);
    source.run(trace);
    const OnlineState state = source.snapshot();

    OnlineDriver wrong_seed(fx.catalog, fx.model, config, 13);
    EXPECT_THROW(wrong_seed.restore(state), FatalError);

    OnlineState wrong_shape = state;
    wrong_shape.ratings = SparseMatrix(3, 3);
    OnlineDriver shape_check(fx.catalog, fx.model, config, 12);
    EXPECT_THROW(shape_check.restore(wrong_shape), FatalError);

    OnlineState bad_pair = state;
    bad_pair.pairs.assign({{999999, 1000000}});
    OnlineDriver pair_check(fx.catalog, fx.model, config, 12);
    EXPECT_THROW(pair_check.restore(bad_pair), FatalError);
}

TEST(OnlineDriver, RejectsDegenerateConfigs)
{
    const Fixture fx;
    FrameworkConfig config;
    config.execution.online.admitPerEpoch = 0;
    EXPECT_THROW(OnlineDriver(fx.catalog, fx.model, config, 1),
                 FatalError);

    FrameworkConfig zero_ticks;
    zero_ticks.execution.online.epochTicks = 0;
    EXPECT_THROW(OnlineDriver(fx.catalog, fx.model, zero_ticks, 1),
                 FatalError);
}

TEST(OnlineDriver, TraceBeforeTheClockIsFatal)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 40, 14);
    const FrameworkConfig config;

    OnlineDriver driver(fx.catalog, fx.model, config, 15);
    driver.run(trace);
    ASSERT_GT(driver.clockTick(), 0u);
    EXPECT_THROW(driver.run(trace), FatalError);
}

} // namespace
} // namespace cooper
