#include "sharded_driver.hh"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <utility>

#include "obs/obs.hh"
#include "util/error.hh"
#include "util/thread_pool.hh"

namespace cooper {

namespace {

// Substream purpose tag for deriving per-shard root seeds (the
// router's kRouterStream = 0xD1 is the only other shard-layer tag).
constexpr std::uint64_t kShardSeedStream = 0xD2;

/**
 * Per-shard root seed. One shard must reproduce the flat driver
 * bit-for-bit, so K = 1 keeps the root seed itself; K > 1 derives a
 * disjoint substream per shard index, so no two shards ever share
 * generator state and a shard's replay is independent of K only in
 * the K = 1 case (different K is a different partition, hence a
 * legitimately different run).
 */
std::uint64_t
shardSeed(std::uint64_t seed, std::size_t count, std::size_t shard)
{
    if (count == 1)
        return seed;
    Rng stream = Rng(seed).substream(kShardSeedStream).substream(shard);
    return stream();
}

std::string
jsonNum(double value)
{
    std::ostringstream os;
    os << std::setprecision(17) << value;
    return os.str();
}

} // namespace

ShardedDriver::ShardedDriver(const Catalog &catalog,
                             const InterferenceModel &model,
                             FrameworkConfig config, std::uint64_t seed)
    : catalog_(&catalog), config_(std::move(config)), seed_(seed),
      router_(catalog, config_.execution.online.shards, seed),
      rebalancer_(config_.execution.online.rebalanceBudgetPerEpoch)
{
    const std::size_t count = router_.shards();
    queues_.resize(count);
    drivers_.reserve(count);
    for (std::size_t s = 0; s < count; ++s)
        drivers_.push_back(std::make_unique<OnlineDriver>(
            catalog, model, config_, shardSeed(seed, count, s)));
}

const OnlineDriver &
ShardedDriver::shard(std::size_t index) const
{
    fatalIf(index >= drivers_.size(), "ShardedDriver: shard ", index,
            " out of range (", drivers_.size(), " shards)");
    return *drivers_[index];
}

Tick
ShardedDriver::clockTick() const
{
    return epoch_ * config_.execution.online.epochTicks;
}

void
ShardedDriver::setFaultPlan(const FaultPlan &plan)
{
    for (const auto &driver : drivers_)
        driver->setFaultPlan(plan);
}

void
ShardedDriver::setCheckpointSink(CheckpointSink sink)
{
    sink_ = std::move(sink);
}

bool
ShardedDriver::idle(const EventQueue &global) const
{
    if (!global.empty())
        return false;
    for (std::size_t s = 0; s < drivers_.size(); ++s)
        if (!drivers_[s]->idle(queues_[s]))
            return false;
    return true;
}

void
ShardedDriver::routeEpoch(EventQueue &global)
{
    const ScopedTimer timer("shard.stage.route_seconds");
    const Tick boundary =
        (epoch_ + 1) * config_.execution.online.epochTicks;
    while (!global.empty() && global.nextTick() < boundary) {
        const ChurnEvent event = global.pop();
        queues_[router_.route(event)].push(event);
    }
}

void
ShardedDriver::rebalance(ShardEpochStats &stats)
{
    const TraceSpan span("shard.rebalance", "shard");
    const ScopedTimer timer("shard.stage.rebalance_seconds");

    std::vector<ShardView> views;
    views.reserve(drivers_.size());
    std::vector<const SparseMatrix *> profiles;
    profiles.reserve(drivers_.size());
    for (const auto &driver : drivers_) {
        ShardView view;
        view.live = driver->live();
        view.pairs = driver->pairsSnapshot();
        view.admissionRoom = driver->admissionRoom();
        views.push_back(std::move(view));
        profiles.push_back(&driver->profileRatings());
    }

    const RebalanceOutcome outcome =
        rebalancer_.plan(views, mergeProfiles(profiles));

    MetricsRegistry *metrics = obsMetrics();
    for (const MigrationMove &move : outcome.moves) {
        const auto job = drivers_[move.fromShard]->extractLive(move.uid);
        panicIf(!job.has_value(),
                "ShardedDriver: planned migrant is not live");
        // The planner never exceeds a target's admission room, so a
        // rejected migrant means the plan and the drivers disagree.
        panicIf(!drivers_[move.toShard]->acceptMigrant(*job),
                "ShardedDriver: migration target rejected a migrant "
                "inside its admission room");
        router_.recordMigration(move.uid, move.toShard);
        if (metrics != nullptr) {
            metrics
                ->counter("shard." + std::to_string(move.fromShard) +
                          ".migrations_out")
                .add(1);
            metrics
                ->counter("shard." + std::to_string(move.toShard) +
                          ".migrations_in")
                .add(1);
        }
    }

    totalCrossMigrations_ += outcome.moves.size();
    if (!outcome.moves.empty())
        ++totalRebalanceEpochs_;
    lastObjective_ = outcome.objectiveAfter;

    stats.migrations = outcome.moves.size();
    stats.objectiveBefore = outcome.objectiveBefore;
    stats.objectiveAfter = outcome.objectiveAfter;
    stats.worstShard = outcome.worstShard;
}

void
ShardedDriver::maybeCheckpoint()
{
    const OnlineConfig &online = config_.execution.online;
    if (online.checkpointEveryEpochs == 0 || !sink_ ||
        epoch_ % online.checkpointEveryEpochs != 0)
        return;
    const TraceSpan span("shard.checkpoint", "shard");
    const ScopedTimer timer("shard.stage.checkpoint_seconds");
    // Every shard holds the same plan; an injected failure skips the
    // write exactly as a failing sink does, and the last good
    // checkpoint stands.
    if (drivers_.front()->faultPlan().checkpointFails(epoch_) ||
        !sink_(snapshot()))
        if (MetricsRegistry *metrics = obsMetrics())
            metrics->counter("shard.checkpoint_failures").add(1);
}

ShardedReport
ShardedDriver::run(const ChurnTrace &trace)
{
    // Honor the framework-level observability knob (passive when an
    // outer session, e.g. the CLI's, is already installed).
    const ObsScope obs_scope(config_.execution.obs);
    const TraceSpan span("shard.run", "shard");

    EventQueue global;
    global.push(trace);
    if (!global.empty() && global.nextTick() < clockTick())
        fatal("ShardedDriver::run: trace begins at tick ",
              global.nextTick(), ", before the clock (", clockTick(),
              "); resume with trace.suffix(clockTick())");

    ShardedReport report = beginReport();
    while (!idle(global))
        stepEpoch(global, report);
    finalizeReport(report);
    return report;
}

ShardedReport
ShardedDriver::beginReport() const
{
    ShardedReport report;
    report.policy = config_.policy;
    report.seed = seed_;
    report.shards = drivers_.size();
    report.rebalanceBudget =
        config_.execution.online.rebalanceBudgetPerEpoch;
    for (const auto &driver : drivers_)
        report.perShard.push_back(driver->beginReport());
    return report;
}

void
ShardedDriver::stepEpoch(EventQueue &global, ShardedReport &report)
{
    const std::size_t threads = config_.execution.threads;
    ShardEpochStats stats;
    stats.epoch = epoch_;
    stats.tick = (epoch_ + 1) * config_.execution.online.epochTicks;

    // 1. Route this epoch's events to their shards. Arrivals go
    // by type, departures by the uid's current home.
    routeEpoch(global);

    // 2. Step every shard through the epoch concurrently. Shards
    // share no mutable state — each writes only its own queue,
    // report slot, and driver — and every random draw comes from
    // the shard's own substreams, so the commit is bit-identical
    // at any thread count.
    {
        const TraceSpan epoch_span("shard.epoch", "shard");
        const ScopedTimer timer("shard.epoch_seconds");
        parallelFor(0, drivers_.size(), threads,
                    [&](std::size_t s) {
                        drivers_[s]->stepEpoch(queues_[s],
                                               report.perShard[s]);
                    });
    }
    for (const auto &driver : drivers_)
        panicIf(driver->epoch() != epoch_ + 1,
                "ShardedDriver: shard clocks diverged");
    ++epoch_;

    // 3. One egalitarian rebalance pass on the committed state;
    // migrants land in their target's admission queue at the new
    // clock tick, so they rejoin at the next epoch boundary.
    rebalance(stats);

    for (const auto &driver : drivers_)
        stats.population += driver->live().size();

    maybeCheckpoint();

    if (MetricsRegistry *metrics = obsMetrics()) {
        metrics->counter("shard.epochs").add(1);
        metrics->counter("shard.migrations").add(stats.migrations);
        metrics->gauge("shard.objective").set(stats.objectiveAfter);
        metrics->gauge("shard.population")
            .set(static_cast<double>(stats.population));
        for (std::size_t s = 0; s < drivers_.size(); ++s)
            metrics
                ->gauge("shard." + std::to_string(s) + ".population")
                .set(static_cast<double>(drivers_[s]->live().size()));
    }

    report.epochs.push_back(stats);
}

void
ShardedDriver::finalizeReport(ShardedReport &report) const
{
    for (std::size_t s = 0; s < drivers_.size(); ++s)
        drivers_[s]->finalizeReport(report.perShard[s]);
    report.totalCrossMigrations = totalCrossMigrations_;
    report.totalRebalanceEpochs = totalRebalanceEpochs_;
    report.finalObjective = lastObjective_;
    report.finalPopulation = 0;
    for (const auto &driver : drivers_)
        report.finalPopulation += driver->live().size();
}

ShardedState
ShardedDriver::snapshot() const
{
    ShardedState state;
    state.seed = seed_;
    state.epoch = epoch_;
    state.typeShard = router_.typeAssignment();
    state.uidShard = router_.uidSnapshot();
    state.totalCrossMigrations = totalCrossMigrations_;
    state.totalRebalanceEpochs = totalRebalanceEpochs_;
    state.lastObjective = lastObjective_;
    state.perShard.reserve(drivers_.size());
    for (const auto &driver : drivers_)
        state.perShard.push_back(driver->snapshot());
    return state;
}

void
ShardedDriver::restore(const ShardedState &state)
{
    fatalIf(state.seed != seed_,
            "ShardedDriver::restore: checkpoint seed ", state.seed,
            " does not match the driver seed ", seed_);
    fatalIf(state.perShard.size() != drivers_.size(),
            "ShardedDriver::restore: checkpoint has ",
            state.perShard.size(), " shards, the driver has ",
            drivers_.size());
    fatalIf(state.typeShard != router_.typeAssignment(),
            "ShardedDriver::restore: checkpoint type partition does "
            "not match the router (different catalog, shard count, or "
            "seed)");
    for (std::size_t s = 0; s < drivers_.size(); ++s)
        fatalIf(state.perShard[s].epoch != state.epoch,
                "ShardedDriver::restore: shard ", s, " is at epoch ",
                state.perShard[s].epoch, ", fleet epoch is ",
                state.epoch);
    router_.restoreUids(state.uidShard);
    for (std::size_t s = 0; s < drivers_.size(); ++s)
        drivers_[s]->restore(state.perShard[s]);
    epoch_ = state.epoch;
    totalCrossMigrations_ = state.totalCrossMigrations;
    totalRebalanceEpochs_ = state.totalRebalanceEpochs;
    lastObjective_ = state.lastObjective;
}

void
writeShardedSummary(std::ostream &os, const ShardedReport &report)
{
    // Decision-path quantities only, like writeOnlineSummary: no
    // timings, no predictor diagnostics.
    os << "{\n";
    os << "  \"schema\": \"cooper.sharded.v1\",\n";
    os << "  \"policy\": \"" << report.policy << "\",\n";
    os << "  \"seed\": " << report.seed << ",\n";
    os << "  \"shards\": " << report.shards << ",\n";
    os << "  \"rebalance_budget\": " << report.rebalanceBudget << ",\n";
    os << "  \"epochs\": [";
    for (std::size_t i = 0; i < report.epochs.size(); ++i) {
        const ShardEpochStats &e = report.epochs[i];
        os << (i == 0 ? "\n" : ",\n");
        os << "    {\"epoch\": " << e.epoch << ", \"tick\": " << e.tick
           << ", \"population\": " << e.population
           << ", \"migrations\": " << e.migrations
           << ", \"objective_before\": " << jsonNum(e.objectiveBefore)
           << ", \"objective_after\": " << jsonNum(e.objectiveAfter)
           << ", \"worst_shard\": " << e.worstShard << "}";
    }
    os << "\n  ],\n";
    os << "  \"per_shard\": [";
    for (std::size_t s = 0; s < report.perShard.size(); ++s) {
        const OnlineReport &shard = report.perShard[s];
        os << (s == 0 ? "\n" : ",\n");
        os << "    {\"shard\": " << s
           << ", \"arrivals\": " << shard.totalArrivals
           << ", \"departures\": " << shard.totalDepartures
           << ", \"admitted\": " << shard.totalAdmitted
           << ", \"rejected\": " << shard.totalRejected
           << ", \"probes\": " << shard.totalProbes
           << ", \"migrations\": " << shard.totalMigrations
           << ", \"final_population\": " << shard.finalPopulation
           << ", \"final_mean_penalty\": "
           << jsonNum(shard.finalMeanPenalty) << "}";
    }
    os << "\n  ],\n";
    std::size_t arrivals = 0, departures = 0, admitted = 0;
    std::size_t rejected = 0, probes = 0;
    for (const OnlineReport &shard : report.perShard) {
        arrivals += shard.totalArrivals;
        departures += shard.totalDepartures;
        admitted += shard.totalAdmitted;
        rejected += shard.totalRejected;
        probes += shard.totalProbes;
    }
    os << "  \"totals\": {\n";
    os << "    \"arrivals\": " << arrivals << ",\n";
    os << "    \"departures\": " << departures << ",\n";
    os << "    \"admitted\": " << admitted << ",\n";
    os << "    \"rejected\": " << rejected << ",\n";
    os << "    \"probes\": " << probes << ",\n";
    os << "    \"cross_migrations\": " << report.totalCrossMigrations
       << ",\n";
    os << "    \"rebalance_epochs\": " << report.totalRebalanceEpochs
       << "\n";
    os << "  },\n";
    os << "  \"final\": {\n";
    os << "    \"objective\": " << jsonNum(report.finalObjective)
       << ",\n";
    os << "    \"population\": " << report.finalPopulation << "\n";
    os << "  }\n";
    os << "}\n";
}

void
saveShardedSummary(const std::string &path, const ShardedReport &report)
{
    std::ofstream out(path);
    fatalIf(!out, "saveShardedSummary: cannot open ", path);
    writeShardedSummary(out, report);
    fatalIf(!out, "saveShardedSummary: write to ", path, " failed");
}

} // namespace cooper
