/**
 * @file
 * Sharded-fleet scaling harness: replays one churn trace through the
 * ShardedDriver at each shard count in --shard-list, cross-checks
 * that the K = 1 run matches the flat OnlineDriver byte-for-byte
 * (the same differential the test suite holds), and writes
 * BENCH_shard.json (bench "shard" in the cooper.bench.v2 shape of
 * bench_doc.hh) that tools/bench_json validates.
 *
 * What scales: epoch repair cost is O(population^2) per matching
 * domain, so K shards each holding ~n/K jobs do ~n^2/K work per epoch
 * in total. Each K > 1 run is a phase `scale<K>` with the K = 1 wall
 * clock as its baseline, so its ratio is the speedup t(K=1) / t(K) —
 * on a single core that ratio is pure work reduction; with threads it
 * compounds with concurrent shard stepping. Its `equal` holds when
 * the K = 1 run matched the flat driver and every rep at K reproduced
 * the first rep's summary. Each shard count also writes a row of
 * values k<K>.*: wall clock, speedup, efficiency = speedup / K (the
 * per-shard scaling figure the CI floor guards), the egalitarian
 * (worst-off-agent) objective the cross-shard rebalancer optimizes —
 * final and per-epoch mean — migrations and epochs:
 *
 *   bench_shard && bench_json --file BENCH_shard.json \
 *       --min k2.efficiency=0.5
 *
 * --tiny shrinks the trace for the `ctest -L bench-smoke` run.
 */

#include <chrono>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "bench_doc.hh"
#include "online/churn.hh"
#include "online/driver.hh"
#include "shard/sharded_driver.hh"
#include "sim/interference.hh"
#include "util/cli.hh"
#include "util/rng.hh"
#include "workload/catalog.hh"

namespace {

using namespace cooper;

using Clock = std::chrono::steady_clock;

/** One shard-count replay of the trace. */
struct ScaleResult
{
    std::size_t requestedShards = 0;
    std::size_t effectiveShards = 0;
    double wallSeconds = 0.0;
    double egalitarianFinal = 0.0;
    double egalitarianMean = 0.0; //!< mean post-rebalance objective
    std::size_t migrations = 0;
    std::size_t epochs = 0;
    bool identical = true; //!< every rep reproduced the first's summary
    std::string summary; //!< writeShardedSummary bytes (determinism)
    std::string flatEquivalent; //!< K = 1 only: shard 0 as a flat summary
};

/** Parse "1,2,4" into shard counts. */
std::vector<std::size_t>
parseShardList(const std::string &text)
{
    std::vector<std::size_t> out;
    std::istringstream in(text);
    std::string item;
    while (std::getline(in, item, ',')) {
        if (item.empty())
            continue;
        out.push_back(static_cast<std::size_t>(std::stoul(item)));
    }
    if (out.empty())
        throw std::runtime_error("empty --shard-list");
    return out;
}

/** Replay `trace` once at shard count `k`; best wall time over reps. */
ScaleResult
replay(const Catalog &catalog, const InterferenceModel &model,
       FrameworkConfig config, std::uint64_t seed,
       const ChurnTrace &trace, std::size_t k, int reps)
{
    config.execution.online.shards = k;

    ScaleResult out;
    out.requestedShards = k;
    for (int r = 0; r < reps; ++r) {
        ShardedDriver driver(catalog, model, config, seed);
        const auto start = Clock::now();
        const ShardedReport report = driver.run(trace);
        const std::chrono::duration<double> elapsed =
            Clock::now() - start;

        std::ostringstream summary;
        writeShardedSummary(summary, report);
        if (r == 0) {
            out.summary = summary.str();
            out.effectiveShards = report.shards;
            out.wallSeconds = elapsed.count();
            out.egalitarianFinal = report.finalObjective;
            out.migrations = report.totalCrossMigrations;
            out.epochs = report.epochs.size();
            double sum = 0.0;
            for (const ShardEpochStats &e : report.epochs)
                sum += e.objectiveAfter;
            out.egalitarianMean =
                report.epochs.empty()
                    ? 0.0
                    : sum / static_cast<double>(report.epochs.size());
            if (report.shards == 1) {
                std::ostringstream flat;
                writeOnlineSummary(flat, report.perShard[0]);
                out.flatEquivalent = flat.str();
            }
        } else {
            out.identical = out.identical && summary.str() == out.summary;
            out.wallSeconds = std::min(out.wallSeconds, elapsed.count());
        }
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    CliFlags flags;
    flags.declare("arrivals", "400", "churn-trace arrivals");
    flags.declare("initial", "32", "jobs present at tick 0");
    flags.declare("mean-gap", "3.0", "mean interarrival gap, ticks");
    flags.declare("mean-life", "1200.0", "mean job lifetime, ticks");
    flags.declare("epoch-ticks", "50", "virtual-clock ticks per epoch");
    flags.declare("admit", "16", "arrivals admitted per epoch");
    flags.declare("shard-list", "1,2,4",
                  "comma-separated shard counts (must include 1)");
    flags.declare("rebalance-budget", "4",
                  "cross-shard migrations per epoch");
    flags.declare("threads", "1",
                  "worker threads (0 = all hardware, 1 = serial)");
    flags.declare("seed", "2017", "trace and service seed");
    flags.declare("reps", "3", "timing repetitions (best-of)");
    flags.declare("tiny", "false",
                  "smoke-test sizes (arrivals 80, shard-list 1,2)");
    flags.declare("out", "BENCH_shard.json", "JSON output path");
    if (!flags.parse(argc, argv))
        return 0;

    return cooper::bench::runHarness(
        "Sharded fleet: per-shard scaling of the online service",
        [&] {
            const bool tiny = flags.getBool("tiny");
            const auto seed =
                static_cast<std::uint64_t>(flags.getInt("seed"));
            const int reps =
                tiny ? 1 : static_cast<int>(flags.getInt("reps"));
            const std::vector<std::size_t> shard_list = parseShardList(
                tiny ? "1,2" : flags.get("shard-list"));
            if (shard_list.front() != 1)
                throw std::runtime_error(
                    "--shard-list must start with 1 (the baseline)");

            ChurnConfig churn;
            churn.arrivals = static_cast<std::size_t>(
                tiny ? 80 : flags.getInt("arrivals"));
            churn.initialJobs = static_cast<std::size_t>(
                tiny ? 12 : flags.getInt("initial"));
            churn.meanInterarrivalTicks = flags.getDouble("mean-gap");
            churn.meanLifetimeTicks = flags.getDouble("mean-life");

            FrameworkConfig config;
            config.execution.threads = static_cast<std::size_t>(
                flags.getInt("threads"));
            config.execution.online.epochTicks =
                static_cast<std::uint64_t>(flags.getInt("epoch-ticks"));
            config.execution.online.admitPerEpoch =
                static_cast<std::size_t>(flags.getInt("admit"));
            config.execution.online.rebalanceBudgetPerEpoch =
                static_cast<std::size_t>(
                    flags.getInt("rebalance-budget"));

            const Catalog catalog = Catalog::paperTableI();
            const InterferenceModel model(catalog);
            Rng trace_rng(seed);
            const ChurnTrace trace =
                generateChurnTrace(catalog, churn, trace_rng);

            std::vector<ScaleResult> runs;
            for (const std::size_t k : shard_list)
                runs.push_back(replay(catalog, model, config, seed,
                                      trace, k, reps));

            // Differential guard: the K = 1 sharded run must match the
            // flat driver byte-for-byte, or every speedup below is
            // measured against the wrong baseline.
            bool flat_identical = false;
            {
                FrameworkConfig flat_config = config;
                flat_config.execution.online.shards = 1;
                OnlineDriver flat(catalog, model, flat_config, seed);
                const OnlineReport report = flat.run(trace);
                std::ostringstream summary;
                writeOnlineSummary(summary, report);
                flat_identical =
                    summary.str() == runs.front().flatEquivalent;
            }

            bench::BenchDoc doc("shard", tiny);
            const double baseline = runs.front().wallSeconds;
            Table table({"shards", "wall", "speedup", "efficiency",
                         "egal(final)", "migrations"});
            for (const ScaleResult &run : runs) {
                const double speedup = baseline / run.wallSeconds;
                const double efficiency =
                    speedup / static_cast<double>(run.requestedShards);
                const std::string k = std::to_string(run.requestedShards);
                const std::string row = "k" + k;
                doc.value(row + ".shards", run.effectiveShards);
                doc.value(row + ".wall_seconds", run.wallSeconds);
                doc.value(row + ".speedup", speedup);
                doc.value(row + ".efficiency", efficiency);
                doc.value(row + ".egalitarian_final",
                          run.egalitarianFinal);
                doc.value(row + ".egalitarian_mean", run.egalitarianMean);
                doc.value(row + ".migrations", run.migrations);
                doc.value(row + ".epochs", run.epochs);
                if (run.requestedShards > 1) {
                    bench::Phase p;
                    p.name = "scale" + k;
                    p.baseline = baseline;
                    p.optimized = run.wallSeconds;
                    p.equal = flat_identical && run.identical;
                    doc.phase(std::move(p));
                }
                table.addRow({std::to_string(run.requestedShards),
                              Table::num(run.wallSeconds * 1e3, 2) + " ms",
                              Table::num(speedup, 2),
                              Table::num(efficiency, 2),
                              Table::num(run.egalitarianFinal, 4),
                              std::to_string(run.migrations)});
            }
            table.print(std::cout);

            if (!flat_identical)
                throw std::runtime_error(
                    "K=1 sharded summary differs from the flat "
                    "OnlineDriver");
            for (const ScaleResult &run : runs)
                if (!run.identical)
                    throw std::runtime_error(
                        "sharded replay diverged across repetitions at "
                        "K=" + std::to_string(run.requestedShards));

            doc.workload("events", trace.size());
            doc.workload("arrivals", churn.arrivals);
            doc.workload("types", catalog.size());
            doc.workload("threads", config.execution.threads);
            doc.workload("rebalance_budget",
                     config.execution.online.rebalanceBudgetPerEpoch);
            doc.write(flags.get("out"));
        });
}
