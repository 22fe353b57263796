/**
 * @file
 * Online-service regression harness: replays the same churn trace
 * through the OnlineDriver twice — once with the warm-started
 * incremental predictor, once forcing a from-scratch re-predict every
 * epoch — cross-checks byte-identical summaries, and writes
 * BENCH_online.json (bench "online" in the cooper.bench.v2 shape of
 * bench_doc.hh) that tools/bench_json validates.
 *
 * Two phases are reported:
 *
 *  - predict: per-epoch prediction time, full re-predict (baseline)
 *             vs. incremental warm start (optimized). Both modes feed
 *             the same online.predict_seconds histogram, so the phase
 *             seconds are that histogram's per-run sum — exactly the
 *             time spent inside the prediction step, excluding the
 *             trace replay around it.
 *  - epoch:   whole-run wall clock of the incremental service, timed
 *             for trend tracking only (no baseline).
 *
 * The document's values carry the incremental run's online counters
 * (online.migrations, online.pairs_broken, online.full_rematches,
 * online.predict_cache_hits, online.recomputed_pairs) so a perf run
 * can see *why* the predict phase was cheap or expensive.
 *
 * --tiny shrinks the trace for the `ctest -L bench-smoke` run; the
 * acceptance ratio (incremental >= 1.5x full) is meant to be checked
 * at the default sizes:
 *
 *   bench_online && bench_json --file BENCH_online.json \
 *       --min predict.ratio=1.5
 */

#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "bench_doc.hh"
#include "obs/obs.hh"
#include "online/churn.hh"
#include "online/driver.hh"
#include "sim/interference.hh"
#include "util/cli.hh"
#include "util/rng.hh"
#include "workload/catalog.hh"

namespace {

using namespace cooper;

using Clock = std::chrono::steady_clock;

/** One replay of the trace: everything the phases need. */
struct RunResult
{
    OnlineReport report;
    std::string summary;        //!< writeOnlineSummary bytes
    double predictSeconds = 0.0; //!< online.predict_seconds sum
    double wallSeconds = 0.0;
};

/** Replay `trace` once; fresh driver, fresh metrics registry. */
RunResult
replay(const Catalog &catalog, const InterferenceModel &model,
       FrameworkConfig config, std::uint64_t seed,
       const ChurnTrace &trace, bool incremental)
{
    config.execution.online.incremental = incremental;

    ObsConfig obs_config;
    obs_config.metrics = true;
    const ObsScope obs(obs_config);

    OnlineDriver driver(catalog, model, config, seed);
    const auto start = Clock::now();
    RunResult out;
    out.report = driver.run(trace);
    const std::chrono::duration<double> elapsed = Clock::now() - start;
    out.wallSeconds = elapsed.count();

    std::ostringstream summary;
    writeOnlineSummary(summary, out.report);
    out.summary = summary.str();

    MetricsRegistry *metrics = obsMetrics();
    if (metrics == nullptr)
        throw std::runtime_error("metrics session missing");
    for (const auto &[name, histogram] : metrics->snapshot().histograms) {
        if (name == "online.predict_seconds")
            out.predictSeconds = histogram.sum;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    CliFlags flags;
    flags.declare("arrivals", "400", "churn-trace arrivals");
    flags.declare("initial", "24", "jobs present at tick 0");
    flags.declare("mean-gap", "6.0", "mean interarrival gap, ticks");
    flags.declare("mean-life", "900.0", "mean job lifetime, ticks");
    flags.declare("epoch-ticks", "50", "virtual-clock ticks per epoch");
    flags.declare("probes", "4", "probe colocations per admission");
    flags.declare("seed", "2017", "trace and service seed");
    flags.declare("reps", "3", "timing repetitions (best-of)");
    flags.declare("tiny", "false",
                  "smoke-test sizes (arrivals 60, initial 8, ...)");
    flags.declare("out", "BENCH_online.json", "JSON output path");
    if (!flags.parse(argc, argv))
        return 0;

    return cooper::bench::runHarness(
        "Online service: incremental warm-start vs. full re-predict",
        [&] {
            const bool tiny = flags.getBool("tiny");
            const auto seed =
                static_cast<std::uint64_t>(flags.getInt("seed"));
            const int reps =
                tiny ? 1 : static_cast<int>(flags.getInt("reps"));

            ChurnConfig churn;
            churn.arrivals = static_cast<std::size_t>(
                tiny ? 60 : flags.getInt("arrivals"));
            churn.initialJobs = static_cast<std::size_t>(
                tiny ? 8 : flags.getInt("initial"));
            churn.meanInterarrivalTicks = flags.getDouble("mean-gap");
            churn.meanLifetimeTicks = flags.getDouble("mean-life");

            // The service decisions never depend on the thread count
            // (held by cooper_cli_serve and test_online_driver), so
            // the bench runs serially: the win being measured is the
            // warm start, not parallel scaling.
            FrameworkConfig config;
            config.execution.threads = 1;
            config.execution.online.epochTicks = static_cast<std::uint64_t>(
                flags.getInt("epoch-ticks"));
            config.execution.online.probesPerArrival =
                static_cast<std::size_t>(flags.getInt("probes"));

            const Catalog catalog = Catalog::paperTableI();
            const InterferenceModel model(catalog);
            Rng trace_rng(seed);
            const ChurnTrace trace =
                generateChurnTrace(catalog, churn, trace_rng);

            // Best-of-reps on both modes; the two runs' summaries must
            // not differ by a byte (every rep is checked).
            RunResult incremental, full;
            bool identical = true;
            for (int r = 0; r < reps; ++r) {
                RunResult inc = replay(catalog, model, config, seed,
                                       trace, /*incremental=*/true);
                RunResult col = replay(catalog, model, config, seed,
                                       trace, /*incremental=*/false);
                identical = identical && inc.summary == col.summary;
                if (r == 0 ||
                    inc.predictSeconds < incremental.predictSeconds)
                    incremental = std::move(inc);
                if (r == 0 || col.predictSeconds < full.predictSeconds)
                    full = std::move(col);
            }

            bench::BenchDoc doc("online", tiny);
            {
                bench::Phase p;
                p.name = "predict";
                p.baseline = full.predictSeconds;
                p.optimized = incremental.predictSeconds;
                p.equal = identical;
                doc.phase(std::move(p));
            }
            {
                bench::Phase p;
                p.name = "epoch";
                p.optimized = incremental.wallSeconds;
                p.equal = identical;
                doc.phase(std::move(p));
            }

            const OnlineReport &report = incremental.report;
            std::size_t cache_hits = 0, recomputed = 0;
            for (const OnlineEpochStats &e : report.epochs) {
                cache_hits += e.predictCacheHit ? 1 : 0;
                recomputed += e.recomputedPairs;
            }

            doc.printPhases();
            std::cout << "epochs " << report.epochs.size()
                      << ", cache hits " << cache_hits
                      << ", recomputed pairs " << recomputed << "\n";

            if (!identical)
                throw std::runtime_error(
                    "incremental and full-predict summaries differ");

            doc.workload("events", trace.size());
            doc.workload("epochs", report.epochs.size());
            doc.workload("types", catalog.size());
            doc.workload("arrivals", report.totalArrivals);
            doc.workload("threads", 1);
            doc.value("online.migrations", report.totalMigrations);
            doc.value("online.pairs_broken", report.totalPairsBroken);
            doc.value("online.full_rematches", report.totalFullRematches);
            doc.value("online.predict_cache_hits", cache_hits);
            doc.value("online.recomputed_pairs", recomputed);
            doc.write(flags.get("out"));
        });
}
