/**
 * @file
 * Fault-plane regression harness: replays one churn trace through the
 * OnlineDriver twice — once fault-free, once under a rate-based
 * FaultPlan (probe timeouts, dropped/corrupted measurements, node
 * crashes) — cross-checks that each mode is run-to-run deterministic,
 * and writes BENCH_faults.json (bench "faults" in the cooper.bench.v2
 * shape of bench_doc.hh) that tools/bench_json validates.
 *
 * Two phases are reported, both without a baseline (the interesting
 * numbers are the degradation deltas among the values); each phase's
 * `equal` says whether every rep of its mode reproduced the first
 * rep's summary:
 *
 *  - clean:    whole-run wall clock of the fault-free service.
 *  - degraded: whole-run wall clock under the fault plan, including
 *              retry ladders, quarantine churn, and crash repair.
 *
 * The faults.* values carry the degraded run's lifetime fault
 * counters plus the degradation deltas a perf run cares about:
 * faults.blocking_ratio (final blocking-pair count, degraded / clean —
 * the acceptance number, expected <= 2.0 at default sizes) and
 * faults.throughput_ratio (epochs per second, degraded / clean).
 *
 * --tiny shrinks the trace for the `ctest -L bench-smoke` run:
 *
 *   bench_faults --tiny && bench_json --file BENCH_faults.json
 */

#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "bench_doc.hh"
#include "fault/plan.hh"
#include "online/churn.hh"
#include "online/driver.hh"
#include "sim/interference.hh"
#include "util/cli.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "workload/catalog.hh"

namespace {

using namespace cooper;

using Clock = std::chrono::steady_clock;

/** One replay of the trace: everything the phases need. */
struct RunResult
{
    OnlineReport report;
    std::string summary; //!< writeOnlineSummary bytes
    double wallSeconds = 0.0;
};

/** Final epoch's post-repair blocking-pair count (0 for empty runs). */
std::size_t
finalBlocking(const OnlineReport &report)
{
    if (report.epochs.empty())
        return 0;
    return report.epochs.back().blockingAfter;
}

/** Replay `trace` once under `plan`; fresh driver every time. */
RunResult
replay(const Catalog &catalog, const InterferenceModel &model,
       const FrameworkConfig &config, std::uint64_t seed,
       const ChurnTrace &trace, const FaultPlan &plan)
{
    OnlineDriver driver(catalog, model, config, seed);
    driver.setFaultPlan(plan);
    const auto start = Clock::now();
    RunResult out;
    out.report = driver.run(trace);
    const std::chrono::duration<double> elapsed = Clock::now() - start;
    out.wallSeconds = elapsed.count();

    std::ostringstream summary;
    writeOnlineSummary(summary, out.report);
    out.summary = summary.str();
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
    flags.declare("timeout-rate", "0.2", "probe-timeout probability");
    flags.declare("drop-rate", "0.05", "measurement-drop probability");
    flags.declare("corrupt-rate", "0.05",
                  "measurement-corruption probability");
    flags.declare("crash-rate", "0.1", "node crashes per epoch");
    flags.declare("seed", "2017", "trace, service, and fault seed");
    flags.declare("reps", "3", "timing repetitions (best-of)");
    flags.declare("tiny", "false",
                  "smoke-test sizes (arrivals 60, initial 8, ...)");
    flags.declare("out", "BENCH_faults.json", "JSON output path");
    if (!flags.parse(argc, argv))
        return 0;

    return cooper::bench::runHarness(
        "Online service: fault-free vs. degraded under a fault plan",
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

            // Serial, like bench_online: the service decisions never
            // depend on the thread count, and the deltas being
            // measured are degradation, not parallel scaling.
            FrameworkConfig config;
            config.execution.threads = 1;
            config.execution.online.epochTicks = static_cast<std::uint64_t>(
                flags.getInt("epoch-ticks"));
            config.execution.online.probesPerArrival =
                static_cast<std::size_t>(flags.getInt("probes"));

            FaultSpec spec;
            spec.seed = seed;
            spec.probeTimeoutRate = flags.getDouble("timeout-rate");
            spec.measurementDropRate = flags.getDouble("drop-rate");
            spec.measurementCorruptRate = flags.getDouble("corrupt-rate");
            spec.crashRatePerEpoch = flags.getDouble("crash-rate");
            const FaultPlan plan(spec);

            const Catalog catalog = Catalog::paperTableI();
            const InterferenceModel model(catalog);
            Rng trace_rng(seed);
            const ChurnTrace trace =
                generateChurnTrace(catalog, churn, trace_rng);

            // Best-of-reps on both modes; every rep of a mode must
            // reproduce that mode's summary byte-for-byte.
            RunResult clean, degraded;
            bool clean_identical = true, degraded_identical = true;
            for (int r = 0; r < reps; ++r) {
                RunResult cln = replay(catalog, model, config, seed,
                                       trace, FaultPlan());
                RunResult deg =
                    replay(catalog, model, config, seed, trace, plan);
                if (r == 0) {
                    clean = std::move(cln);
                    degraded = std::move(deg);
                    continue;
                }
                clean_identical =
                    clean_identical && cln.summary == clean.summary;
                degraded_identical =
                    degraded_identical && deg.summary == degraded.summary;
                if (cln.wallSeconds < clean.wallSeconds)
                    clean = std::move(cln);
                if (deg.wallSeconds < degraded.wallSeconds)
                    degraded = std::move(deg);
            }

            bench::BenchDoc doc("faults", tiny);
            {
                bench::Phase p;
                p.name = "clean";
                p.optimized = clean.wallSeconds;
                p.equal = clean_identical;
                doc.phase(std::move(p));
            }
            {
                bench::Phase p;
                p.name = "degraded";
                p.optimized = degraded.wallSeconds;
                p.equal = degraded_identical;
                doc.phase(std::move(p));
            }

            const OnlineReport &deg = degraded.report;
            const std::size_t clean_blocking =
                finalBlocking(clean.report);
            const std::size_t degraded_blocking = finalBlocking(deg);
            const double blocking_ratio =
                static_cast<double>(degraded_blocking) /
                static_cast<double>(clean_blocking > 0 ? clean_blocking
                                                       : 1);
            const double clean_rate =
                static_cast<double>(clean.report.epochs.size()) /
                clean.wallSeconds;
            const double degraded_rate =
                static_cast<double>(deg.epochs.size()) /
                degraded.wallSeconds;
            const double throughput_ratio = degraded_rate / clean_rate;

            Table table({"phase", "wall", "epochs", "faults",
                         "blocking"});
            table.addRow({"clean",
                          Table::num(clean.wallSeconds * 1e3, 2) + " ms",
                          std::to_string(clean.report.epochs.size()),
                          "0", std::to_string(clean_blocking)});
            table.addRow({"degraded",
                          Table::num(degraded.wallSeconds * 1e3, 2) +
                              " ms",
                          std::to_string(deg.epochs.size()),
                          std::to_string(deg.totalFaultsInjected),
                          std::to_string(degraded_blocking)});
            table.print(std::cout);
            std::cout << "degraded: " << deg.totalRetries << " retries, "
                      << deg.totalQuarantined << " quarantined ("
                      << deg.totalQuarantineReleased << " released, "
                      << deg.totalAbandoned << " abandoned), "
                      << deg.totalCrashes << " crashes, "
                      << deg.totalCfFallbacks << " CF fallbacks\n";
            std::cout << "blocking ratio "
                      << Table::num(blocking_ratio, 2)
                      << ", throughput ratio "
                      << Table::num(throughput_ratio, 2) << "\n";

            if (!clean_identical || !degraded_identical)
                throw std::runtime_error(
                    "replays of one mode produced different summaries");
            if (clean.report.totalFaultsInjected != 0)
                throw std::runtime_error(
                    "fault-free run reported injected faults");
            if (deg.totalFaultsInjected == 0)
                throw std::runtime_error(
                    "degraded run injected no faults");

            doc.workload("events", trace.size());
            doc.workload("epochs", deg.epochs.size());
            doc.workload("types", catalog.size());
            doc.workload("arrivals", deg.totalArrivals);
            doc.workload("threads", 1);
            doc.value("faults.injected", deg.totalFaultsInjected);
            doc.value("faults.retries", deg.totalRetries);
            doc.value("faults.quarantined", deg.totalQuarantined);
            doc.value("faults.quarantine_released",
                      deg.totalQuarantineReleased);
            doc.value("faults.abandoned", deg.totalAbandoned);
            doc.value("faults.crashes", deg.totalCrashes);
            doc.value("faults.cf_fallbacks", deg.totalCfFallbacks);
            doc.value("faults.checkpoint_failures",
                      deg.totalCheckpointFailures);
            doc.value("faults.clean_blocking", clean_blocking);
            doc.value("faults.degraded_blocking", degraded_blocking);
            doc.value("faults.blocking_ratio", blocking_ratio);
            doc.value("faults.throughput_ratio", throughput_ratio);
            doc.write(flags.get("out"));
        });
}
