/**
 * @file
 * Service-plane throughput harness: serves one churn trace over real
 * loopback TCP — the in-process load generator replaying it from N
 * concurrent connections — and writes BENCH_serve.json (bench "serve"
 * in the cooper.bench.v2 shape of bench_doc.hh) that tools/bench_json
 * validates.
 *
 * Two phases are reported:
 *
 *  - serve:          whole-run client wall clock of the server, timed
 *                    for trend tracking (no baseline). `equal` holds
 *                    the served summary byte-equal to the in-process
 *                    OnlineDriver replay — the net plane must never
 *                    change a decision, only its transport cost. The
 *                    latency.* values carry this run's sustained
 *                    arrivals/sec and the p50/p99/p999 of per-message
 *                    RTT and per-epoch completion latency.
 *  - runs_per_server: N independent replays (run r seeded seed+r)
 *                    hosted concurrently behind one epoll loop vs.
 *                    the same N runs served one at a time. The ratio
 *                    is the per-run efficiency N*wall_1 / wall_N —
 *                    1.0 means colocating runs costs nothing over
 *                    serving them back to back, and the acceptance
 *                    floor (>= 0.5 at N = 4) bounds the multi-run
 *                    coordination overhead. `equal` holds every
 *                    concurrent run's summary byte-equal to its solo
 *                    in-process replay.
 *
 * The trace shape is deliberately decode-heavy (many events per
 * epoch, small population) so the phases measure the framing hot
 * path, not the matching work behind it.
 *
 * --tiny shrinks the trace for the `ctest -L bench-smoke` run, which
 * also enforces the runs_per_server floor:
 *
 *   bench_serve && bench_json --file BENCH_serve.json \
 *       --min runs_per_server.ratio=0.5
 */

#include <chrono>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "bench_doc.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "net/service_plane.hh"
#include "obs/obs.hh"
#include "online/churn.hh"
#include "online/driver.hh"
#include "sim/interference.hh"
#include "util/cli.hh"
#include "util/rng.hh"
#include "workload/catalog.hh"

namespace {

using namespace cooper;

/** One served replay: client-side stats plus server-side counters. */
struct ServedRun
{
    std::string summary; //!< the Summary bytes every client received
    net::LoadGenStats stats;
    std::uint64_t epochsServed = 0;
};

std::uint64_t
counterValue(const MetricsSnapshot &snapshot, const std::string &name)
{
    for (const auto &[counter, value] : snapshot.counters)
        if (counter == name)
            return value;
    return 0;
}

/**
 * Serve `trace` over loopback TCP: an EpollServer on its own thread,
 * the load generator replaying from `connections` client sockets.
 */
ServedRun
serveOnce(const Catalog &catalog, const InterferenceModel &model,
          const FrameworkConfig &config, std::uint64_t seed,
          const ChurnTrace &trace, std::size_t connections)
{
    ObsConfig obs_config;
    obs_config.metrics = true;
    const ObsScope obs(obs_config);

    OnlineDriver driver(catalog, model, config, seed);
    net::ServicePlane plane(catalog, driver);

    net::EpollServer server(plane, net::ServerConfig{});

    bool served = false;
    std::thread serving([&] { served = server.runUntilServed(); });

    net::LoadGenConfig client_config;
    client_config.port = server.port();
    client_config.connections = connections;
    const net::LoadGenResult result = net::runLoadGen(trace, client_config);
    serving.join();

    if (!served)
        throw std::runtime_error("serve run aborted: " +
                                 server.lastError());
    if (!result.ok)
        throw std::runtime_error("load generator failed: " +
                                 result.error);

    MetricsRegistry *metrics = obsMetrics();
    if (metrics == nullptr)
        throw std::runtime_error("metrics session missing");

    ServedRun out;
    out.summary = result.summary;
    out.stats = result.stats;
    out.epochsServed =
        counterValue(metrics->snapshot(), "net.epochs_served");
    return out;
}

/** What one multi-run service produced. */
struct MultiServed
{
    double wallSeconds = 0.0; //!< first send to last summary, overall
    bool identical = true;    //!< every summary matched its reference
};

/**
 * Host `runs` concurrent replays of `trace` (run r seeded seed + r)
 * behind one EpollServer, each fed by its own client thread, and
 * check every summary against the matching in-process reference.
 */
MultiServed
serveMulti(const Catalog &catalog, const InterferenceModel &model,
           const FrameworkConfig &config, std::uint64_t seed,
           const ChurnTrace &trace, std::uint64_t runs,
           std::size_t connections,
           const std::vector<std::string> &references)
{
    // Metrics on, as in serveOnce, so every served leg pays the same
    // counter cost.
    ObsConfig obs_config;
    obs_config.metrics = true;
    const ObsScope obs(obs_config);

    std::vector<std::unique_ptr<OnlineDriver>> drivers;
    std::vector<std::unique_ptr<net::ServicePlane>> planes;
    for (std::uint64_t r = 0; r < runs; ++r) {
        drivers.push_back(std::make_unique<OnlineDriver>(
            catalog, model, config, seed + r));
        planes.push_back(std::make_unique<net::ServicePlane>(
            catalog, *drivers.back()));
    }

    net::EpollServer server(net::ServerConfig{});
    for (std::uint64_t r = 0; r < runs; ++r)
        server.addRun(r, *planes[r]);

    bool served = false;
    std::thread serving([&] { served = server.runUntilServed(); });

    std::vector<net::LoadGenResult> results(runs);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    clients.reserve(runs);
    for (std::uint64_t r = 0; r < runs; ++r)
        clients.emplace_back([&, r] {
            net::LoadGenConfig client_config;
            client_config.port = server.port();
            client_config.connections = connections;
            client_config.runId = r;
            results[r] = net::runLoadGen(trace, client_config);
        });
    for (auto &client : clients)
        client.join();
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    serving.join();

    if (!served)
        throw std::runtime_error("multi-run serve aborted: " +
                                 server.lastError());
    MultiServed out;
    out.wallSeconds = wall;
    for (std::uint64_t r = 0; r < runs; ++r) {
        if (!results[r].ok)
            throw std::runtime_error(
                "load generator failed on run " + std::to_string(r) +
                ": " + results[r].error);
        out.identical =
            out.identical && results[r].summary == references[r];
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    CliFlags flags;
    flags.declare("arrivals", "2000", "churn-trace arrivals");
    flags.declare("initial", "8", "jobs present at tick 0");
    flags.declare("mean-gap", "2.0", "mean interarrival gap, ticks");
    flags.declare("mean-life", "40.0", "mean job lifetime, ticks");
    flags.declare("epoch-ticks", "400", "virtual-clock ticks per epoch");
    flags.declare("connections", "4", "load-generator connections");
    flags.declare("runs", "4",
                  "concurrent replays for the runs_per_server phase");
    flags.declare("run-connections", "2",
                  "connections per replay in the runs_per_server "
                  "phase (both legs)");
    flags.declare("seed", "2017", "trace and service seed");
    flags.declare("reps", "3", "timing repetitions (best-of)");
    flags.declare("tiny", "false",
                  "smoke-test sizes (arrivals 300, 1 rep)");
    flags.declare("out", "BENCH_serve.json", "JSON output path");
    if (!flags.parse(argc, argv))
        return 0;

    return cooper::bench::runHarness(
        "Service plane: served throughput and multi-run hosting",
        [&] {
            const bool tiny = flags.getBool("tiny");
            const auto seed =
                static_cast<std::uint64_t>(flags.getInt("seed"));
            const int reps =
                tiny ? 1 : static_cast<int>(flags.getInt("reps"));
            const auto connections = static_cast<std::size_t>(
                flags.getInt("connections"));

            ChurnConfig churn;
            churn.arrivals = static_cast<std::size_t>(
                tiny ? 300 : flags.getInt("arrivals"));
            churn.initialJobs =
                static_cast<std::size_t>(flags.getInt("initial"));
            churn.meanInterarrivalTicks = flags.getDouble("mean-gap");
            churn.meanLifetimeTicks = flags.getDouble("mean-life");

            // Transport cost is what is being measured; the service
            // itself runs serially so the decode path dominates.
            FrameworkConfig config;
            config.execution.threads = 1;
            config.execution.online.epochTicks =
                static_cast<std::uint64_t>(flags.getInt("epoch-ticks"));

            const Catalog catalog = Catalog::paperTableI();
            const InterferenceModel model(catalog);
            Rng trace_rng(seed);
            const ChurnTrace trace =
                generateChurnTrace(catalog, churn, trace_rng);

            const auto runs =
                static_cast<std::uint64_t>(flags.getInt("runs"));
            const auto runConnections = static_cast<std::size_t>(
                flags.getInt("run-connections"));

            // The determinism references: the same trace replayed
            // in-process, no sockets anywhere — one per concurrent
            // run (run r uses seed + r).
            std::vector<std::string> references;
            for (std::uint64_t r = 0; r < runs; ++r) {
                OnlineDriver reference(catalog, model, config,
                                       seed + r);
                std::ostringstream summary;
                writeOnlineSummary(summary, reference.run(trace));
                references.push_back(summary.str());
            }
            const std::string &reference_summary = references.front();

            // Best-of-reps; every rep's served summary must match the
            // in-process bytes.
            ServedRun served;
            bool identical = true;
            for (int r = 0; r < reps; ++r) {
                ServedRun run = serveOnce(catalog, model, config, seed,
                                          trace, connections);
                identical = identical && run.summary == reference_summary;
                if (r == 0 ||
                    run.stats.wallSeconds < served.stats.wallSeconds)
                    served = std::move(run);
            }

            // Multi-run hosting: N concurrent replays vs. the same N
            // served one at a time (same per-run connection count on
            // both legs).
            MultiServed solo, multi;
            bool multiIdentical = true;
            for (int r = 0; r < reps; ++r) {
                MultiServed one =
                    serveMulti(catalog, model, config, seed, trace,
                               1, runConnections, references);
                MultiServed all =
                    serveMulti(catalog, model, config, seed, trace,
                               runs, runConnections, references);
                multiIdentical =
                    multiIdentical && one.identical && all.identical;
                if (r == 0 || one.wallSeconds < solo.wallSeconds)
                    solo = one;
                if (r == 0 || all.wallSeconds < multi.wallSeconds)
                    multi = all;
            }
            const double sequentialSeconds =
                static_cast<double>(runs) * solo.wallSeconds;

            bench::BenchDoc doc("serve", tiny);
            {
                bench::Phase p;
                p.name = "serve";
                p.optimized = served.stats.wallSeconds;
                p.equal = identical;
                doc.phase(std::move(p));
            }
            {
                bench::Phase p;
                p.name = "runs_per_server";
                p.baseline = sequentialSeconds;
                p.optimized = multi.wallSeconds;
                p.equal = multiIdentical;
                doc.phase(std::move(p));
            }

            doc.printPhases();
            std::cout << "serve: "
                      << Table::num(served.stats.arrivalsPerSecond, 0)
                      << " events/s over " << trace.size() << " event(s), "
                      << served.epochsServed << " epoch(s); rtt p99 "
                      << Table::num(served.stats.rttP99Ms, 3)
                      << " ms, epoch p99 "
                      << Table::num(served.stats.epochP99Ms, 3)
                      << " ms\n";
            std::cout << "runs_per_server: " << runs << " run(s) of "
                      << runConnections << " connection(s) each\n";

            if (!identical || !multiIdentical)
                throw std::runtime_error(
                    "served summaries differ from the in-process "
                    "replay");

            doc.workload("events", trace.size());
            doc.workload("epochs", served.epochsServed);
            doc.workload("types", catalog.size());
            doc.workload("arrivals", served.stats.eventsSent);
            doc.workload("connections", connections);
            doc.workload("runs", runs);
            doc.workload("threads", 1);
            doc.value("latency.arrivals_per_sec",
                      served.stats.arrivalsPerSecond);
            doc.value("latency.rtt_p50_ms", served.stats.rttP50Ms);
            doc.value("latency.rtt_p99_ms", served.stats.rttP99Ms);
            doc.value("latency.rtt_p999_ms", served.stats.rttP999Ms);
            doc.value("latency.epoch_p50_ms", served.stats.epochP50Ms);
            doc.value("latency.epoch_p99_ms", served.stats.epochP99Ms);
            doc.value("latency.epoch_p999_ms", served.stats.epochP999Ms);
            doc.write(flags.get("out"));
        });
}
