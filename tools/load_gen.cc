/**
 * @file
 * load_gen — multi-connection load generator for `cooper_cli serve
 * --listen`.
 *
 * Replays a trace_gen churn trace against a serving coordinator from
 * N concurrent TCP connections at a configurable open-loop rate
 * (src/net/client.hh), then reports client-side service metrics: the
 * sustained event rate and the tail (p50/p99/p999) of both
 * per-message round-trip and per-epoch completion latency — worst-
 * case latency being the headline metric egalitarian colocation cares
 * about. The server's summary is written to --out; it is byte-
 * identical to what `cooper_cli serve --trace` would have produced
 * for the same (trace, seed, config).
 *
 * Against a multi-run server, --runs R drives R replays at once: run
 * r targets runId = --run-id + r from its own thread and writes its
 * summary to --out.run<r>. --run-id alone aims a single replay at a
 * specific entry in the server's run table.
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hh"
#include "net/frame.hh"
#include "online/events.hh"
#include "util/cli.hh"
#include "util/error.hh"
#include "util/table.hh"

namespace {

using namespace cooper;

void
writeSummary(const std::string &path, const std::string &summary)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    fatalIf(!os, "load_gen: cannot write ", path);
    os << summary;
    os.flush();
    fatalIf(!os.good(), "load_gen: write failed for ", path);
}

void
printStats(const net::LoadGenStats &stats, std::size_t connections)
{
    std::cout
        << "replayed " << stats.eventsSent << " event(s) over "
        << connections << " connection(s) in "
        << Table::num(stats.wallSeconds, 3) << "s ("
        << Table::num(stats.arrivalsPerSecond, 1)
        << " events/s sustained), " << stats.acksReceived
        << " ack(s), " << stats.epochsObserved << " epoch(s)";
    if (stats.busyRefusals > 0)
        std::cout << ", " << stats.busyRefusals << " busy refusal(s) "
                  << stats.retriesSent << " retransmit(s)";
    std::cout
        << "\n"
        << "rtt ms   p50 " << Table::num(stats.rttP50Ms, 3)
        << "  p99 " << Table::num(stats.rttP99Ms, 3)
        << "  p999 " << Table::num(stats.rttP999Ms, 3) << "\n"
        << "epoch ms p50 " << Table::num(stats.epochP50Ms, 3)
        << "  p99 " << Table::num(stats.epochP99Ms, 3)
        << "  p999 " << Table::num(stats.epochP999Ms, 3) << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    CliFlags flags;
    flags.declare("trace", "trace.txt",
                  "churn trace file (see trace_gen)");
    flags.declare("host", "127.0.0.1", "server address");
    flags.declare("port", "0", "server port (required)");
    flags.declare("connections", "4",
                  "concurrent connections the trace is split across");
    flags.declare("rate", "0",
                  "aggregate open-loop events/second (0 = as fast as "
                  "the sockets accept)");
    flags.declare("subscribe-assignments", "0",
                  "1 = receive per-epoch Assignment frames");
    flags.declare("subscribe-probes", "0",
                  "1 = receive per-epoch ProbeResult frames");
    flags.declare("run-id", "0",
                  "run in the server's table this replay feeds");
    flags.declare("runs", "1",
                  "concurrent replays; replay r targets "
                  "--run-id + r and writes --out.run<r>");
    flags.declare("out", "",
                  "write the server's summary JSON here (empty = "
                  "discard)");

    try {
        if (!flags.parse(argc,
                         const_cast<const char *const *>(argv)))
            return 0;

        net::LoadGenConfig config;
        config.host = flags.get("host");
        config.port =
            static_cast<std::uint16_t>(flags.getCount("port", 65535));
        fatalIf(config.port == 0, "load_gen: --port is required");
        config.connections = flags.getCount("connections");
        config.eventsPerSecond = flags.getDouble("rate");
        if (flags.getInt("subscribe-assignments") != 0)
            config.subscriptions |= net::kSubscribeAssignments;
        if (flags.getInt("subscribe-probes") != 0)
            config.subscriptions |= net::kSubscribeProbes;
        const auto baseRun = flags.getCount("run-id");
        const auto runs = flags.getCount("runs");
        fatalIf(runs == 0, "load_gen: --runs must be >= 1");

        const ChurnTrace trace = loadTrace(flags.get("trace"));

        if (runs == 1) {
            config.runId = baseRun;
            const net::LoadGenResult result =
                net::runLoadGen(trace, config);
            if (!result.ok) {
                std::cerr << "load_gen: " << result.error << "\n";
                return 1;
            }
            if (!flags.get("out").empty())
                writeSummary(flags.get("out"), result.summary);
            printStats(result.stats, config.connections);
            if (!flags.get("out").empty())
                std::cout << "summary -> " << flags.get("out")
                          << "\n";
            return 0;
        }

        // Multi-run: one replay thread per run, each with its own
        // connection pool, all hammering the same server at once.
        std::vector<net::LoadGenResult> results(runs);
        std::vector<std::thread> threads;
        threads.reserve(runs);
        for (std::uint64_t r = 0; r < runs; ++r)
            threads.emplace_back([&, r]() {
                net::LoadGenConfig runConfig = config;
                runConfig.runId = baseRun + r;
                results[r] = net::runLoadGen(trace, runConfig);
            });
        for (auto &thread : threads)
            thread.join();

        bool ok = true;
        for (std::uint64_t r = 0; r < runs; ++r) {
            if (!results[r].ok) {
                std::cerr << "load_gen: run " << (baseRun + r)
                          << ": " << results[r].error << "\n";
                ok = false;
                continue;
            }
            if (!flags.get("out").empty())
                writeSummary(formatMessage(flags.get("out"), ".run",
                                           baseRun + r),
                             results[r].summary);
            std::cout << "run " << (baseRun + r) << ":\n";
            printStats(results[r].stats, config.connections);
        }
        if (!ok)
            return 1;
        if (!flags.get("out").empty())
            std::cout << "summaries -> " << flags.get("out")
                      << ".run<r>\n";
        return 0;
    } catch (const std::exception &err) {
        std::cerr << "load_gen: " << err.what() << "\n";
        return 1;
    }
}
