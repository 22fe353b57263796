#include <ctime>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <sys/resource.h>

#include "bench.hh"
#include "net/server.hh"
#include "obs/obs.hh"

namespace perfbench {

namespace {

using namespace cooper;

std::int64_t
processCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/**
 * Peak resident set of this process's own address space (VmHWM). The
 * rusage maximum would also count the parent's resident set at spawn
 * time, which exec folds into it.
 */
long
maxRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            long kb = 0;
            status >> kb;
            return kb;
        }
        status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

std::uint64_t
counterValue(const MetricsSnapshot &snapshot, const std::string &name)
{
    for (const auto &[counter, value] : snapshot.counters)
        if (counter == name)
            return value;
    return 0;
}

} // namespace

int
serveMain(const Workload &workload, std::uint64_t seed,
          const std::string &workdir)
{
    pinProcess(false);

    // Process-wide constants, built once and outside every session's
    // set-up time (the CLI builds them before any driver too).
    const Catalog catalog = Catalog::paperTableI();
    const InterferenceModel model(catalog);

    // Protocol on stdin/stdout, one line each way per step:
    //   "session" | "session obs"  ->  "ready <port> <t0> <tDrivers> <tBound>"
    //   (serve until every run resolves)  ->  "done <served> <cpuNs> <maxRssKb> <net counters>"
    //   "quit" or end of input  ->  exit
    std::string line;
    while (std::getline(std::cin, line)) {
        if (line == "quit")
            break;
        if (line != "session" && line != "session obs") {
            std::cerr << "perfbench serve: unknown command '" << line
                      << "'\n";
            return 2;
        }
        std::optional<ObsScope> scope;
        if (line == "session obs") {
            ObsConfig obs;
            obs.metrics = true;
            scope.emplace(obs);
        }

        const std::int64_t t0 = nowNs();
        std::vector<Service> services;
        for (std::size_t r = 0; r < workload.runs; ++r)
            services.push_back(makeService(
                workload, catalog, model, seed + r,
                workdir + "/checkpoint.run" + std::to_string(r)));
        const std::int64_t tDrivers = nowNs();
        net::ServerConfig config;
        config.maxPendingPerConn = kMaxPending;
        auto server = std::make_unique<net::EpollServer>(config);
        for (std::size_t r = 0; r < workload.runs; ++r)
            server->addRun(r, *services[r].plane);
        const std::int64_t tBound = nowNs();
        std::cout << "ready " << server->port() << ' ' << t0 << ' '
                  << tDrivers << ' ' << tBound << std::endl;

        const std::int64_t cpu0 = processCpuNs();
        const bool served = server->runUntilServed();
        const std::int64_t cpuNs = processCpuNs() - cpu0;
        if (!served)
            std::cerr << "perfbench serve: " << server->lastError()
                      << "\n";

        std::uint64_t counters[6] = {};
        if (scope) {
            const MetricsSnapshot snapshot = obsMetrics()->snapshot();
            const char *names[6] = {
                "net.read_syscalls", "net.write_syscalls",
                "net.frames_in",     "net.frames_out",
                "net.bytes_in",      "net.bytes_out"};
            for (int i = 0; i < 6; ++i)
                counters[i] = counterValue(snapshot, names[i]);
        }
        server.reset();
        services.clear();
        scope.reset();
        std::cout << "done " << (served ? 1 : 0) << ' ' << cpuNs << ' '
                  << maxRssKb();
        for (const std::uint64_t c : counters)
            std::cout << ' ' << c;
        std::cout << std::endl;
    }
    return 0;
}

} // namespace perfbench
