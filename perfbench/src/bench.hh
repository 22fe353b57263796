/**
 * @file
 * Shared declarations of the repository benchmark (perfbench).
 *
 * One binary plays two roles. As the generator it builds the traces,
 * pre-encodes every event frame, drives a served Cooper instance over
 * loopback TCP in a closed and an open loop, checks every served
 * summary against the in-process replay, and prints the result line.
 * As `perfbench serve` it is the server process: it builds the
 * drivers, planes and EpollServer for one session at a time and
 * reports its own timestamps, CPU time and peak RSS on stdout.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/framework.hh"
#include "net/frame.hh"
#include "net/service_plane.hh"
#include "online/churn.hh"
#include "online/driver.hh"
#include "shard/sharded_driver.hh"
#include "sim/interference.hh"
#include "workload/catalog.hh"

namespace perfbench {

/** Steady-clock nanoseconds; CLOCK_MONOTONIC, so comparable across
 *  the generator and server processes. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The server's per-connection parking bound (`cooper_cli serve
 *  --max-pending` default), also set on the replayed planes. */
constexpr std::uint64_t kMaxPending = 4096;

/** Run-ahead bound W of the closed loop: a run never has a seq more
 *  than this far ahead of its lowest unacknowledged seq. Below the
 *  parking bound, so Busy cannot fire; as large as that allows, so
 *  the server's input never runs dry. */
constexpr std::uint64_t kWindow = 4000;
static_assert(kWindow < kMaxPending);

/** Bytes of one encoded Event frame (12-byte header + 29 payload). */
constexpr std::size_t kEventFrameBytes = 41;

/** The Event message of trace event `seq`: the one mapping from a
 *  ChurnEvent to the wire, shared by the generator's frames and the
 *  in-process replays. */
inline cooper::net::EventMsg
toMsg(std::size_t seq, const cooper::ChurnEvent &event)
{
    cooper::net::EventMsg msg;
    msg.seq = seq;
    msg.tick = event.tick;
    msg.kind = event.kind == cooper::EventKind::Arrival ? 0 : 1;
    msg.uid = event.uid;
    msg.type = static_cast<std::uint32_t>(event.type);
    return msg;
}

/** One workload: what the server serves and how it is driven. */
struct Workload
{
    std::string name;

    /** Full framework config, `cooper_cli serve` defaults plus the
     *  workload's named overrides. */
    cooper::FrameworkConfig config;

    /** ShardedDriver (config.execution.online.shards domains) instead
     *  of the flat OnlineDriver. */
    bool sharded = false;

    /** Runs on one server (run r seeded seed + r), and connections
     *  per run (the trace is split round-robin by seq). */
    std::size_t runs = 1;
    std::size_t connections = 1;

    /** Hello subscription bits of each run's first connection. */
    std::uint32_t firstSubscriptions = 0;

    /** Trace shape; `arrivals` is set per phase. */
    cooper::ChurnConfig churn;

    /** Trace arrivals per run for each phase at --seconds 10; scaled
     *  linearly with --seconds. */
    std::size_t closedArrivals = 0;
    std::size_t openArrivals = 0;

    /** Open-loop offered rate, events/s summed over all runs. */
    double openRate = 0.0;

    /** Measured sessions per benchmark run; closed-loop and open-loop
     *  sessions alternate. */
    std::size_t closedReps = 0;
    std::size_t openReps = 0;
};

/** The workload named `name`, or nullptr. */
const Workload *findWorkload(const std::string &name);

/** Every knob of the workload, one `key=value` per line. */
std::string describe(const Workload &workload);

/** The run's trace: generateChurnTrace over `arrivals` arrivals,
 *  seeded with `seed`, open-ended, then every job still running
 *  departs one tick after the last arrival. */
cooper::ChurnTrace makeTrace(const Workload &workload,
                             const cooper::Catalog &catalog,
                             std::size_t arrivals, std::uint64_t seed);

/** One run's driver and plane, as the server builds them. */
struct Service
{
    std::unique_ptr<cooper::OnlineDriver> flat;
    std::unique_ptr<cooper::ShardedDriver> sharded;
    std::unique_ptr<cooper::net::ServicePlane> plane;
};

/** Build run `seed`'s service; a sharded workload with a checkpoint
 *  cadence writes its checkpoints to `checkpointPath`. */
Service makeService(const Workload &workload,
                    const cooper::Catalog &catalog,
                    const cooper::InterferenceModel &model,
                    std::uint64_t seed,
                    const std::string &checkpointPath);

/**
 * Split the allowed CPUs between the two processes: the generator
 * takes the last one, the server the rest. Without this the kernel
 * may wake the server on the generator's CPU, where the spinning
 * generator and a busy epoch step time-share one core for
 * milliseconds. No-op with fewer than two allowed CPUs.
 */
void pinProcess(bool generator);

/** `perfbench serve`: the server process's session loop. */
int serveMain(const Workload &workload, std::uint64_t seed,
              const std::string &workdir);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
