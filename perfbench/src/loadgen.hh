/**
 * @file
 * The benchmark's load generator: one thread, every frame encoded
 * before the clock starts, and a server in its own process.
 *
 * A session asks the server process to build a fresh service, opens
 * every connection of every run, handshakes, and then plays one of
 * two loops:
 *
 *  - Closed: a run never sends a seq more than kWindow ahead of its
 *    lowest unacknowledged seq.
 *  - Open: the initial population (the events at tick 0) is due at
 *    the start, and the i-th event after it at start + i / rate; every
 *    pass sends every due event, and times each Ack and EpochComplete
 *    from the due time of the event behind it.
 *
 * In the open loop and the handshake the generator spins instead of
 * sleeping, so a sleep's timer slack never makes a send late and its
 * wakeup latency is never measured; the closed loop sleeps while its
 * window is full.
 */

#ifndef PERFBENCH_LOADGEN_HH
#define PERFBENCH_LOADGEN_HH

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

#include "online/events.hh"

namespace perfbench {

/** The server process (`perfbench serve ...`), driven over pipes. */
class ServerProcess
{
  public:
    ServerProcess(const std::string &exe,
                  const std::vector<std::string> &args);
    ~ServerProcess();

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    void sendLine(const std::string &line);

    /** Next stdout line; throws on end of output or timeout. */
    std::string readLine(int timeoutMs);

    /** Ask the process to quit and reap it; true on a clean exit. */
    bool finish();

  private:
    pid_t pid_ = -1;
    int toChild_ = -1;
    int fromChild_ = -1;
    std::string buffered_;
};

/** One run's trace, split round-robin by seq over its connections and
 *  encoded as Event frames, one contiguous buffer per connection. */
struct RunFrames
{
    const cooper::ChurnTrace *trace = nullptr;
    std::vector<std::vector<std::uint8_t>> perConnection;
};

RunFrames encodeRun(const cooper::ChurnTrace &trace,
                    std::size_t connections);

enum class Loop
{
    Closed,
    Open,
};

struct SessionPlan
{
    Loop loop = Loop::Closed;
    std::vector<const RunFrames *> runs;
    std::uint32_t firstSubscriptions = 0;

    /** Open loop: offered events/s of each run. */
    std::vector<double> ratePerRun;

    /** Open loop: latency samples skip events before this tick and
     *  epochs whose boundary is not past it, and the departures at the
     *  trace's last tick that empty the service. */
    std::uint64_t warmupTicks = 0;

    /** Ask the server to run this session with its metrics on. */
    bool obs = false;

    /** Gate self-test: never send run 0's last event, and declare
     *  only what was sent. */
    bool dropLastEvent = false;
};

/** Server counters read from the obs session (zero without it). */
struct NetCounters
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t framesIn = 0;
    std::uint64_t framesOut = 0;
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;
};

struct SessionResult
{
    /** Server side: did every run resolve with a summary, the
     *  server's CPU time inside runUntilServed, its peak RSS so far. */
    bool served = false;
    double serverCpuS = 0.0;
    double maxRssMb = 0.0;
    NetCounters net;

    /** Set-up: build start to the last HelloAck, and its parts. */
    double setupS = 0.0;
    double driversMs = 0.0;
    double listenMs = 0.0;
    double handshakeMs = 0.0;

    /** First event send to the last Summary frame. */
    double wallS = 0.0;

    /** Per run: events acked, Summary bytes (empty when none arrived
     *  or the run's connections disagreed). */
    std::vector<std::size_t> acked;
    std::vector<std::string> summaries;

    /** Open loop only, milliseconds: Ack minus due time per event,
     *  EpochComplete minus the closing event's due time per epoch,
     *  and send minus due time per event. */
    std::vector<double> eventMs;
    std::vector<double> epochMs;
    std::vector<double> lateMs;

    /** Epochs committed after Finished (no closing event). */
    std::size_t drainedEpochs = 0;

    std::size_t busyRefusals = 0;
    std::size_t retries = 0;

    /** Host steal over the session's loop on the server's CPUs:
     *  stolen ÷ (busy + stolen) CPU time, from /proc/stat. */
    double stealShare = 0.0;

    /** Protocol or socket failure seen by the generator. */
    std::string error;
};

SessionResult runSession(ServerProcess &server, const SessionPlan &plan);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HH
