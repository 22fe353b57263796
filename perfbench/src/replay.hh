/**
 * @file
 * In-process replays: the correctness reference and the traced
 * per-layer measurements.
 *
 * Spans are recorded here, in the benchmark's own code, around calls
 * into each module's public functions; nothing inside the program is
 * instrumented for the benchmark. They stay in memory and are written
 * out at exit.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hh"

namespace perfbench {

/** One timed call: name, start, end, parent span, run and epoch. */
struct Span
{
    const char *name = "";
    std::int64_t beginNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = -1;
    std::uint32_t run = 0;
    std::uint64_t epoch = 0;
};

class SpanLog
{
  public:
    std::int32_t open(const char *name, std::int32_t parent,
                      std::uint32_t run, std::uint64_t epoch);
    void close(std::int32_t id);
    void rename(std::int32_t id, const char *name);

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations, in ms, of every span named `name`. */
    std::vector<double> durationsMs(const std::string &name) const;

    /** Self times, in ms, of every span named `name`: its duration
     *  minus the time its children cover. */
    std::vector<double> selfMs(const std::string &name) const;

    /** Chrome-trace JSON ("X" events, microseconds). */
    void write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

/** What the stepwise replay saw, summed over epochs (and shards). */
struct StepLayer
{
    std::size_t epochs = 0;
    std::size_t shardEpochs = 0;     //!< epochs x domains
    double population = 0;           //!< sum of live jobs per epoch
    double probes = 0;
    double recomputedPairs = 0;
    double cacheHits = 0;            //!< per domain-epoch
    double blockingBefore = 0;
    double blockingAfter = 0;
    double pairsBroken = 0;
    double fullRematches = 0;        //!< per domain-epoch
    double migrations = 0;
    double crossMigrations = 0;
    double imbalance = 0;            //!< sum of max/mean per epoch
    double arrivals = 0;
    double rejected = 0;
    std::vector<double> checkpointKb;
};

/**
 * The run() replay as its stepwise calls: beginReport, stepEpoch until
 * idle, finalizeReport. Returns the summary bytes — the reference every
 * served summary must equal. With `spans`, each stepEpoch is an
 * `online.step` (flat) or `shard.step` (sharded) span, checkpoint
 * writes are `io.checkpoint` children, and `layer` collects the
 * epoch stats.
 */
std::string stepwiseReplay(const Workload &workload,
                           const cooper::Catalog &catalog,
                           const cooper::InterferenceModel &model,
                           const cooper::ChurnTrace &trace,
                           std::uint64_t seed, std::uint32_t run,
                           const std::string &checkpointPath,
                           SpanLog *spans, StepLayer *layer);

/** What the plane replay measured. */
struct PlaneLayer
{
    std::vector<double> ingestUs; //!< ingests that committed no epoch
    std::vector<double> commitMs; //!< ingests that committed >= 1
    std::vector<double> completeMs;
    std::size_t ingests = 0;
    std::size_t busy = 0;
    double wallS = 0.0;
    double coveredS = 0.0; //!< wall time inside top-level spans
    std::string summary;
};

/**
 * Feed `trace` to a fresh driver through a ServicePlane with the
 * server's flow-control bound, in the generator's connection
 * interleaving: connections take turns, each ingesting its next
 * `burst` events. `spans` null times only the whole replay.
 */
void planeReplay(const Workload &workload, const cooper::Catalog &catalog,
                 const cooper::InterferenceModel &model,
                 const cooper::ChurnTrace &trace, std::uint64_t seed,
                 std::uint32_t run, std::size_t burst,
                 const std::string &checkpointPath, SpanLog *spans,
                 PlaneLayer &out);

/** Nanoseconds per event to encode (EventMsg::encode + encodeFrame)
 *  and decode (tryDecodeFrame + EventMsg::decode) every frame of
 *  `trace`, median of `reps` passes. */
struct FrameLayer
{
    double encodeNs = 0.0;
    double decodeNs = 0.0;
};
FrameLayer frameTiming(const cooper::ChurnTrace &trace, int reps);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
