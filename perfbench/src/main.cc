/**
 * @file
 * perfbench: the repository benchmark's command.
 *
 *   perfbench --workload wire|groups|fleet --seed N --seconds S --trace 0|1
 *
 * prints a human-readable report on stderr and, as the last line of
 * stdout, {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1. It exits 1 when any served summary differs from its
 * in-process replay. `--inject flip|drop` breaks one reference byte or
 * drops one event, to show that the gate fails the run (see
 * perfbench/test_gate.py). perfbench/README.md defines every metric.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hh"
#include "loadgen.hh"
#include "replay.hh"
#include "util/rng.hh"

namespace {

using namespace cooper;
using namespace perfbench;

/** An open-loop rep whose send lateness p99 exceeds this is invalid:
 *  the generator, not the server, set its latencies. */
constexpr double kLateLimitMs = 1.0;

/** The traced plane replay's spans must cover at least this share of
 *  its wall time. */
constexpr double kMinCoverage = 0.9;

/** A session during which the host withheld more than this share of
 *  the CPU time the machine wanted is disturbed: its latency tail and
 *  its throughput then describe the host. */
constexpr double kMaxSteal = 0.05;

/** Exit code of a run with fewer valid sessions than half the reps of
 *  a phase: its numbers would describe the generator, so it prints no
 *  result line. */
constexpr int kTooFewValid = 3;

/** Nearest-rank quantile; 0 for no samples. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string inject;
    std::string workdir = ".bench_build/work";
};

Args
parseArgs(int argc, char **argv, int first)
{
    Args args;
    for (int i = first; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--inject")
            args.inject = value;
        else if (flag == "--workdir")
            args.workdir = value;
        else
            throw std::runtime_error("unknown flag " + flag);
    }
    if (args.seconds <= 0)
        throw std::runtime_error("--seconds must be positive");
    if (!args.inject.empty() && args.inject != "flip" &&
        args.inject != "drop")
        throw std::runtime_error("--inject takes flip or drop");
    return args;
}

/** Output metrics in insertion order, with their units. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        entries_.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::ostringstream os;
        os << "{";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            char number[64];
            const double v = std::isfinite(entries_[i].value)
                                 ? entries_[i].value
                                 : 0.0;
            std::snprintf(number, sizeof(number), "%.17g", v);
            os << (i ? ", " : "") << "\"" << entries_[i].name
               << "\": {\"value\": " << number << ", \"unit\": \""
               << entries_[i].unit << "\"}";
        }
        os << "}";
        return os.str();
    }

    void
    print(std::ostream &os) const
    {
        for (const Entry &e : entries_)
            os << "  " << e.name << " = " << e.value << " " << e.unit
               << "\n";
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/**
 * One served session's inputs: each run's trace, its reference
 * summary from the in-process replay, and its pre-encoded frames.
 */
struct Phase
{
    std::vector<ChurnTrace> traces;
    std::vector<std::string> refs;
    std::vector<RunFrames> frames;
    SessionPlan plan;

    /** Trace `stream` of run r is drawn from Rng(seed + r)'s
     *  substream `stream`; the run's driver is seeded seed + r. */
    void
    build(const Workload &w, const Catalog &catalog,
          const InterferenceModel &model, std::uint64_t seed,
          std::uint64_t stream, std::size_t arrivals,
          const std::string &checkpoint, SpanLog *spans, StepLayer *layer)
    {
        for (std::size_t r = 0; r < w.runs; ++r)
            traces.push_back(makeTrace(
                w, catalog, arrivals, Rng(seed + r).substream(stream)()));
        for (std::size_t r = 0; r < w.runs; ++r) {
            refs.push_back(stepwiseReplay(
                w, catalog, model, traces[r], seed + r,
                static_cast<std::uint32_t>(r), checkpoint, spans, layer));
            frames.push_back(encodeRun(traces[r], w.connections));
        }
        plan.firstSubscriptions = w.firstSubscriptions;
        for (const RunFrames &run : frames)
            plan.runs.push_back(&run);
    }
};

/**
 * One phase's reps, each built when it is first served. The generator
 * then holds at most two reps' inputs, and the reference replays fall
 * between sessions, so the sessions spread over the whole run. Rep 0
 * stays built for the obs pass, the traced replays and the gate's
 * self-test.
 */
class Reps
{
  public:
    using Make = std::function<void(Phase &, std::size_t)>;

    explicit Reps(Make make) : make_(std::move(make))
    {
        make_(first_, 0);
    }

    Phase &
    at(std::size_t i)
    {
        if (i == 0)
            return first_;
        if (!later_ || laterIndex_ != i) {
            later_.reset();
            make_(later_.emplace(), i);
            laterIndex_ = i;
        }
        return *later_;
    }

  private:
    Make make_;
    Phase first_;
    std::optional<Phase> later_;
    std::size_t laterIndex_ = 0;
};

/** One valid closed-loop session's totals. */
struct ClosedSession
{
    double events = 0.0, wallS = 0.0, cpuS = 0.0, steal = 0.0;
};

/** One valid open-loop session's latency samples. */
struct OpenSession
{
    std::vector<double> eventMs, epochMs;
    std::size_t drained = 0;
    double steal = 0.0;
};

/** The `reps` least disturbed of a phase's valid sessions; among equals,
 *  the first served. */
template <typename Session>
std::vector<const Session *>
calmest(const std::vector<Session> &sessions, std::size_t reps)
{
    std::vector<const Session *> out;
    for (const Session &session : sessions)
        out.push_back(&session);
    std::stable_sort(out.begin(), out.end(),
                     [](const Session *a, const Session *b) {
                         return a->steal < b->steal;
                     });
    out.resize(std::min(out.size(), reps));
    return out;
}

/**
 * Everything the served sessions measured. Set-up, peak RSS and the
 * gate take every session; the loop metrics pool the calmest valid
 * sessions, one per rep. Pooled figures move smoothly with the share of
 * sessions that met one of the machine's slow stretches, where a
 * median over sessions jumps between the fast and the slow value.
 */
struct Served
{
    std::vector<double> setupS, driversMs, listenMs, handshakeMs;

    std::vector<ClosedSession> closed; // valid sessions
    std::vector<OpenSession> open;     // valid sessions

    std::vector<double> lateP99; // every open-loop session
    std::size_t closedBusy = 0, busy = 0, retries = 0;
    std::size_t invalid = 0, disturbed = 0;
    double peakRssMb = 0.0;

    std::size_t attempted = 0; // events
    std::size_t okEvents = 0;  // acked in runs that matched
    bool allMatched = true;

    NetCounters obs;
    std::size_t obsEvents = 0;
};

/** Check each run's summary; fold the run into ok_ratio. */
void
gate(const SessionResult &s, const Phase &phase, const char *name,
     Served &out)
{
    if (!s.error.empty())
        std::cerr << name << ": " << s.error << "\n";
    for (std::size_t r = 0; r < phase.refs.size(); ++r) {
        const bool match = s.served && s.summaries[r] == phase.refs[r];
        out.attempted += phase.traces[r].size();
        if (match)
            out.okEvents += s.acked[r];
        else
            std::cerr << name << " run " << r
                      << ": served summary differs from the in-process "
                         "replay ("
                      << s.summaries[r].size() << " vs "
                      << phase.refs[r].size() << " bytes)\n";
        out.allMatched = out.allMatched && match;
    }
}

void
recordSetup(const SessionResult &s, Served &out)
{
    out.setupS.push_back(s.setupS);
    out.driversMs.push_back(s.driversMs);
    out.listenMs.push_back(s.listenMs);
    out.handshakeMs.push_back(s.handshakeMs);
}

std::size_t
total(const std::vector<std::size_t> &v)
{
    std::size_t sum = 0;
    for (std::size_t x : v)
        sum += x;
    return sum;
}

int
generatorMain(const Args &args)
{
    const Workload *found = findWorkload(args.workload);
    if (found == nullptr)
        throw std::runtime_error("unknown workload '" + args.workload +
                                 "' (wire, groups, fleet)");
    const Workload &w = *found;
    std::filesystem::create_directories(args.workdir);
    const double scale = args.seconds / 10.0;
    const auto scaled = [scale](std::size_t n) {
        return std::max<std::size_t>(
            1, static_cast<std::size_t>(std::llround(n * scale)));
    };
    std::cerr << describe(w) << "seed=" << args.seed
              << "\nseconds=" << args.seconds << "\n";

    // The server process starts before the generator allocates its
    // inputs, so nothing of the generator's is ever counted as its.
    const std::string exe =
        std::filesystem::read_symlink("/proc/self/exe").string();
    ServerProcess server(exe, {"serve", "--workload", w.name, "--seed",
                               std::to_string(args.seed), "--workdir",
                               args.workdir});
    pinProcess(true);

    const Catalog catalog = Catalog::paperTableI();
    const InterferenceModel model(catalog);

    // Open-loop latency samples start once the initial population has
    // been admitted, plus one epoch: the admission ramp is a one-off
    // burst of probing that a serving fleet does not see again.
    const OnlineConfig &online = w.config.execution.online;
    const std::uint64_t warmupTicks =
        ((w.churn.initialJobs + online.admitPerEpoch - 1) /
             online.admitPerEpoch +
         1) *
        online.epochTicks;

    // Every rep serves fresh traces, so one benchmark run averages
    // over several trace draws instead of replaying one; all of them
    // come from --seed, and run r's driver is seeded seed + r.
    SpanLog spans;
    StepLayer layer;
    const std::string refCheckpoint = args.workdir + "/reference.ckpt";
    Reps closed([&](Phase &phase, std::size_t i) {
        phase.build(w, catalog, model, args.seed, 2 * i,
                    scaled(w.closedArrivals), refCheckpoint, nullptr,
                    nullptr);
        phase.plan.loop = Loop::Closed;
    });
    Reps open([&](Phase &phase, std::size_t i) {
        // With --trace 1, rep 0's open-loop replay carries the spans.
        const bool traced = args.trace && i == 0;
        phase.build(w, catalog, model, args.seed, 2 * i + 1,
                    scaled(w.openArrivals), refCheckpoint,
                    traced ? &spans : nullptr, traced ? &layer : nullptr);
        phase.plan.loop = Loop::Open;
        phase.plan.warmupTicks = warmupTicks;
        // Runs on one server are offered slightly different rates so
        // their epoch boundaries drift through every relative phase:
        // with equal rates, whether two runs' epochs collide would be
        // fixed by the seed.
        for (std::size_t r = 0; r < w.runs; ++r)
            phase.plan.ratePerRun.push_back(
                w.openRate / static_cast<double>(w.runs) *
                (1.0 + 0.1 * (static_cast<double>(r) -
                              static_cast<double>(w.runs - 1) / 2.0)));
    });
    if (args.inject == "flip") {
        std::string &ref = closed.at(0).refs[0];
        ref[ref.size() / 2] ^= 1;
    }

    Served served;

    // A session is invalid when the generator, not the server, may have
    // set its numbers: any Busy in the closed loop, or open-loop sends
    // later than kLateLimitMs at p99. It is disturbed when the host stole
    // more than kMaxSteal of the CPU time. Each returns whether the
    // session was valid and calm.
    const auto closedRep = [&](std::size_t i) {
        const Phase &phase = closed.at(i);
        SessionPlan plan = phase.plan;
        plan.dropLastEvent = args.inject == "drop" && i == 0;
        const SessionResult s = runSession(server, plan);
        recordSetup(s, served);
        gate(s, phase, "closed", served);
        const double events = static_cast<double>(total(s.acked));
        const double rate = ratio(events, s.wallS);
        const double cpu = ratio(s.serverCpuS * 1e6, events);
        served.closedBusy += s.busyRefusals;
        served.busy += s.busyRefusals;
        served.retries += s.retries;
        const bool valid = s.busyRefusals == 0;
        const bool calm = s.stealShare <= kMaxSteal;
        std::cerr << "closed rep " << i << ": events_per_s=" << rate
                  << " server_cpu_us_per_event=" << cpu
                  << " busy=" << s.busyRefusals << " retries=" << s.retries
                  << " setup_ms=" << s.setupS * 1e3
                  << " steal=" << s.stealShare
                  << " rss_mb=" << s.maxRssMb
                  << (valid ? "" : " INVALID") << (calm ? "" : " DISTURBED")
                  << "\n";
        served.peakRssMb = std::max(served.peakRssMb, s.maxRssMb);
        served.invalid += valid ? 0 : 1;
        served.disturbed += calm ? 0 : 1;
        if (valid)
            served.closed.push_back(
                {events, s.wallS, s.serverCpuS, s.stealShare});
        return valid && calm;
    };

    const auto openRep = [&](std::size_t i) {
        const Phase &phase = open.at(i);
        const SessionResult s = runSession(server, phase.plan);
        recordSetup(s, served);
        gate(s, phase, "open", served);
        served.busy += s.busyRefusals;
        served.retries += s.retries;
        served.peakRssMb = std::max(served.peakRssMb, s.maxRssMb);
        const double late = quantile(s.lateMs, 0.99);
        const bool valid = late <= kLateLimitMs;
        const bool calm = s.stealShare <= kMaxSteal;
        std::cerr << "open rep " << i << ": event_ms p50/p90/p99="
                  << quantile(s.eventMs, 0.5) << "/"
                  << quantile(s.eventMs, 0.9) << "/"
                  << quantile(s.eventMs, 0.99)
                  << " epoch_ms p50/p90/p99=" << quantile(s.epochMs, 0.5)
                  << "/" << quantile(s.epochMs, 0.9) << "/"
                  << quantile(s.epochMs, 0.99)
                  << " events_n=" << s.eventMs.size()
                  << " epochs_n=" << s.epochMs.size()
                  << " drained=" << s.drainedEpochs
                  << " late_ms_p99=" << late << " busy=" << s.busyRefusals
                  << " retries=" << s.retries
                  << " setup_ms=" << s.setupS * 1e3
                  << " steal=" << s.stealShare
                  << (valid ? "" : " INVALID") << (calm ? "" : " DISTURBED")
                  << "\n";
        served.lateP99.push_back(late);
        served.invalid += valid ? 0 : 1;
        served.disturbed += calm ? 0 : 1;
        if (valid)
            served.open.push_back(
                {s.eventMs, s.epochMs, s.drainedEpochs, s.stealShare});
        return valid && calm;
    };

    // Closed and open sessions alternate, so a slow stretch of the
    // machine lands on both phases instead of all sessions of one. Each
    // invalid or disturbed session adds one more rep with fresh inputs,
    // up to half the phase's reps.
    const auto more = [](std::size_t served, std::size_t good,
                         std::size_t reps) {
        return good < reps && served < reps + reps / 2;
    };
    std::size_t closedServed = 0, closedGood = 0;
    std::size_t openServed = 0, openGood = 0;
    while (more(closedServed, closedGood, w.closedReps) ||
           more(openServed, openGood, w.openReps)) {
        if (more(closedServed, closedGood, w.closedReps))
            closedGood += closedRep(closedServed++) ? 1 : 0;
        if (more(openServed, openGood, w.openReps))
            openGood += openRep(openServed++) ? 1 : 0;
    }

    double closedEvents = 0.0, closedWallS = 0.0, closedCpuS = 0.0;
    for (const ClosedSession *c : calmest(served.closed, w.closedReps)) {
        closedEvents += c->events;
        closedWallS += c->wallS;
        closedCpuS += c->cpuS;
    }
    std::vector<double> eventMs, epochMs;
    std::size_t drained = 0;
    for (const OpenSession *o : calmest(served.open, w.openReps)) {
        eventMs.insert(eventMs.end(), o->eventMs.begin(), o->eventMs.end());
        epochMs.insert(epochMs.end(), o->epochMs.begin(), o->epochMs.end());
        drained += o->drained;
    }

    if (args.trace) {
        // One closed-loop pass with the server's metrics session on,
        // for the net.* counters behind the server rows.
        SessionPlan plan = closed.at(0).plan;
        plan.obs = true;
        const SessionResult s = runSession(server, plan);
        gate(s, closed.at(0), "obs", served);
        served.obs = s.net;
        served.obsEvents = total(s.acked);
    }
    if (!server.finish())
        throw std::runtime_error("server process did not exit cleanly");

    Metrics metrics;
    bool correct = served.allMatched;
    if (!args.trace) {
        metrics.add("setup_s", median(served.setupS), "s");
        metrics.add("events_per_s", ratio(closedEvents, closedWallS),
                    "events/s");
        metrics.add("event_ms_p50", quantile(eventMs, 0.5), "ms");
        metrics.add("event_ms_p90", quantile(eventMs, 0.9), "ms");
        metrics.add("epoch_ms_p50", quantile(epochMs, 0.5), "ms");
        metrics.add("epoch_ms_p90", quantile(epochMs, 0.9), "ms");
        metrics.add("peak_rss_mb", served.peakRssMb, "MiB");
        metrics.add("ok_ratio",
                    ratio(static_cast<double>(served.okEvents),
                          static_cast<double>(served.attempted)),
                    "share");
    } else {
        // Plane replay, traced and untraced, over the open-loop trace
        // in the closed loop's interleaving.
        const std::size_t burst = kWindow / w.connections;
        const Phase &first = open.at(0);
        // The first, discarded pass warms the allocator and caches so
        // that neither timed pass pays for it.
        PlaneLayer warm, traced, untraced;
        for (std::size_t r = 0; r < w.runs; ++r) {
            const auto run = static_cast<std::uint32_t>(r);
            planeReplay(w, catalog, model, first.traces[r],
                        args.seed + r, run, burst, refCheckpoint, nullptr,
                        warm);
            planeReplay(w, catalog, model, first.traces[r],
                        args.seed + r, run, burst, refCheckpoint, &spans,
                        traced);
            const bool loud = traced.summary == first.refs[r];
            planeReplay(w, catalog, model, first.traces[r],
                        args.seed + r, run, burst, refCheckpoint, nullptr,
                        untraced);
            const bool quiet = untraced.summary == first.refs[r];
            if (!quiet || !loud)
                std::cerr << "plane replay run " << r
                          << ": summary differs from the stepwise replay\n";
            correct = correct && quiet && loud;
        }
        const double coverage = ratio(traced.coveredS, traced.wallS);
        if (coverage < kMinCoverage) {
            std::cerr << "plane replay spans cover only " << coverage
                      << " of its wall time\n";
            correct = false;
        }
        const FrameLayer frame = frameTiming(first.traces[0], 5);

        const double events = static_cast<double>(served.obsEvents);
        const NetCounters &net = served.obs;
        const bool flat = !w.sharded;
        const std::vector<double> driverStep =
            spans.durationsMs(flat ? "online.step" : "shard.step");
        const std::vector<double> domainStep =
            spans.selfMs(flat ? "online.step" : "shard.step");
        const double epochs = static_cast<double>(layer.epochs);
        const double domainEpochs = static_cast<double>(layer.shardEpochs);
        const bool coalition = w.config.policy == "coalition";

        metrics.add("gen.late_ms_p99", median(served.lateP99), "ms");
        metrics.add("gen.busy_refusals", static_cast<double>(served.busy),
                    "count");
        metrics.add("gen.closed_busy_refusals",
                    static_cast<double>(served.closedBusy), "count");
        metrics.add("gen.retries", static_cast<double>(served.retries),
                    "count");
        metrics.add("gen.invalid_reps", static_cast<double>(served.invalid),
                    "count");
        metrics.add("gen.disturbed_reps",
                    static_cast<double>(served.disturbed), "count");
        metrics.add("gen.event_ms_p99", quantile(eventMs, 0.99), "ms");
        metrics.add("gen.epoch_ms_p99", quantile(epochMs, 0.99), "ms");
        metrics.add("gen.events_n", static_cast<double>(eventMs.size()),
                    "count");
        metrics.add("gen.epochs_n", static_cast<double>(epochMs.size()),
                    "count");
        metrics.add("gen.drained_epochs_n", static_cast<double>(drained),
                    "count");

        metrics.add("frame.encode_ns_per_event", frame.encodeNs, "ns");
        metrics.add("frame.decode_ns_per_event", frame.decodeNs, "ns");
        metrics.add("frame.bytes_per_event",
                    ratio(static_cast<double>(net.bytesIn + net.bytesOut),
                          events),
                    "bytes");

        metrics.add("server.cpu_us_per_event",
                    ratio(closedCpuS * 1e6, closedEvents), "us");
        metrics.add("server.read_syscalls_per_kevent",
                    ratio(static_cast<double>(net.reads) * 1e3, events),
                    "count");
        metrics.add("server.write_syscalls_per_kevent",
                    ratio(static_cast<double>(net.writes) * 1e3, events),
                    "count");
        metrics.add("server.frames_out_per_event",
                    ratio(static_cast<double>(net.framesOut), events),
                    "count");

        metrics.add("plane.ingest_us_p50", quantile(traced.ingestUs, 0.5),
                    "us");
        metrics.add("plane.ingest_us_p99", quantile(traced.ingestUs, 0.99),
                    "us");
        metrics.add("plane.commit_ms_p50", quantile(traced.commitMs, 0.5),
                    "ms");
        metrics.add("plane.commit_ms_p90", quantile(traced.commitMs, 0.9),
                    "ms");
        metrics.add("plane.complete_ms", median(traced.completeMs), "ms");
        metrics.add("plane.busy_ratio",
                    ratio(static_cast<double>(traced.busy),
                          static_cast<double>(traced.ingests + traced.busy)),
                    "share");

        metrics.add("online.step_ms_p50", quantile(driverStep, 0.5), "ms");
        metrics.add("online.step_ms_p90", quantile(driverStep, 0.9), "ms");
        metrics.add("online.population_mean", ratio(layer.population, epochs),
                    "jobs");
        metrics.add("online.probes_per_epoch", ratio(layer.probes, epochs),
                    "count");
        metrics.add("online.reject_ratio",
                    ratio(layer.rejected, layer.arrivals), "share");

        metrics.add("cf.recomputed_pairs_per_epoch",
                    ratio(layer.recomputedPairs, epochs), "count");
        metrics.add("cf.cache_hit_ratio",
                    ratio(layer.cacheHits, domainEpochs), "share");

        const double pairMode = coalition ? 0.0 : 1.0;
        metrics.add("matching.blocking_before_per_epoch",
                    pairMode * ratio(layer.blockingBefore, epochs), "count");
        metrics.add("matching.pairs_broken_per_epoch",
                    pairMode * ratio(layer.pairsBroken, epochs), "count");
        metrics.add("matching.full_rematch_ratio",
                    pairMode * ratio(layer.fullRematches, domainEpochs),
                    "share");
        metrics.add("matching.migrations_per_epoch",
                    pairMode * ratio(layer.migrations, epochs), "count");
        const double groupMode = 1.0 - pairMode;
        metrics.add("coalition.blocking_before_per_epoch",
                    groupMode * ratio(layer.blockingBefore, epochs), "count");
        metrics.add("coalition.blocking_after_per_epoch",
                    groupMode * ratio(layer.blockingAfter, epochs), "count");
        metrics.add("coalition.migrations_per_epoch",
                    groupMode * ratio(layer.migrations, epochs), "count");

        metrics.add("shard.step_ms_p50", quantile(domainStep, 0.5), "ms");
        metrics.add("shard.step_ms_p90", quantile(domainStep, 0.9), "ms");
        metrics.add("shard.population_imbalance",
                    ratio(layer.imbalance, epochs), "ratio");
        metrics.add("shard.cross_migrations_per_epoch",
                    ratio(layer.crossMigrations, epochs), "count");

        metrics.add("io.checkpoint_ms_p50",
                    median(spans.durationsMs("io.checkpoint")), "ms");
        metrics.add("io.checkpoint_kb", median(layer.checkpointKb), "KiB");

        metrics.add("setup.drivers_ms", median(served.driversMs), "ms");
        metrics.add("setup.listen_ms", median(served.listenMs), "ms");
        metrics.add("setup.handshake_ms", median(served.handshakeMs), "ms");

        metrics.add("trace.overhead_ratio",
                    ratio(traced.wallS, untraced.wallS), "ratio");
        metrics.add("trace.plane_coverage", coverage, "share");
        spans.write(args.workdir + "/spans-" + w.name + "-" +
                    std::to_string(args.seed) + ".json");
    }

    std::cerr << "metrics:\n";
    metrics.print(std::cerr);
    const std::size_t failed = served.attempted - served.okEvents;
    std::cerr << (correct ? "correct" : "INCORRECT") << ": "
              << served.okEvents << " of " << served.attempted
              << " events acknowledged in runs that matched their "
                 "reference\n";
    std::cerr << "valid sessions: closed " << served.closed.size()
              << " of " << closedServed << ", open " << served.open.size()
              << " of " << openServed << " (" << served.disturbed
              << " disturbed)\n";
    if (correct && (2 * served.closed.size() < w.closedReps ||
                    2 * served.open.size() < w.openReps)) {
        std::cerr << "perfbench: fewer than half the sessions of a phase "
                     "were valid; no result\n";
        return kTooFewValid;
    }
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << served.attempted
              << ", \"failed\": " << failed
              << ", \"metrics\": " << metrics.json() << "}" << std::endl;
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc >= 2 && std::string(argv[1]) == "serve") {
            const Args args = parseArgs(argc, argv, 2);
            const Workload *w = findWorkload(args.workload);
            if (w == nullptr)
                throw std::runtime_error("unknown workload");
            return serveMain(*w, args.seed, args.workdir);
        }
        return generatorMain(parseArgs(argc, argv, 1));
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
