#include "replay.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "io/serialize.hh"
#include "net/frame.hh"

namespace perfbench {

namespace {

using namespace cooper;

double
msSince(std::int64_t beginNs, std::int64_t endNs)
{
    return static_cast<double>(endNs - beginNs) / 1e6;
}

double
fileKb(const std::string &path)
{
    return static_cast<double>(std::filesystem::file_size(path)) / 1024.0;
}

/** Epochs a replay may step past its trace's last event before it
 *  counts as never going idle. */
constexpr std::uint64_t kMaxDrainEpochs = 1000;

/** Fail instead of spinning when the driver does not go idle after
 *  the trace ends (the sharded rebalancer can keep migrating the jobs
 *  of a static population forever; see README). */
void
checkProgress(std::uint64_t epoch, const Workload &workload,
              const ChurnTrace &trace)
{
    const std::uint64_t ticks = workload.config.execution.online.epochTicks;
    if (epoch > trace.lastTick() / ticks + kMaxDrainEpochs)
        throw std::runtime_error(
            "replay: driver still not idle " +
            std::to_string(kMaxDrainEpochs) +
            " epochs after the last event");
}

/** One domain's epoch stats into the layer sums. */
void
addEpoch(StepLayer &layer, const OnlineEpochStats &e)
{
    ++layer.shardEpochs;
    layer.probes += static_cast<double>(e.probes);
    layer.recomputedPairs += static_cast<double>(e.recomputedPairs);
    layer.cacheHits += e.predictCacheHit ? 1 : 0;
    layer.blockingBefore += static_cast<double>(e.blockingBefore);
    layer.blockingAfter += static_cast<double>(e.blockingAfter);
    layer.pairsBroken += static_cast<double>(e.pairsBroken);
    layer.fullRematches += e.fullRematch ? 1 : 0;
    layer.migrations += static_cast<double>(e.migrations);
}

std::string
flatReplay(const Workload &workload, const Catalog &catalog,
           const InterferenceModel &model, const ChurnTrace &trace,
           std::uint64_t seed, std::uint32_t run,
           const std::string &checkpointPath, SpanLog *spans,
           StepLayer *layer)
{
    OnlineDriver driver(catalog, model, workload.config, seed);
    EventQueue queue;
    queue.push(trace);
    OnlineReport report = driver.beginReport();
    while (!driver.idle(queue)) {
        checkProgress(driver.epoch(), workload, trace);
        const std::int32_t id =
            spans ? spans->open("online.step", -1, run, driver.epoch())
                  : -1;
        driver.stepEpoch(queue, report);
        if (spans)
            spans->close(id);
        if (layer) {
            const OnlineEpochStats &e = report.epochs.back();
            ++layer->epochs;
            layer->population += static_cast<double>(e.population);
            layer->imbalance += 1.0; // one matching domain
            addEpoch(*layer, e);
        }
    }
    driver.finalizeReport(report);
    if (layer) {
        layer->arrivals += static_cast<double>(report.totalArrivals);
        layer->rejected += static_cast<double>(report.totalRejected);
        // The flat workloads serve no checkpoints; the io layer is
        // measured as one save of the final state.
        const OnlineState state = driver.snapshot();
        const std::int32_t id =
            spans ? spans->open("io.checkpoint", -1, run, driver.epoch())
                  : -1;
        saveOnlineState(checkpointPath, state);
        if (spans)
            spans->close(id);
        layer->checkpointKb.push_back(fileKb(checkpointPath));
    }
    std::ostringstream os;
    writeOnlineSummary(os, report);
    return os.str();
}

std::string
shardedReplay(const Workload &workload, const Catalog &catalog,
              const InterferenceModel &model, const ChurnTrace &trace,
              std::uint64_t seed, std::uint32_t run,
              const std::string &checkpointPath, SpanLog *spans,
              StepLayer *layer)
{
    ShardedDriver driver(catalog, model, workload.config, seed);
    std::int32_t step = -1;
    if (workload.config.execution.online.checkpointEveryEpochs > 0)
        driver.setCheckpointSink([&](const ShardedState &state) {
            const std::int32_t id =
                spans ? spans->open("io.checkpoint", step, run,
                                    driver.epoch())
                      : -1;
            saveShardedState(checkpointPath, state);
            if (spans)
                spans->close(id);
            if (layer)
                layer->checkpointKb.push_back(fileKb(checkpointPath));
            return true;
        });
    EventQueue queue;
    queue.push(trace);
    ShardedReport report = driver.beginReport();
    while (!driver.idle(queue)) {
        checkProgress(driver.epoch(), workload, trace);
        step = spans ? spans->open("shard.step", -1, run, driver.epoch())
                     : -1;
        driver.stepEpoch(queue, report);
        if (spans)
            spans->close(step);
        if (layer) {
            const ShardEpochStats &fleet = report.epochs.back();
            ++layer->epochs;
            layer->population += static_cast<double>(fleet.population);
            layer->crossMigrations += static_cast<double>(fleet.migrations);
            double most = 0.0;
            double total = 0.0;
            for (const OnlineReport &shard : report.perShard) {
                const OnlineEpochStats &e = shard.epochs.back();
                addEpoch(*layer, e);
                most = std::max(most, static_cast<double>(e.population));
                total += static_cast<double>(e.population);
            }
            const double mean =
                total / static_cast<double>(report.perShard.size());
            layer->imbalance += mean > 0 ? most / mean : 1.0;
        }
    }
    driver.finalizeReport(report);
    if (layer)
        for (const OnlineReport &shard : report.perShard) {
            layer->arrivals += static_cast<double>(shard.totalArrivals);
            layer->rejected += static_cast<double>(shard.totalRejected);
        }
    std::ostringstream os;
    writeShardedSummary(os, report);
    return os.str();
}

} // namespace

std::int32_t
SpanLog::open(const char *name, std::int32_t parent, std::uint32_t run,
              std::uint64_t epoch)
{
    Span span;
    span.name = name;
    span.parent = parent;
    span.run = run;
    span.epoch = epoch;
    spans_.push_back(span);
    spans_.back().beginNs = nowNs();
    return static_cast<std::int32_t>(spans_.size() - 1);
}

void
SpanLog::close(std::int32_t id)
{
    spans_[static_cast<std::size_t>(id)].endNs = nowNs();
}

void
SpanLog::rename(std::int32_t id, const char *name)
{
    spans_[static_cast<std::size_t>(id)].name = name;
}

std::vector<double>
SpanLog::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &span : spans_)
        if (name == span.name)
            out.push_back(msSince(span.beginNs, span.endNs));
    return out;
}

std::vector<double>
SpanLog::selfMs(const std::string &name) const
{
    std::vector<double> childMs(spans_.size(), 0.0);
    for (const Span &span : spans_)
        if (span.parent >= 0)
            childMs[static_cast<std::size_t>(span.parent)] +=
                msSince(span.beginNs, span.endNs);
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (name == spans_[i].name)
            out.push_back(msSince(spans_[i].beginNs, spans_[i].endNs) -
                          childMs[i]);
    return out;
}

void
SpanLog::write(const std::string &path) const
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        throw std::runtime_error("cannot write " + path);
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().beginNs;
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,"
           << "\"tid\":" << s.run << ",\"ts\":"
           << static_cast<double>(s.beginNs - origin) / 1e3
           << ",\"dur\":" << static_cast<double>(s.endNs - s.beginNs) / 1e3
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"epoch\":" << s.epoch << "}}"
           << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]\n";
}

std::string
stepwiseReplay(const Workload &workload, const Catalog &catalog,
               const InterferenceModel &model, const ChurnTrace &trace,
               std::uint64_t seed, std::uint32_t run,
               const std::string &checkpointPath, SpanLog *spans,
               StepLayer *layer)
{
    return workload.sharded
               ? shardedReplay(workload, catalog, model, trace, seed, run,
                               checkpointPath, spans, layer)
               : flatReplay(workload, catalog, model, trace, seed, run,
                            checkpointPath, spans, layer);
}

void
planeReplay(const Workload &workload, const Catalog &catalog,
            const InterferenceModel &model, const ChurnTrace &trace,
            std::uint64_t seed, std::uint32_t run, std::size_t burst,
            const std::string &checkpointPath, SpanLog *spans,
            PlaneLayer &out)
{
    const auto &events = trace.events();
    const std::size_t connections = workload.connections;
    std::vector<net::EventMsg> msgs;
    msgs.reserve(events.size());
    for (std::size_t seq = 0; seq < events.size(); ++seq)
        msgs.push_back(toMsg(seq, events[seq]));

    Service service =
        makeService(workload, catalog, model, seed, checkpointPath);
    net::ServicePlane &plane = *service.plane;
    plane.setFlowControl(kMaxPending);

    std::vector<std::size_t> next(connections, 0); // per-connection k
    std::size_t remaining = events.size();
    const std::int64_t t0 = nowNs();
    while (remaining > 0) {
        for (std::size_t c = 0; c < connections; ++c) {
            for (std::size_t b = 0; b < burst; ++b) {
                const std::size_t seq = c + next[c] * connections;
                if (seq >= events.size())
                    break;
                const std::uint64_t before = plane.epochsCommitted();
                const std::int32_t id =
                    spans ? spans->open("plane.ingest", -1, run, before)
                          : -1;
                const net::IngestResult result =
                    plane.ingest(msgs[seq], c + 1);
                plane.takeOutputs();
                if (spans) {
                    spans->close(id);
                    const Span &span = spans->spans()[id];
                    const double ms = msSince(span.beginNs, span.endNs);
                    out.coveredS += ms / 1e3;
                    if (plane.epochsCommitted() > before) {
                        spans->rename(id, "plane.commit");
                        out.commitMs.push_back(ms);
                    } else {
                        out.ingestUs.push_back(ms * 1e3);
                    }
                }
                if (result.status == net::IngestStatus::Failed)
                    throw std::runtime_error("plane replay: " +
                                             result.outcome.message);
                if (result.status == net::IngestStatus::Busy) {
                    ++out.busy;
                    break; // this connection retries on its next turn
                }
                ++out.ingests;
                ++next[c];
                --remaining;
            }
        }
    }
    plane.declareFinished(events.size());
    const std::int32_t id =
        spans ? spans->open("plane.complete", -1, run,
                            plane.epochsCommitted())
              : -1;
    const net::PlaneOutcome outcome = plane.completeRun();
    plane.takeOutputs();
    if (spans) {
        spans->close(id);
        const Span &span = spans->spans()[id];
        const double ms = msSince(span.beginNs, span.endNs);
        out.coveredS += ms / 1e3;
        out.completeMs.push_back(ms);
    }
    out.wallS += static_cast<double>(nowNs() - t0) / 1e9;
    if (!outcome.ok)
        throw std::runtime_error("plane replay: " + outcome.message);
    out.summary = plane.summary();
}

FrameLayer
frameTiming(const ChurnTrace &trace, int reps)
{
    const auto &events = trace.events();
    const std::size_t n = events.size();
    std::vector<net::EventMsg> msgs;
    msgs.reserve(n);
    for (std::size_t seq = 0; seq < n; ++seq)
        msgs.push_back(toMsg(seq, events[seq]));

    std::vector<double> encodeNs;
    std::vector<double> decodeNs;
    std::vector<std::uint8_t> wire;
    std::vector<std::uint8_t> payload;
    for (int rep = 0; rep < reps; ++rep) {
        wire.clear();
        wire.reserve(n * kEventFrameBytes);
        std::int64_t t0 = nowNs();
        for (const net::EventMsg &msg : msgs) {
            payload.clear();
            msg.encode(payload);
            net::encodeFrame(wire, net::MsgType::Event, 0, payload.data(),
                             payload.size());
        }
        encodeNs.push_back(static_cast<double>(nowNs() - t0) /
                           static_cast<double>(n));

        std::size_t offset = 0;
        std::size_t decoded = 0;
        bool same = true;
        t0 = nowNs();
        while (offset < wire.size()) {
            net::FrameView frame;
            std::size_t consumed = 0;
            std::string error;
            if (net::tryDecodeFrame(wire.data() + offset,
                                    wire.size() - offset, frame, consumed,
                                    error) != net::DecodeStatus::Ok)
                throw std::runtime_error("frame timing: " + error);
            const net::EventMsg msg = net::EventMsg::decode(frame);
            same = same && msg.seq == decoded && msg.uid == msgs[decoded].uid;
            offset += consumed;
            ++decoded;
        }
        decodeNs.push_back(static_cast<double>(nowNs() - t0) /
                           static_cast<double>(n));
        if (!same || decoded != n)
            throw std::runtime_error("frame timing: decode mismatch");
    }
    std::sort(encodeNs.begin(), encodeNs.end());
    std::sort(decodeNs.begin(), decodeNs.end());
    return {encodeNs[encodeNs.size() / 2], decodeNs[decodeNs.size() / 2]};
}

} // namespace perfbench
