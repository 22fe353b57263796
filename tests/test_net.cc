/**
 * @file
 * Service-plane tests: the frame codec survives hostile and truncated
 * input (bad magic, wrong version, oversized declared lengths,
 * interleaved partial reads), the ServicePlane reorders
 * multi-connection streams back into the canonical churn order and
 * reproduces the in-process replay byte for byte at every thread and
 * shard count, protocol violations poison the plane instead of the
 * process, and the epoll server survives mid-message disconnects and
 * garbage-spewing strangers on real loopback sockets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "net/frame.hh"
#include "net/service_plane.hh"
#include "online/churn.hh"
#include "online/driver.hh"
#include "online/events.hh"
#include "shard/sharded_driver.hh"
#include "sim/interference.hh"
#include "util/error.hh"
#include "workload/catalog.hh"

#ifdef __linux__
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <thread>

#include "net/client.hh"
#include "net/server.hh"
#endif

namespace cooper {
namespace {

struct Fixture
{
    Catalog catalog = Catalog::paperTableI();
    InterferenceModel model{catalog};
};

ChurnTrace
makeTrace(const Catalog &catalog, std::size_t arrivals,
          std::uint64_t seed, double mean_gap = 6.0,
          double mean_life = 400.0)
{
    ChurnConfig churn;
    churn.arrivals = arrivals;
    churn.initialJobs = 12;
    churn.meanInterarrivalTicks = mean_gap;
    churn.meanLifetimeTicks = mean_life;
    Rng rng(seed);
    return generateChurnTrace(catalog, churn, rng);
}

std::string
summaryOf(const OnlineReport &report)
{
    std::ostringstream out;
    writeOnlineSummary(out, report);
    return out.str();
}

std::string
summaryOf(const ShardedReport &report)
{
    std::ostringstream out;
    writeShardedSummary(out, report);
    return out.str();
}

/** The trace as wire messages, seq = canonical index. */
std::vector<net::EventMsg>
wireEventsOf(const ChurnTrace &trace)
{
    std::vector<net::EventMsg> out;
    out.reserve(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const ChurnEvent &event = trace.events()[i];
        net::EventMsg msg;
        msg.seq = i;
        msg.tick = event.tick;
        msg.kind = event.kind == EventKind::Arrival ? 0 : 1;
        msg.uid = event.uid;
        msg.type = static_cast<std::uint32_t>(event.type);
        out.push_back(msg);
    }
    return out;
}

std::vector<std::uint8_t>
frameOf(net::MsgType type, const std::vector<std::uint8_t> &payload,
        std::uint16_t flags = 0)
{
    std::vector<std::uint8_t> out;
    net::encodeFrame(out, type, flags, payload.data(), payload.size());
    return out;
}

// ---------------------------------------------------------------------
// Frame codec: hostile and truncated input.

TEST(Frame, RoundTripsAnEventMessage)
{
    net::EventMsg msg;
    msg.seq = 41;
    msg.tick = 1234;
    msg.kind = 1;
    msg.uid = 99;
    msg.type = 7;

    std::vector<std::uint8_t> payload;
    msg.encode(payload);
    const std::vector<std::uint8_t> bytes =
        frameOf(net::MsgType::Event, payload);

    net::FrameView frame;
    std::size_t consumed = 0;
    std::string error;
    ASSERT_EQ(net::tryDecodeFrame(bytes.data(), bytes.size(), frame,
                                  consumed, error),
              net::DecodeStatus::Ok);
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(frame.type, net::MsgType::Event);

    const net::EventMsg back = net::EventMsg::decode(frame);
    EXPECT_EQ(back.seq, msg.seq);
    EXPECT_EQ(back.tick, msg.tick);
    EXPECT_EQ(back.kind, msg.kind);
    EXPECT_EQ(back.uid, msg.uid);
    EXPECT_EQ(back.type, msg.type);
}

TEST(Frame, TruncatedLengthPrefixNeedsMoreBytes)
{
    // Every strict prefix of the 12-byte header — including the torn
    // length field — must park the decoder, never advance it.
    net::AckMsg msg{7, 1};
    std::vector<std::uint8_t> payload;
    msg.encode(payload);
    const std::vector<std::uint8_t> bytes =
        frameOf(net::MsgType::Ack, payload);

    for (std::size_t len = 0; len < net::kHeaderSize; ++len) {
        net::FrameView frame;
        std::size_t consumed = 0;
        std::string error;
        EXPECT_EQ(net::tryDecodeFrame(bytes.data(), len, frame,
                                      consumed, error),
                  net::DecodeStatus::NeedMore)
            << "prefix length " << len;
    }
}

TEST(Frame, TruncatedPayloadNeedsMoreBytes)
{
    // A mid-message disconnect leaves header + partial payload in the
    // buffer; the decoder must wait, and the connection's EOF — not a
    // wild read — is what kills it.
    net::FinishedMsg msg{250};
    std::vector<std::uint8_t> payload;
    msg.encode(payload);
    const std::vector<std::uint8_t> bytes =
        frameOf(net::MsgType::Finished, payload);

    for (std::size_t len = net::kHeaderSize; len < bytes.size();
         ++len) {
        net::FrameView frame;
        std::size_t consumed = 0;
        std::string error;
        EXPECT_EQ(net::tryDecodeFrame(bytes.data(), len, frame,
                                      consumed, error),
                  net::DecodeStatus::NeedMore)
            << "prefix length " << len;
    }
}

TEST(Frame, OversizedDeclaredLengthIsRejected)
{
    std::vector<std::uint8_t> header(net::kHeaderSize, 0);
    const std::uint32_t magic = net::kMagic;
    std::memcpy(header.data(), &magic, 4);
    header[4] = net::kProtocolVersion;
    header[5] = static_cast<std::uint8_t>(net::MsgType::Event);
    const std::uint32_t length = net::kMaxFramePayload + 1;
    std::memcpy(header.data() + 8, &length, 4);

    net::FrameView frame;
    std::size_t consumed = 0;
    std::string error;
    EXPECT_EQ(net::tryDecodeFrame(header.data(), header.size(), frame,
                                  consumed, error),
              net::DecodeStatus::Bad);
    EXPECT_NE(error.find("payload"), std::string::npos);
}

TEST(Frame, BadMagicAndVersionAndTypeAreRejected)
{
    net::AckMsg msg{1, 1};
    std::vector<std::uint8_t> payload;
    msg.encode(payload);
    const std::vector<std::uint8_t> good =
        frameOf(net::MsgType::Ack, payload);

    const auto expectBad = [&](std::vector<std::uint8_t> bytes) {
        net::FrameView frame;
        std::size_t consumed = 0;
        std::string error;
        EXPECT_EQ(net::tryDecodeFrame(bytes.data(), bytes.size(),
                                      frame, consumed, error),
                  net::DecodeStatus::Bad);
        EXPECT_FALSE(error.empty());
    };

    std::vector<std::uint8_t> magic = good;
    magic[0] ^= 0xFF;
    expectBad(magic);

    std::vector<std::uint8_t> version = good;
    version[4] = net::kProtocolVersion + 1;
    expectBad(version);

    std::vector<std::uint8_t> type = good;
    type[5] = 200;
    expectBad(type);
}

TEST(Frame, InterleavedPartialReadsDecodeAtEachBoundary)
{
    // Three frames dribbled in byte by byte, the way partial reads
    // land across server ticks: the decoder must yield each frame
    // exactly when its last byte arrives and never early.
    std::vector<std::vector<std::uint8_t>> frames;
    {
        std::vector<std::uint8_t> payload;
        net::HelloMsg{3, net::kProtocolVersion, 0}.encode(payload);
        frames.push_back(frameOf(net::MsgType::Hello, payload));
    }
    {
        std::vector<std::uint8_t> payload;
        net::EventMsg{0, 5, 0, 11, 2}.encode(payload);
        frames.push_back(frameOf(net::MsgType::Event, payload));
    }
    {
        std::vector<std::uint8_t> payload;
        net::FinishedMsg{1}.encode(payload);
        frames.push_back(frameOf(net::MsgType::Finished, payload));
    }

    std::vector<std::uint8_t> stream;
    std::vector<std::size_t> boundaries;
    for (const auto &f : frames) {
        stream.insert(stream.end(), f.begin(), f.end());
        boundaries.push_back(stream.size());
    }

    std::vector<std::uint8_t> buffer;
    std::size_t decoded = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        buffer.push_back(stream[i]);
        net::FrameView frame;
        std::size_t consumed = 0;
        std::string error;
        const net::DecodeStatus status = net::tryDecodeFrame(
            buffer.data(), buffer.size(), frame, consumed, error);
        if (i + 1 == boundaries[decoded]) {
            ASSERT_EQ(status, net::DecodeStatus::Ok) << "byte " << i;
            EXPECT_EQ(consumed, buffer.size());
            buffer.clear();
            ++decoded;
        } else {
            ASSERT_EQ(status, net::DecodeStatus::NeedMore)
                << "byte " << i;
        }
    }
    EXPECT_EQ(decoded, frames.size());
}

TEST(Frame, PayloadDecodeRejectsShortLyingAndTrailingBytes)
{
    std::vector<std::uint8_t> payload;
    net::EventMsg{1, 2, 0, 3, 4}.encode(payload);

    // Short payload: the reader must refuse to run off the end.
    {
        net::FrameView frame;
        frame.type = net::MsgType::Event;
        frame.payload = payload.data();
        frame.size = payload.size() - 1;
        EXPECT_THROW(net::EventMsg::decode(frame), FatalError);
    }
    // Trailing garbage: a payload longer than the message is hostile.
    {
        std::vector<std::uint8_t> padded = payload;
        padded.push_back(0);
        net::FrameView frame;
        frame.type = net::MsgType::Event;
        frame.payload = padded.data();
        frame.size = padded.size();
        EXPECT_THROW(net::EventMsg::decode(frame), FatalError);
    }
    // An event kind the protocol does not define.
    {
        std::vector<std::uint8_t> bad;
        net::EventMsg{1, 2, 0, 3, 4}.encode(bad);
        bad[16] = 2; // kind byte follows seq and tick
        net::FrameView frame;
        frame.type = net::MsgType::Event;
        frame.payload = bad.data();
        frame.size = bad.size();
        EXPECT_THROW(net::EventMsg::decode(frame), FatalError);
    }
    // An assignment whose declared pair count exceeds the payload.
    {
        std::vector<std::uint8_t> bad;
        net::AssignmentMsg assignment;
        assignment.epoch = 1;
        assignment.pairs = {{1, 2}};
        assignment.encode(bad);
        bad[8] = 200; // count lies about the pairs that follow
        net::FrameView frame;
        frame.type = net::MsgType::Assignment;
        frame.payload = bad.data();
        frame.size = bad.size();
        EXPECT_THROW(net::AssignmentMsg::decode(frame), FatalError);
    }
    // A Hello from a peer speaking a different protocol version.
    {
        std::vector<std::uint8_t> bad;
        net::HelloMsg{0, net::kProtocolVersion + 9, 0}.encode(bad);
        net::FrameView frame;
        frame.type = net::MsgType::Hello;
        frame.payload = bad.data();
        frame.size = bad.size();
        EXPECT_THROW(net::HelloMsg::decode(frame), FatalError);
    }
}

TEST(Frame, BusyRoundTripsAndCarriesTheRetryHint)
{
    net::BusyMsg msg;
    msg.seq = 777;
    msg.retryAfterMs = 5;

    std::vector<std::uint8_t> payload;
    msg.encode(payload);
    const std::vector<std::uint8_t> bytes =
        frameOf(net::MsgType::Busy, payload);

    net::FrameView frame;
    std::size_t consumed = 0;
    std::string error;
    ASSERT_EQ(net::tryDecodeFrame(bytes.data(), bytes.size(), frame,
                                  consumed, error),
              net::DecodeStatus::Ok);
    EXPECT_EQ(frame.type, net::MsgType::Busy);

    const net::BusyMsg back = net::BusyMsg::decode(frame);
    EXPECT_EQ(back.seq, msg.seq);
    EXPECT_EQ(back.retryAfterMs, msg.retryAfterMs);
}

TEST(Frame, HelloCarriesTheRunId)
{
    std::vector<std::uint8_t> payload;
    net::HelloMsg{9, net::kProtocolVersion, 0, 42}.encode(payload);
    net::FrameView frame;
    frame.type = net::MsgType::Hello;
    frame.payload = payload.data();
    frame.size = payload.size();
    const net::HelloMsg back = net::HelloMsg::decode(frame);
    EXPECT_EQ(back.clientId, 9u);
    EXPECT_EQ(back.runId, 42u);
}

// ---------------------------------------------------------------------
// ServicePlane: byte-identity with the in-process replay.

TEST(ServicePlane, ServedReplayMatchesRunByteForByteAtEveryThreadCount)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 200, 2);
    const std::vector<net::EventMsg> events = wireEventsOf(trace);

    for (const std::size_t threads : {1u, 2u, 8u}) {
        FrameworkConfig config;
        config.execution.threads = threads;

        OnlineDriver reference(fx.catalog, fx.model, config, 17);
        const std::string expected = summaryOf(reference.run(trace));

        OnlineDriver served(fx.catalog, fx.model, config, 17);
        net::ServicePlane plane(fx.catalog, served);
        std::size_t outputs = 0;
        for (const net::EventMsg &event : events) {
            ASSERT_TRUE(plane.ingest(event).ok) << "seq " << event.seq;
            outputs += plane.takeOutputs().size();
        }
        plane.declareFinished(events.size());
        ASSERT_TRUE(plane.completeRun().ok);
        outputs += plane.takeOutputs().size();

        EXPECT_EQ(plane.summary(), expected) << "threads=" << threads;
        EXPECT_EQ(outputs, plane.epochsCommitted())
            << "threads=" << threads;
    }
}

TEST(ServicePlane, OutOfOrderMultiConnectionStreamStillMatchesRun)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 200, 3);
    std::vector<net::EventMsg> events = wireEventsOf(trace);

    FrameworkConfig config;
    config.execution.threads = 2;
    OnlineDriver reference(fx.catalog, fx.model, config, 23);
    const std::string expected = summaryOf(reference.run(trace));

    // The order three concurrent connections might interleave in:
    // arbitrary globally, in-order per connection. A full shuffle
    // subsumes that and more.
    std::mt19937 rng(42);
    std::shuffle(events.begin(), events.end(), rng);

    OnlineDriver served(fx.catalog, fx.model, config, 23);
    net::ServicePlane plane(fx.catalog, served);
    for (const net::EventMsg &event : events)
        ASSERT_TRUE(plane.ingest(event).ok) << "seq " << event.seq;

    // Three clients declare their split of the count.
    plane.declareFinished(events.size() / 3);
    plane.declareFinished(events.size() / 3);
    plane.declareFinished(events.size() - 2 * (events.size() / 3));
    ASSERT_TRUE(plane.completeRun().ok);
    EXPECT_EQ(plane.summary(), expected);
}

TEST(ServicePlane, ShardedServedReplayMatchesRunByteForByte)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 160, 5);
    const std::vector<net::EventMsg> events = wireEventsOf(trace);

    for (const std::size_t shards : {1u, 4u}) {
        FrameworkConfig config;
        config.execution.threads = 2;
        config.execution.online.shards = shards;

        ShardedDriver reference(fx.catalog, fx.model, config, 29);
        const std::string expected = summaryOf(reference.run(trace));

        ShardedDriver served(fx.catalog, fx.model, config, 29);
        net::ServicePlane plane(fx.catalog, served);
        for (const net::EventMsg &event : events)
            ASSERT_TRUE(plane.ingest(event).ok) << "seq " << event.seq;
        plane.declareFinished(events.size());
        ASSERT_TRUE(plane.completeRun().ok);

        EXPECT_EQ(plane.summary(), expected) << "shards=" << shards;
    }
}

// ---------------------------------------------------------------------
// ServicePlane: hostile streams poison the plane, not the process.

net::EventMsg
arrival(std::uint64_t seq, std::uint64_t tick, std::uint64_t uid,
        std::uint32_t type = 0)
{
    return {seq, tick, 0, uid, type};
}

TEST(ServicePlane, DuplicateSeqPoisonsThePlane)
{
    const Fixture fx;
    FrameworkConfig config;
    config.execution.threads = 1;
    OnlineDriver driver(fx.catalog, fx.model, config, 1);
    net::ServicePlane plane(fx.catalog, driver);

    ASSERT_TRUE(plane.ingest(arrival(0, 0, 1)).ok);
    const net::PlaneOutcome replay = plane.ingest(arrival(0, 0, 2));
    EXPECT_FALSE(replay.ok);
    EXPECT_EQ(replay.code, net::PlaneError::DuplicateSeq);

    // Poison sticks: a well-formed event now fails the same way.
    const net::PlaneOutcome later = plane.ingest(arrival(1, 0, 3));
    EXPECT_FALSE(later.ok);
    EXPECT_EQ(later.code, net::PlaneError::DuplicateSeq);
}

TEST(ServicePlane, ArrivalUidReuseIsRejected)
{
    const Fixture fx;
    FrameworkConfig config;
    config.execution.threads = 1;
    OnlineDriver driver(fx.catalog, fx.model, config, 1);
    net::ServicePlane plane(fx.catalog, driver);

    ASSERT_TRUE(plane.ingest(arrival(0, 0, 7)).ok);
    const net::PlaneOutcome outcome = plane.ingest(arrival(1, 0, 7));
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.code, net::PlaneError::UidReuse);
}

TEST(ServicePlane, DepartureOfUnknownUidIsRejected)
{
    const Fixture fx;
    FrameworkConfig config;
    config.execution.threads = 1;
    OnlineDriver driver(fx.catalog, fx.model, config, 1);
    net::ServicePlane plane(fx.catalog, driver);

    const net::PlaneOutcome outcome =
        plane.ingest({0, 0, 1, 9, 0});
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.code, net::PlaneError::UnknownUid);
}

TEST(ServicePlane, ArrivalTypeOutsideTheCatalogIsRejected)
{
    const Fixture fx;
    FrameworkConfig config;
    config.execution.threads = 1;
    OnlineDriver driver(fx.catalog, fx.model, config, 1);
    net::ServicePlane plane(fx.catalog, driver);

    const net::PlaneOutcome outcome = plane.ingest(
        arrival(0, 0, 1,
                static_cast<std::uint32_t>(fx.catalog.size())));
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.code, net::PlaneError::BadType);
}

TEST(ServicePlane, SeqFarAheadOfTheFrontierIsRejected)
{
    const Fixture fx;
    FrameworkConfig config;
    config.execution.threads = 1;
    OnlineDriver driver(fx.catalog, fx.model, config, 1);
    net::ServicePlane plane(fx.catalog, driver);

    const net::PlaneOutcome outcome =
        plane.ingest(arrival(net::kMaxPendingEvents, 0, 1));
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.code, net::PlaneError::SeqWindow);
}

TEST(ServicePlane, FinishingAcrossASeqGapIsRejected)
{
    const Fixture fx;
    FrameworkConfig config;
    config.execution.threads = 1;
    OnlineDriver driver(fx.catalog, fx.model, config, 1);
    net::ServicePlane plane(fx.catalog, driver);

    // seq 1 parks behind the missing seq 0 and never delivers.
    ASSERT_TRUE(plane.ingest(arrival(1, 0, 1)).ok);
    plane.declareFinished(1);
    const net::PlaneOutcome outcome = plane.completeRun();
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.code, net::PlaneError::MissingEvents);
}

TEST(ServicePlane, DeclaredCountMismatchIsRejected)
{
    const Fixture fx;
    FrameworkConfig config;
    config.execution.threads = 1;
    OnlineDriver driver(fx.catalog, fx.model, config, 1);
    net::ServicePlane plane(fx.catalog, driver);

    ASSERT_TRUE(plane.ingest(arrival(0, 0, 1)).ok);
    plane.declareFinished(2);
    const net::PlaneOutcome outcome = plane.completeRun();
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.code, net::PlaneError::CountMismatch);
}

TEST(ServicePlane, EventsAfterTheRunCompletedAreRejected)
{
    const Fixture fx;
    FrameworkConfig config;
    config.execution.threads = 1;
    OnlineDriver driver(fx.catalog, fx.model, config, 1);
    net::ServicePlane plane(fx.catalog, driver);

    plane.declareFinished(0);
    ASSERT_TRUE(plane.completeRun().ok);
    const net::PlaneOutcome outcome = plane.ingest(arrival(0, 0, 1));
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.code, net::PlaneError::AfterFinish);
}

// ---------------------------------------------------------------------
// ServicePlane: soft flow control (Busy) semantics.

TEST(ServicePlane, SoftBoundRefusesParkedEventsButNeverTheFrontier)
{
    const Fixture fx;
    FrameworkConfig config;
    config.execution.threads = 1;
    OnlineDriver driver(fx.catalog, fx.model, config, 1);
    net::ServicePlane plane(fx.catalog, driver);
    plane.setFlowControl(2);

    // Source 5 parks two out-of-order events and hits its bound.
    EXPECT_EQ(plane.ingest(arrival(2, 0, 3), 5).status,
              net::IngestStatus::Accepted);
    EXPECT_EQ(plane.ingest(arrival(3, 0, 4), 5).status,
              net::IngestStatus::Accepted);
    EXPECT_EQ(plane.ingest(arrival(4, 0, 5), 5).status,
              net::IngestStatus::Busy);

    // The bound is per source: a neighbor can still park...
    EXPECT_EQ(plane.ingest(arrival(4, 0, 5), 6).status,
              net::IngestStatus::Accepted);

    // ...and the frontier event is never refused, even from the
    // saturated source — that is what guarantees progress.
    EXPECT_EQ(plane.ingest(arrival(0, 0, 1), 5).status,
              net::IngestStatus::Accepted);

    // Delivering seq 0 freed nothing (1 is still missing), but the
    // frontier keeps moving: seq 1 drains everything parked.
    EXPECT_EQ(plane.ingest(arrival(1, 0, 2), 5).status,
              net::IngestStatus::Accepted);

    // The refused event retries successfully after the drain.
    EXPECT_EQ(plane.ingest(arrival(5, 0, 6), 5).status,
              net::IngestStatus::Accepted);

    plane.declareFinished(6);
    EXPECT_TRUE(plane.completeRun().ok);
}

TEST(ServicePlane, FlowControlledShuffledReplayStaysByteIdentical)
{
    // A Busy refusal must leave no trace in the served decisions:
    // replay a fully shuffled stream through a tiny bound, retrying
    // refusals, and demand the in-process bytes.
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 200, 3);
    std::vector<net::EventMsg> events = wireEventsOf(trace);

    FrameworkConfig config;
    config.execution.threads = 2;
    OnlineDriver reference(fx.catalog, fx.model, config, 23);
    const std::string expected = summaryOf(reference.run(trace));

    std::mt19937 rng(7);
    std::shuffle(events.begin(), events.end(), rng);

    OnlineDriver served(fx.catalog, fx.model, config, 23);
    net::ServicePlane plane(fx.catalog, served);
    plane.setFlowControl(3);

    std::vector<net::EventMsg> deferred = events;
    std::size_t refusals = 0;
    while (!deferred.empty()) {
        std::vector<net::EventMsg> next;
        for (const net::EventMsg &event : deferred) {
            const net::IngestResult result =
                plane.ingest(event, event.seq % 3);
            if (result.status == net::IngestStatus::Busy) {
                next.push_back(event);
                ++refusals;
                continue;
            }
            ASSERT_EQ(result.status, net::IngestStatus::Accepted)
                << "seq " << event.seq << ": "
                << result.outcome.message;
        }
        next.swap(deferred);
    }
    EXPECT_GT(refusals, 0u) << "the bound never engaged";

    plane.declareFinished(events.size());
    ASSERT_TRUE(plane.completeRun().ok);
    EXPECT_EQ(plane.summary(), expected);
}

#ifdef __linux__
// ---------------------------------------------------------------------
// EpollServer on real loopback sockets.

int
connectLoopback(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    return fd;
}

void
sendAll(int fd, const std::vector<std::uint8_t> &bytes,
        std::size_t count)
{
    std::size_t sent = 0;
    while (sent < count) {
        const ssize_t n =
            ::send(fd, bytes.data() + sent, count - sent, 0);
        ASSERT_GT(n, 0);
        sent += static_cast<std::size_t>(n);
    }
}

/** Block until one frame of `want` arrives (skipping others). */
void
awaitFrame(int fd, net::MsgType want)
{
    std::vector<std::uint8_t> buffer;
    std::uint8_t chunk[4096];
    for (;;) {
        net::FrameView frame;
        std::size_t consumed = 0;
        std::string error;
        while (net::tryDecodeFrame(buffer.data(), buffer.size(),
                                   frame, consumed,
                                   error) == net::DecodeStatus::Ok) {
            if (frame.type == want)
                return;
            buffer.erase(buffer.begin(),
                         buffer.begin() +
                             static_cast<std::ptrdiff_t>(consumed));
        }
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        ASSERT_GT(n, 0) << "peer closed before "
                        << net::msgTypeName(want);
        buffer.insert(buffer.end(), chunk,
                      chunk + static_cast<std::size_t>(n));
    }
}

TEST(EpollServer, MidMessageDisconnectAbortsTheServedRun)
{
    const Fixture fx;
    FrameworkConfig config;
    config.execution.threads = 1;
    OnlineDriver driver(fx.catalog, fx.model, config, 1);
    net::ServicePlane plane(fx.catalog, driver);
    net::EpollServer server(plane, net::ServerConfig{});

    bool served = true;
    std::thread serving([&] { served = server.runUntilServed(); });

    const int fd = connectLoopback(server.port());
    std::vector<std::uint8_t> hello_payload;
    net::HelloMsg{0, net::kProtocolVersion, 0}.encode(hello_payload);
    sendAll(fd, frameOf(net::MsgType::Hello, hello_payload),
            net::kHeaderSize + hello_payload.size());
    awaitFrame(fd, net::MsgType::HelloAck);

    // Half an Event frame, then a hard close: a handshaked
    // participant vanished mid-message, so the run cannot complete.
    std::vector<std::uint8_t> event_payload;
    net::EventMsg{0, 0, 0, 1, 0}.encode(event_payload);
    const std::vector<std::uint8_t> bytes =
        frameOf(net::MsgType::Event, event_payload);
    sendAll(fd, bytes, bytes.size() / 2);
    ::close(fd);

    serving.join();
    EXPECT_FALSE(served);
    EXPECT_FALSE(server.lastError().empty());
}

TEST(EpollServer, GarbageStrangerDoesNotDisturbTheServedRun)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 60, 11);

    FrameworkConfig config;
    config.execution.threads = 1;
    OnlineDriver reference(fx.catalog, fx.model, config, 13);
    const std::string expected = summaryOf(reference.run(trace));

    OnlineDriver served(fx.catalog, fx.model, config, 13);
    net::ServicePlane plane(fx.catalog, served);
    net::EpollServer server(plane, net::ServerConfig{});

    bool ok = false;
    std::thread serving([&] { ok = server.runUntilServed(); });

    // A stranger that never handshakes and speaks garbage: its
    // connection dies alone, the run does not.
    const int stranger = connectLoopback(server.port());
    const std::vector<std::uint8_t> garbage(64, 0x5A);
    sendAll(stranger, garbage, garbage.size());

    net::LoadGenConfig client;
    client.port = server.port();
    client.connections = 2;
    const net::LoadGenResult result = net::runLoadGen(trace, client);
    serving.join();
    ::close(stranger);

    ASSERT_TRUE(ok) << server.lastError();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.summary, expected);
}

TEST(EpollServer, DribbledFramesAcrossManyReadsStillServe)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 20, 19);
    const std::vector<net::EventMsg> events = wireEventsOf(trace);

    FrameworkConfig config;
    config.execution.threads = 1;
    OnlineDriver reference(fx.catalog, fx.model, config, 7);
    const std::string expected = summaryOf(reference.run(trace));

    OnlineDriver served(fx.catalog, fx.model, config, 7);
    net::ServicePlane plane(fx.catalog, served);
    net::EpollServer server(plane, net::ServerConfig{});

    bool ok = false;
    std::thread serving([&] { ok = server.runUntilServed(); });

    const int fd = connectLoopback(server.port());
    std::vector<std::uint8_t> hello_payload;
    net::HelloMsg{0, net::kProtocolVersion, 0}.encode(hello_payload);
    sendAll(fd, frameOf(net::MsgType::Hello, hello_payload),
            net::kHeaderSize + hello_payload.size());
    awaitFrame(fd, net::MsgType::HelloAck);

    // The whole event stream plus Finished, sent 7 bytes at a time
    // with TCP_NODELAY-free pacing: every frame straddles reads.
    std::vector<std::uint8_t> stream;
    for (const net::EventMsg &event : events) {
        std::vector<std::uint8_t> payload;
        event.encode(payload);
        net::encodeFrame(stream, net::MsgType::Event, 0,
                         payload.data(), payload.size());
    }
    {
        std::vector<std::uint8_t> payload;
        net::FinishedMsg{events.size()}.encode(payload);
        net::encodeFrame(stream, net::MsgType::Finished, 0,
                         payload.data(), payload.size());
    }
    for (std::size_t at = 0; at < stream.size(); at += 7) {
        const std::size_t len = std::min<std::size_t>(
            7, stream.size() - at);
        std::vector<std::uint8_t> chunk(
            stream.begin() + static_cast<std::ptrdiff_t>(at),
            stream.begin() + static_cast<std::ptrdiff_t>(at + len));
        sendAll(fd, chunk, chunk.size());
    }

    awaitFrame(fd, net::MsgType::Bye);
    ::close(fd);
    serving.join();

    ASSERT_TRUE(ok) << server.lastError();
    EXPECT_EQ(plane.summary(), expected);
}

// ---------------------------------------------------------------------
// Multi-run serving, flow control, and idle reaping.

void
sendHello(int fd, std::uint64_t runId)
{
    std::vector<std::uint8_t> payload;
    net::HelloMsg{0, net::kProtocolVersion, 0, runId}.encode(payload);
    sendAll(fd, frameOf(net::MsgType::Hello, payload),
            net::kHeaderSize + payload.size());
}

void
sendEvent(int fd, const net::EventMsg &msg)
{
    std::vector<std::uint8_t> payload;
    msg.encode(payload);
    sendAll(fd, frameOf(net::MsgType::Event, payload),
            net::kHeaderSize + payload.size());
}

void
sendFinished(int fd, std::uint64_t count)
{
    std::vector<std::uint8_t> payload;
    net::FinishedMsg{count}.encode(payload);
    sendAll(fd, frameOf(net::MsgType::Finished, payload),
            net::kHeaderSize + payload.size());
}

/** Block until one frame of `want` arrives; returns its payload. */
std::vector<std::uint8_t>
awaitPayload(int fd, net::MsgType want)
{
    std::vector<std::uint8_t> buffer;
    std::uint8_t chunk[4096];
    for (;;) {
        net::FrameView frame;
        std::size_t consumed = 0;
        std::string error;
        while (net::tryDecodeFrame(buffer.data(), buffer.size(),
                                   frame, consumed,
                                   error) == net::DecodeStatus::Ok) {
            if (frame.type == want)
                return {frame.payload, frame.payload + frame.size};
            buffer.erase(buffer.begin(),
                         buffer.begin() +
                             static_cast<std::ptrdiff_t>(consumed));
        }
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        EXPECT_GT(n, 0) << "peer closed before "
                        << net::msgTypeName(want);
        if (n <= 0)
            return {};
        buffer.insert(buffer.end(), chunk,
                      chunk + static_cast<std::size_t>(n));
    }
}

TEST(EpollServer, BusyPushbackRoundTripAndRetry)
{
    const Fixture fx;
    FrameworkConfig config;
    config.execution.threads = 1;
    OnlineDriver driver(fx.catalog, fx.model, config, 1);
    net::ServicePlane plane(fx.catalog, driver);

    net::ServerConfig server_config;
    server_config.maxPendingPerConn = 2;
    server_config.busyRetryHintMs = 3;
    net::EpollServer server(plane, server_config);

    bool served = false;
    std::thread serving([&] { served = server.runUntilServed(); });

    const int fd = connectLoopback(server.port());
    sendHello(fd, 0);
    awaitFrame(fd, net::MsgType::HelloAck);

    // Two parked events fill the bound; the third earns Busy naming
    // its seq and the configured retry hint.
    sendEvent(fd, arrival(1, 0, 2));
    sendEvent(fd, arrival(2, 0, 3));
    sendEvent(fd, arrival(3, 0, 4));
    const std::vector<std::uint8_t> payload =
        awaitPayload(fd, net::MsgType::Busy);
    net::FrameView frame;
    frame.type = net::MsgType::Busy;
    frame.payload = payload.data();
    frame.size = payload.size();
    const net::BusyMsg busy = net::BusyMsg::decode(frame);
    EXPECT_EQ(busy.seq, 3u);
    EXPECT_EQ(busy.retryAfterMs, 3u);

    // The frontier event drains the parked pair; the refused event
    // retries clean and the run completes as if nothing happened.
    sendEvent(fd, arrival(0, 0, 1));
    sendEvent(fd, arrival(3, 0, 4));
    sendFinished(fd, 4);
    awaitFrame(fd, net::MsgType::Bye);
    ::close(fd);
    serving.join();

    EXPECT_TRUE(served) << server.lastError();
    EXPECT_EQ(plane.eventsIngested(), 4u);
}

TEST(EpollServer, LoadGenBacksOffUnderATinyFlowBound)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 80, 31);

    FrameworkConfig config;
    config.execution.threads = 1;
    OnlineDriver reference(fx.catalog, fx.model, config, 37);
    const std::string expected = summaryOf(reference.run(trace));

    OnlineDriver served(fx.catalog, fx.model, config, 37);
    net::ServicePlane plane(fx.catalog, served);
    net::ServerConfig server_config;
    server_config.maxPendingPerConn = 1;
    net::EpollServer server(plane, server_config);

    bool ok = false;
    std::thread serving([&] { ok = server.runUntilServed(); });

    net::LoadGenConfig client;
    client.port = server.port();
    client.connections = 3;
    const net::LoadGenResult result = net::runLoadGen(trace, client);
    serving.join();

    ASSERT_TRUE(ok) << server.lastError();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_GT(result.stats.busyRefusals, 0u)
        << "a 3-way split through a bound of 1 never hit Busy";
    EXPECT_EQ(result.stats.retriesSent, result.stats.busyRefusals);
    EXPECT_EQ(result.summary, expected);
}

TEST(EpollServer, NeverDrainingTenantDoesNotStallItsNeighbors)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 60, 41);
    const std::vector<net::EventMsg> events = wireEventsOf(trace);

    FrameworkConfig config;
    config.execution.threads = 1;
    OnlineDriver reference(fx.catalog, fx.model, config, 43);
    const std::string expected = summaryOf(reference.run(trace));

    OnlineDriver driver0(fx.catalog, fx.model, config, 43);
    net::ServicePlane plane0(fx.catalog, driver0);
    OnlineDriver driver1(fx.catalog, fx.model, config, 44);
    net::ServicePlane plane1(fx.catalog, driver1);

    net::ServerConfig server_config;
    server_config.maxPendingPerConn = 2;
    net::EpollServer server(server_config);
    server.addRun(0, plane0);
    server.addRun(1, plane1);

    bool served = true;
    std::thread serving([&] { served = server.runUntilServed(); });

    // The stalled tenant: run 1 parks events behind a gap it never
    // fills, saturates its bound, and then just sits there.
    const int stalled = connectLoopback(server.port());
    sendHello(stalled, 1);
    awaitFrame(stalled, net::MsgType::HelloAck);
    sendEvent(stalled, arrival(1, 0, 2));
    sendEvent(stalled, arrival(2, 0, 3));
    sendEvent(stalled, arrival(3, 0, 4));
    awaitFrame(stalled, net::MsgType::Busy);

    // The neighbor replays run 0 to completion meanwhile — the
    // stalled tenant's backlog is bounded and cannot wedge the loop.
    const int fd = connectLoopback(server.port());
    sendHello(fd, 0);
    awaitFrame(fd, net::MsgType::HelloAck);
    for (const net::EventMsg &event : events)
        sendEvent(fd, event);
    sendFinished(fd, events.size());
    awaitFrame(fd, net::MsgType::Bye);
    ::close(fd);

    // Only now does the stalled tenant die — and only its own run.
    ::close(stalled);
    serving.join();

    EXPECT_FALSE(served);
    EXPECT_TRUE(server.runServed(0)) << server.runError(0);
    EXPECT_FALSE(server.runServed(1));
    EXPECT_FALSE(server.runError(1).empty());
    EXPECT_EQ(plane0.summary(), expected);
}

TEST(EpollServer, BroadcastReachesASubscriberThatSendsNothing)
{
    const Fixture fx;
    FrameworkConfig config;
    config.execution.threads = 1;
    OnlineDriver driver(fx.catalog, fx.model, config, 1);
    net::ServicePlane plane(fx.catalog, driver);
    net::EpollServer server(plane, net::ServerConfig{});

    bool served = false;
    std::thread serving([&] { served = server.runUntilServed(); });

    // A listener handshakes and then stays silent.
    const int listener = connectLoopback(server.port());
    sendHello(listener, 0);
    awaitFrame(listener, net::MsgType::HelloAck);

    // The sender's arrival at tick 150 commits epoch 0.
    const int sender = connectLoopback(server.port());
    sendHello(sender, 0);
    awaitFrame(sender, net::MsgType::HelloAck);
    sendEvent(sender, arrival(0, 0, 1));
    sendEvent(sender, arrival(1, 150, 2));
    awaitFrame(sender, net::MsgType::EpochComplete);

    // The epoch's broadcast reaches the listener without it sending
    // anything first. (Without the flush, its Finished below is what
    // finally delivers the frames.)
    pollfd ready{listener, POLLIN, 0};
    const bool reached = ::poll(&ready, 1, 2000) == 1;
    EXPECT_TRUE(reached)
        << "EpochComplete never reached the silent listener";
    if (reached)
        awaitFrame(listener, net::MsgType::EpochComplete);

    sendFinished(sender, 2);
    sendFinished(listener, 0);
    awaitFrame(sender, net::MsgType::Bye);
    awaitFrame(listener, net::MsgType::Bye);
    ::close(sender);
    ::close(listener);
    serving.join();

    EXPECT_TRUE(served) << server.lastError();
    EXPECT_EQ(plane.eventsIngested(), 2u);
}

TEST(EpollServer, IdleConnectionIsReapedAndAbortsItsRun)
{
    const Fixture fx;
    FrameworkConfig config;
    config.execution.threads = 1;
    OnlineDriver driver(fx.catalog, fx.model, config, 1);
    net::ServicePlane plane(fx.catalog, driver);

    net::ServerConfig server_config;
    server_config.idleTimeoutMs = 100;
    net::EpollServer server(plane, server_config);

    bool served = true;
    std::thread serving([&] { served = server.runUntilServed(); });

    // Handshake, then go silent: the timer wheel must reap this
    // connection instead of waiting on TCP forever.
    const int fd = connectLoopback(server.port());
    sendHello(fd, 0);
    awaitFrame(fd, net::MsgType::HelloAck);
    serving.join();
    ::close(fd);

    EXPECT_FALSE(served);
    EXPECT_NE(server.lastError().find("idle"), std::string::npos)
        << server.lastError();
}

TEST(EpollServer, DuplicateRunRegistrationIsFatal)
{
    const Fixture fx;
    FrameworkConfig config;
    config.execution.threads = 1;
    OnlineDriver driver(fx.catalog, fx.model, config, 1);
    net::ServicePlane plane(fx.catalog, driver);

    net::EpollServer server{net::ServerConfig{}};
    server.addRun(4, plane);
    EXPECT_THROW(server.addRun(4, plane), FatalError);
}

TEST(EpollServer, HelloNamingAnUnknownRunIsRefusedAloneAndTheRunServes)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 40, 47);

    FrameworkConfig config;
    config.execution.threads = 1;
    OnlineDriver reference(fx.catalog, fx.model, config, 53);
    const std::string expected = summaryOf(reference.run(trace));

    OnlineDriver served(fx.catalog, fx.model, config, 53);
    net::ServicePlane plane(fx.catalog, served);
    net::EpollServer server(plane, net::ServerConfig{});

    bool ok = false;
    std::thread serving([&] { ok = server.runUntilServed(); });

    // A client naming a run the server never registered gets an
    // Error and dies alone; run 0 is untouched.
    const int stranger = connectLoopback(server.port());
    sendHello(stranger, 7);
    awaitFrame(stranger, net::MsgType::Error);

    net::LoadGenConfig client;
    client.port = server.port();
    client.connections = 2;
    const net::LoadGenResult result = net::runLoadGen(trace, client);
    serving.join();
    ::close(stranger);

    ASSERT_TRUE(ok) << server.lastError();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.summary, expected);
}

TEST(EpollServer, SeqPoisonInOneRunDoesNotCrossIntoAnother)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 60, 59);

    FrameworkConfig config;
    config.execution.threads = 1;
    OnlineDriver reference(fx.catalog, fx.model, config, 61);
    const std::string expected = summaryOf(reference.run(trace));

    OnlineDriver driver0(fx.catalog, fx.model, config, 61);
    net::ServicePlane plane0(fx.catalog, driver0);
    OnlineDriver driver1(fx.catalog, fx.model, config, 62);
    net::ServicePlane plane1(fx.catalog, driver1);

    net::EpollServer server{net::ServerConfig{}};
    server.addRun(0, plane0);
    server.addRun(1, plane1);

    bool served = true;
    std::thread serving([&] { served = server.runUntilServed(); });

    // Run 1's client replays a duplicate seq — sticky poison for its
    // plane, an Error and an abort for its run.
    const int poisoner = connectLoopback(server.port());
    sendHello(poisoner, 1);
    awaitFrame(poisoner, net::MsgType::HelloAck);
    sendEvent(poisoner, arrival(0, 0, 1));
    sendEvent(poisoner, arrival(0, 0, 2));
    awaitFrame(poisoner, net::MsgType::Error);

    // Run 0 serves to completion, byte-identical, as if run 1 never
    // existed.
    net::LoadGenConfig client;
    client.port = server.port();
    client.connections = 2;
    const net::LoadGenResult result = net::runLoadGen(trace, client);
    serving.join();
    ::close(poisoner);

    EXPECT_FALSE(served);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(server.runServed(0)) << server.runError(0);
    EXPECT_FALSE(server.runServed(1));
    EXPECT_NE(server.runError(1).find("duplicate"),
              std::string::npos)
        << server.runError(1);
    EXPECT_EQ(result.summary, expected);
}
#endif // __linux__

} // namespace
} // namespace cooper
