#include "net/server.hh"

#include "obs/obs.hh"
#include "util/error.hh"

#ifdef __linux__

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace cooper::net {

namespace {

/** Iovec spans coalesced per writev() call. */
constexpr std::size_t kMaxIov = 64;

/** Bytes read per read() of the drain loop. */
constexpr std::size_t kReadChunk = 64 * 1024;

/** Summary frames are chunked to this payload size. */
constexpr std::size_t kSummaryChunk = 64 * 1024;

/** Per-drain syscall/byte tallies, folded into obs counters once. */
struct DrainTally
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;
    std::uint64_t framesIn = 0;
    std::uint64_t framesOut = 0;

    void
    fold() const
    {
        MetricsRegistry *metrics = obsMetrics();
        if (metrics == nullptr)
            return;
        if (reads)
            metrics->counter("net.read_syscalls").add(reads);
        if (writes)
            metrics->counter("net.write_syscalls").add(writes);
        if (bytesIn)
            metrics->counter("net.bytes_in").add(bytesIn);
        if (bytesOut)
            metrics->counter("net.bytes_out").add(bytesOut);
        if (framesIn)
            metrics->counter("net.frames_in").add(framesIn);
        if (framesOut)
            metrics->counter("net.frames_out").add(framesOut);
    }
};

thread_local DrainTally tally;

void
countMetric(const char *name)
{
    if (MetricsRegistry *metrics = obsMetrics())
        metrics->counter(name).add(1);
}

void
setNoDelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

EpollServer::EpollServer(ServerConfig config)
    : config_(std::move(config))
{
    listenFd_ = ::socket(AF_INET,
                         SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0);
    fatalIf(listenFd_ < 0, "EpollServer: socket: ",
            std::strerror(errno));

    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    fatalIf(::inet_pton(AF_INET, config_.host.c_str(),
                        &addr.sin_addr) != 1,
            "EpollServer: bad listen address '", config_.host, "'");
    fatalIf(::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0,
            "EpollServer: bind ", config_.host, ":", config_.port,
            ": ", std::strerror(errno));
    fatalIf(::listen(listenFd_, 64) != 0, "EpollServer: listen: ",
            std::strerror(errno));

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    fatalIf(::getsockname(listenFd_,
                          reinterpret_cast<sockaddr *>(&bound),
                          &len) != 0,
            "EpollServer: getsockname: ", std::strerror(errno));
    port_ = ntohs(bound.sin_port);

    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    fatalIf(epollFd_ < 0, "EpollServer: epoll_create1: ",
            std::strerror(errno));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listenFd_;
    fatalIf(::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev) != 0,
            "EpollServer: epoll_ctl(listen): ", std::strerror(errno));

    epoch_ = std::chrono::steady_clock::now();
    if (config_.idleTimeoutMs > 0) {
        // Coarse wheel: fire every quarter timeout; enough slots to
        // park any deadline inside one full timeout plus slack.
        wheelGranularityMs_ = std::max<std::uint64_t>(
            1, config_.idleTimeoutMs / 4);
        const std::size_t slots =
            config_.idleTimeoutMs / wheelGranularityMs_ + 3;
        wheel_.assign(slots, {});
    }
}

EpollServer::EpollServer(ServicePlane &plane, ServerConfig config)
    : EpollServer(std::move(config))
{
    addRun(0, plane);
}

EpollServer::~EpollServer()
{
    for (auto &[fd, conn] : conns_)
        ::close(fd);
    conns_.clear();
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (epollFd_ >= 0)
        ::close(epollFd_);
}

void
EpollServer::addRun(std::uint64_t runId, ServicePlane &plane)
{
    fatalIf(started_,
            "EpollServer: addRun(", runId, ") after serving started");
    Run run;
    run.id = runId;
    run.plane = &plane;
    fatalIf(!runs_.emplace(runId, std::move(run)).second,
            "EpollServer: duplicate run id ", runId);
    plane.setFlowControl(config_.maxPendingPerConn);
}

std::uint64_t
EpollServer::nowMs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

EpollServer::Run *
EpollServer::connRun(const Conn &conn)
{
    const auto it = runs_.find(conn.runId);
    fatalIf(it == runs_.end(),
            "EpollServer: connection bound to unknown run ",
            conn.runId);
    return &it->second;
}

bool
EpollServer::allRunsResolved() const
{
    for (const auto &[id, run] : runs_)
        if (!run.resolved())
            return false;
    return true;
}

bool
EpollServer::runServed(std::uint64_t runId) const
{
    const auto it = runs_.find(runId);
    fatalIf(it == runs_.end(), "EpollServer: unknown run id ", runId);
    return it->second.summaryQueued && !it->second.aborted;
}

const std::string &
EpollServer::runError(std::uint64_t runId) const
{
    const auto it = runs_.find(runId);
    fatalIf(it == runs_.end(), "EpollServer: unknown run id ", runId);
    return it->second.error;
}

bool
EpollServer::runUntilServed()
{
    fatalIf(runs_.empty(),
            "EpollServer: runUntilServed with no runs registered");
    started_ = true;
    epoll_event events[64];
    while (true) {
        // Sweep connections of runs that died since the last pass
        // (aborts are recorded mid-drain but closed here, where no
        // Conn is borrowed). Once every run is resolved, strangers
        // can no longer join anything — drop them too.
        const bool resolved = allRunsResolved();
        std::vector<int> dead;
        for (const auto &[fd, conn] : conns_) {
            if (!conn->handshaked) {
                if (resolved)
                    dead.push_back(fd);
                continue;
            }
            if (connRun(*conn)->aborted)
                dead.push_back(fd);
        }
        for (const int fd : dead)
            closeConn(fd);
        if (resolved && conns_.empty()) {
            for (const auto &[id, run] : runs_)
                if (run.aborted)
                    return false;
            return true;
        }

        const int timeout =
            config_.idleTimeoutMs > 0
                ? static_cast<int>(wheelGranularityMs_)
                : -1;
        const int n = ::epoll_wait(epollFd_, events, 64, timeout);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            // The loop itself is broken; no run can be served.
            const std::string why = formatMessage(
                "epoll_wait: ", std::strerror(errno));
            for (auto &[id, run] : runs_)
                abortRun(run, why);
            continue;
        }
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            if (fd == listenFd_) {
                acceptReady();
                continue;
            }
            const auto it = conns_.find(fd);
            if (it == conns_.end())
                continue; // closed by an earlier event this batch
            Conn &conn = *it->second;
            if (events[i].events & (EPOLLHUP | EPOLLERR)) {
                readReady(conn);
                continue;
            }
            if (events[i].events & EPOLLIN)
                readReady(conn);
            if (conns_.count(fd) != 0 &&
                (events[i].events & EPOLLOUT)) {
                flushWrites(conn);
                if (conns_.count(fd) != 0)
                    updateWriteInterest(conn);
            }
        }
        // readReady flushed only the connection it read; a subscriber
        // that sends nothing gets its broadcasts here, outside the
        // drain path. EPOLLOUT is armed only when the write blocks (a
        // connection already waiting on it is flushed by that event).
        for (const int fd : broadcastTouched_) {
            const auto it = conns_.find(fd);
            if (it == conns_.end() || it->second->wqueue.empty() ||
                it->second->wantWrite)
                continue;
            Conn &conn = *it->second;
            flushWrites(conn);
            if (conns_.count(fd) != 0 && conn.wantWrite)
                updateWriteInterest(conn);
        }
        broadcastTouched_.clear();
        if (config_.idleTimeoutMs > 0)
            reapIdle(nowMs());
        tally.fold();
        tally = DrainTally{};
    }
}

void
EpollServer::acceptReady()
{
    while (true) {
        const int fd = ::accept4(listenFd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR)
                continue;
            return;
        }
        if (allRunsResolved()) {
            ::close(fd); // every run is over; no late joiners
            continue;
        }
        setNoDelay(fd);
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        conn->serial = ++connSerial_;
        conn->lastActivityMs = nowMs();
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
            ::close(fd);
            continue;
        }
        if (config_.idleTimeoutMs > 0)
            scheduleIdleCheck(
                fd, conn->lastActivityMs + config_.idleTimeoutMs);
        conns_.emplace(fd, std::move(conn));
        if (MetricsRegistry *metrics = obsMetrics())
            metrics->counter("net.accepts").add(1);
    }
}

void
EpollServer::scheduleIdleCheck(int fd, std::uint64_t deadlineMs)
{
    // +1 so the slot fires at-or-after the deadline; clamp into the
    // unfired region (a deadline in an already-swept slot is checked
    // on the very next tick).
    std::uint64_t slot = deadlineMs / wheelGranularityMs_ + 1;
    if (slot < wheelNextSlot_)
        slot = wheelNextSlot_;
    wheel_[slot % wheel_.size()].push_back(fd);
}

void
EpollServer::reapIdle(std::uint64_t now)
{
    const std::uint64_t current = now / wheelGranularityMs_;
    while (wheelNextSlot_ <= current) {
        std::vector<int> due;
        due.swap(wheel_[wheelNextSlot_ % wheel_.size()]);
        ++wheelNextSlot_;
        for (const int fd : due) {
            const auto it = conns_.find(fd);
            if (it == conns_.end())
                continue; // already closed; stale wheel entry
            Conn &conn = *it->second;
            const std::uint64_t deadline =
                conn.lastActivityMs + config_.idleTimeoutMs;
            if (deadline > now) {
                scheduleIdleCheck(fd, deadline);
                continue;
            }
            countMetric("net.idle_reaped");
            if (conn.handshaked && !conn.finishedSent) {
                Run *run = connRun(conn);
                if (!run->resolved())
                    abortRun(*run,
                             formatMessage(
                                 "run ", run->id,
                                 ": connection idle past ",
                                 config_.idleTimeoutMs,
                                 " ms before Finished"));
            }
            closeConn(fd);
        }
    }
}

bool
EpollServer::onAbandonedEof(Conn &conn)
{
    if (!conn.handshaked || conn.finishedSent)
        return false;
    Run *run = connRun(conn);
    if (run->resolved())
        return false;
    abortRun(*run, formatMessage(
                       "run ", run->id,
                       ": client disconnected mid-run before "
                       "Finished"));
    return true;
}

void
EpollServer::readReady(Conn &conn)
{
    const int fd = conn.fd;
    if (config_.idleTimeoutMs > 0)
        conn.lastActivityMs = nowMs();
    if (!drainBatched(conn) || conns_.count(fd) == 0)
        return; // connection already closed
    flushWrites(conn);
    const auto it = conns_.find(fd);
    if (it != conns_.end())
        updateWriteInterest(*it->second);
}

bool
EpollServer::drainBatched(Conn &conn)
{
    const TraceSpan span("net.drain", "net");
    bool eof = false;
    while (true) {
        const std::size_t base = conn.rbuf.size();
        conn.rbuf.resize(base + kReadChunk);
        const ssize_t r =
            ::read(conn.fd, conn.rbuf.data() + base, kReadChunk);
        if (r > 0) {
            conn.rbuf.resize(base + static_cast<std::size_t>(r));
            ++tally.reads;
            tally.bytesIn += static_cast<std::uint64_t>(r);
            continue;
        }
        conn.rbuf.resize(base);
        if (r == 0) {
            eof = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        eof = true; // hard socket error: treat as a disconnect
        break;
    }

    if (!processBuffered(conn))
        return false;

    if (eof) {
        const int fd = conn.fd;
        if (!conn.rbuf.empty()) {
            if (MetricsRegistry *metrics = obsMetrics())
                metrics->counter("net.dirty_disconnects").add(1);
        }
        onAbandonedEof(conn);
        closeConn(fd);
        return false;
    }
    return true;
}

bool
EpollServer::processBuffered(Conn &conn)
{
    const int fd = conn.fd;
    std::size_t offset = 0;
    bool keep = true;
    while (keep) {
        FrameView frame;
        std::size_t consumed = 0;
        std::string error;
        const DecodeStatus status = tryDecodeFrame(
            conn.rbuf.data() + offset, conn.rbuf.size() - offset,
            frame, consumed, error);
        if (status == DecodeStatus::NeedMore)
            break;
        if (status == DecodeStatus::Bad) {
            PlaneOutcome outcome = PlaneOutcome::fail(
                PlaneError::None, "malformed frame: " + error);
            sendError(conn, outcome);
            if (conn.handshaked)
                abortRun(*connRun(conn), outcome.message);
            keep = false;
            break;
        }
        offset += consumed;
        ++tally.framesIn;
        keep = handleFrame(conn, frame);
        if (conns_.count(fd) == 0)
            return false; // closed underneath us (e.g. after Bye)
    }
    // One compaction per drain pass, after the batch decode.
    if (offset > 0)
        conn.rbuf.erase(conn.rbuf.begin(),
                        conn.rbuf.begin() +
                            static_cast<std::ptrdiff_t>(offset));
    if (keep)
        return true;
    if (conn.wqueue.empty()) {
        closeConn(fd);
        return false;
    }
    conn.closeAfterFlush = true;
    flushWrites(conn);
    const auto it = conns_.find(fd);
    if (it != conns_.end())
        updateWriteInterest(*it->second);
    return false;
}

bool
EpollServer::handleFrame(Conn &conn, const FrameView &frame)
{
    const int fd = conn.fd;
    try {
        if (!conn.handshaked && frame.type != MsgType::Hello) {
            sendError(conn,
                      PlaneOutcome::fail(
                          PlaneError::None,
                          formatMessage(msgTypeName(frame.type),
                                        " before Hello")));
            return false;
        }
        if (conn.handshaked && connRun(conn)->aborted) {
            // The run died earlier in this drain batch; the sweep
            // has not closed this sibling yet.
            sendError(conn,
                      PlaneOutcome::fail(
                          PlaneError::None,
                          formatMessage("run ", conn.runId,
                                        " was aborted")));
            return false;
        }
        switch (frame.type) {
        case MsgType::Hello: {
            if (conn.handshaked) {
                sendError(conn, PlaneOutcome::fail(
                                    PlaneError::None,
                                    "duplicate Hello"));
                return false;
            }
            const HelloMsg hello = HelloMsg::decode(frame);
            const auto it = runs_.find(hello.runId);
            if (it == runs_.end()) {
                sendError(conn,
                          PlaneOutcome::fail(
                              PlaneError::None,
                              formatMessage(
                                  "Hello names unknown run ",
                                  hello.runId)));
                return false;
            }
            Run &run = it->second;
            if (run.resolved()) {
                sendError(conn,
                          PlaneOutcome::fail(
                              PlaneError::None,
                              formatMessage(
                                  "run ", run.id,
                                  run.aborted ? " was aborted"
                                              : " already completed")));
                return false;
            }
            conn.handshaked = true;
            conn.runId = run.id;
            conn.subscriptions = hello.subscriptions;
            ++run.handshakedEver;
            std::vector<std::uint8_t> payload;
            run.plane->helloAck().encode(payload);
            queueFrame(conn, MsgType::HelloAck, 0, payload);
            return true;
        }
        case MsgType::Event: {
            const EventMsg event = EventMsg::decode(frame);
            Run *run = connRun(conn);
            const IngestResult result =
                run->plane->ingest(event, conn.serial);
            if (result.status == IngestStatus::Busy) {
                BusyMsg busy{event.seq, config_.busyRetryHintMs};
                std::vector<std::uint8_t> payload;
                busy.encode(payload);
                queueFrame(conn, MsgType::Busy, 0, payload);
                countMetric("net.busy_sent");
                return true;
            }
            if (result.status == IngestStatus::Failed) {
                sendError(conn, result.outcome);
                abortRun(*run, result.outcome.message);
                return false;
            }
            AckMsg ack{event.seq, run->plane->epochsCommitted()};
            std::vector<std::uint8_t> payload;
            ack.encode(payload);
            queueFrame(conn, MsgType::Ack, 0, payload);
            broadcastOutputs(*run);
            return true;
        }
        case MsgType::CheckpointRequest: {
            std::vector<std::uint8_t> payload;
            connRun(conn)->plane->checkpointNow().encode(payload);
            queueFrame(conn, MsgType::CheckpointAck, 0, payload);
            return true;
        }
        case MsgType::Finished: {
            const FinishedMsg finished = FinishedMsg::decode(frame);
            if (!conn.finishedSent) {
                conn.finishedSent = true;
                Run *run = connRun(conn);
                ++run->finishedClients;
                run->plane->declareFinished(finished.eventsSent);
                finishRunIfReady(*run);
            }
            return conns_.count(fd) != 0;
        }
        default:
            sendError(conn,
                      PlaneOutcome::fail(
                          PlaneError::None,
                          formatMessage("unexpected ",
                                        msgTypeName(frame.type),
                                        " frame from a client")));
            if (conn.handshaked)
                abortRun(*connRun(conn),
                         "unexpected frame type from a client");
            return false;
        }
    } catch (const FatalError &err) {
        // Hostile payload: the codec refused it. Kill the connection,
        // and its run with it when the peer was a participant.
        const bool participant = conn.handshaked;
        sendError(conn, PlaneOutcome::fail(PlaneError::None,
                                           err.what()));
        if (participant)
            abortRun(*connRun(conn), err.what());
        return false;
    }
}

void
EpollServer::queueFrame(Conn &conn, MsgType type, std::uint16_t flags,
                        const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> buf;
    encodeFrame(buf, type, flags, payload.data(), payload.size());
    conn.wqueue.push_back(std::move(buf));
    ++tally.framesOut;
}

void
EpollServer::broadcastOutputs(Run &run)
{
    const std::vector<EpochOutput> outputs =
        run.plane->takeOutputs();
    if (outputs.empty())
        return;
    for (const EpochOutput &out : outputs) {
        std::vector<std::uint8_t> complete;
        out.complete.encode(complete);
        std::vector<std::uint8_t> probes;
        out.probes.encode(probes);
        std::vector<std::uint8_t> assignment;
        out.assignment.encode(assignment);
        for (auto &[fd, conn] : conns_) {
            if (!conn->handshaked || conn->runId != run.id)
                continue;
            queueFrame(*conn, MsgType::EpochComplete, 0, complete);
            if (conn->subscriptions & kSubscribeProbes)
                queueFrame(*conn, MsgType::ProbeResult, 0, probes);
            if (conn->subscriptions & kSubscribeAssignments)
                queueFrame(*conn, MsgType::Assignment, 0, assignment);
            broadcastTouched_.insert(fd);
        }
    }
}

void
EpollServer::sendError(Conn &conn, const PlaneOutcome &outcome)
{
    ErrorMsg msg;
    msg.code = static_cast<std::uint32_t>(outcome.code);
    msg.message = outcome.message;
    std::vector<std::uint8_t> payload;
    msg.encode(payload);
    queueFrame(conn, MsgType::Error, 0, payload);
    flushWrites(conn);
}

void
EpollServer::finishRunIfReady(Run &run)
{
    if (run.resolved() || run.finishedClients == 0 ||
        run.finishedClients < run.handshakedEver)
        return;
    const PlaneOutcome outcome = run.plane->completeRun();
    if (!outcome.ok) {
        std::vector<int> fds;
        fds.reserve(conns_.size());
        for (const auto &[fd, conn] : conns_)
            if (conn->handshaked && conn->runId == run.id)
                fds.push_back(fd);
        for (const int fd : fds) {
            const auto it = conns_.find(fd);
            if (it != conns_.end())
                sendError(*it->second, outcome);
        }
        abortRun(run, outcome.message);
        return;
    }
    broadcastOutputs(run);
    queueSummaryAndBye(run);
}

void
EpollServer::queueSummaryAndBye(Run &run)
{
    const std::string &summary = run.plane->summary();
    for (auto &[fd, conn] : conns_) {
        if (!conn->handshaked || conn->runId != run.id)
            continue;
        std::size_t offset = 0;
        do {
            const std::size_t chunk = std::min(
                kSummaryChunk, summary.size() - offset);
            const bool last = offset + chunk >= summary.size();
            std::vector<std::uint8_t> buf;
            encodeFrame(buf, MsgType::Summary,
                        last ? kFlagLastChunk : 0,
                        reinterpret_cast<const std::uint8_t *>(
                            summary.data() + offset),
                        chunk);
            conn->wqueue.push_back(std::move(buf));
            ++tally.framesOut;
            offset += chunk;
        } while (offset < summary.size());
        queueFrame(*conn, MsgType::Bye, 0, {});
        conn->closeAfterFlush = true;
    }
    run.summaryQueued = true;
    countMetric("net.runs_served");
    // Flush everything we can now; EPOLLOUT covers the rest.
    std::vector<int> fds;
    fds.reserve(conns_.size());
    for (const auto &[fd, conn] : conns_)
        if (conn->handshaked && conn->runId == run.id)
            fds.push_back(fd);
    for (const int fd : fds) {
        const auto it = conns_.find(fd);
        if (it == conns_.end())
            continue;
        flushWrites(*it->second);
        if (conns_.count(fd) != 0)
            updateWriteInterest(*it->second);
    }
}

void
EpollServer::flushWrites(Conn &conn)
{
    while (!conn.wqueue.empty()) {
        // Coalesce queued frames into one writev.
        iovec iov[kMaxIov];
        std::size_t niov = 0;
        std::size_t front = conn.wfront;
        for (const auto &buf : conn.wqueue) {
            if (niov == kMaxIov)
                break;
            iov[niov].iov_base =
                const_cast<std::uint8_t *>(buf.data()) + front;
            iov[niov].iov_len = buf.size() - front;
            ++niov;
            front = 0;
        }
        const ssize_t written =
            ::writev(conn.fd, iov, static_cast<int>(niov));
        if (written < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                conn.wantWrite = true;
                return;
            }
            if (errno == EINTR)
                continue;
            closeConn(conn.fd); // peer is gone; drop the backlog
            return;
        }
        ++tally.writes;
        tally.bytesOut += static_cast<std::uint64_t>(written);
        std::size_t left = static_cast<std::size_t>(written);
        while (left > 0) {
            auto &buf = conn.wqueue.front();
            const std::size_t remain = buf.size() - conn.wfront;
            if (left >= remain) {
                left -= remain;
                conn.wfront = 0;
                conn.wqueue.pop_front();
            } else {
                conn.wfront += left;
                left = 0;
            }
        }
    }
    conn.wantWrite = false;
    if (conn.closeAfterFlush)
        closeConn(conn.fd);
}

void
EpollServer::updateWriteInterest(Conn &conn)
{
    const bool want = !conn.wqueue.empty();
    epoll_event ev{};
    ev.events = want ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
    ev.data.fd = conn.fd;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.wantWrite = want;
}

void
EpollServer::closeConn(int fd)
{
    const auto it = conns_.find(fd);
    if (it == conns_.end())
        return;
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns_.erase(it);
}

void
EpollServer::abortRun(Run &run, const std::string &why)
{
    if (run.resolved())
        return;
    run.aborted = true;
    run.error = why;
    if (lastError_.empty())
        lastError_ = why;
    countMetric("net.runs_aborted");
    // Connections are closed by the main-loop sweep — never here,
    // where a Conn may be borrowed by the drain path.
}

} // namespace cooper::net

#else // !__linux__

namespace cooper::net {

EpollServer::EpollServer(ServerConfig config)
    : config_(std::move(config))
{
    fatal("EpollServer: the service plane requires Linux epoll");
}

EpollServer::EpollServer(ServicePlane &plane, ServerConfig config)
    : EpollServer(std::move(config))
{
    addRun(0, plane);
}

EpollServer::~EpollServer() = default;

void EpollServer::addRun(std::uint64_t, ServicePlane &) {}

bool
EpollServer::runUntilServed()
{
    return false;
}

bool EpollServer::runServed(std::uint64_t) const { return false; }
const std::string &
EpollServer::runError(std::uint64_t) const
{
    return lastError_;
}
void EpollServer::acceptReady() {}
void EpollServer::readReady(Conn &) {}
bool EpollServer::drainBatched(Conn &) { return false; }
bool EpollServer::processBuffered(Conn &) { return false; }
bool EpollServer::handleFrame(Conn &, const FrameView &)
{
    return false;
}
void EpollServer::queueFrame(Conn &, MsgType, std::uint16_t,
                             const std::vector<std::uint8_t> &)
{}
void EpollServer::broadcastOutputs(Run &) {}
void EpollServer::sendError(Conn &, const PlaneOutcome &) {}
void EpollServer::finishRunIfReady(Run &) {}
void EpollServer::queueSummaryAndBye(Run &) {}
void EpollServer::flushWrites(Conn &) {}
void EpollServer::updateWriteInterest(Conn &) {}
void EpollServer::closeConn(int) {}
EpollServer::Run *EpollServer::connRun(const Conn &)
{
    return nullptr;
}
void EpollServer::abortRun(Run &, const std::string &) {}
bool EpollServer::allRunsResolved() const { return false; }
bool EpollServer::onAbandonedEof(Conn &) { return false; }
std::uint64_t EpollServer::nowMs() const { return 0; }
void EpollServer::scheduleIdleCheck(int, std::uint64_t) {}
void EpollServer::reapIdle(std::uint64_t) {}

} // namespace cooper::net

#endif // __linux__
