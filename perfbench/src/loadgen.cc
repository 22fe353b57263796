#include "loadgen.hh"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <fstream>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <spawn.h>
#include <sstream>
#include <stdexcept>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hh"
#include "net/frame.hh"

extern char **environ;

namespace perfbench {

namespace {

using namespace cooper;
using namespace cooper::net;

/** A session that makes no progress for this long has failed. */
constexpr std::int64_t kStallNs = 60'000'000'000;

std::runtime_error
sysError(const std::string &what)
{
    return std::runtime_error(what + ": " + std::strerror(errno));
}

/** Busy and stolen CPU ticks so far, summed over the server's CPUs:
 *  every CPU but the one the generator runs on (it is pinned). */
struct CpuTicks
{
    std::uint64_t busy = 0;
    std::uint64_t steal = 0;
};

CpuTicks
readServerCpuTicks()
{
    const std::string mine = "cpu" + std::to_string(sched_getcpu());
    std::ifstream stat("/proc/stat");
    CpuTicks ticks;
    std::string line;
    while (std::getline(stat, line)) {
        std::istringstream fields(line);
        std::string cpu;
        std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                      irq = 0, softirq = 0, steal = 0;
        fields >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
            softirq >> steal;
        if (cpu.size() <= 3 || cpu.compare(0, 3, "cpu") != 0 || cpu == mine)
            continue;
        ticks.busy += user + nice + system + irq + softirq;
        ticks.steal += steal;
    }
    return ticks;
}

} // namespace

ServerProcess::ServerProcess(const std::string &exe,
                             const std::vector<std::string> &args)
{
    int in[2];
    int out[2];
    if (::pipe2(in, O_CLOEXEC) != 0 || ::pipe2(out, O_CLOEXEC) != 0)
        throw sysError("pipe2");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(exe.c_str()));
    for (const std::string &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, exe.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(in[0]);
    ::close(out[1]);
    toChild_ = in[1];
    fromChild_ = out[0];
    if (rc != 0) {
        pid_ = -1;
        errno = rc;
        throw sysError("posix_spawn " + exe);
    }
}

ServerProcess::~ServerProcess()
{
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
    }
    if (toChild_ >= 0)
        ::close(toChild_);
    if (fromChild_ >= 0)
        ::close(fromChild_);
}

void
ServerProcess::sendLine(const std::string &line)
{
    const std::string data = line + "\n";
    std::size_t done = 0;
    while (done < data.size()) {
        const ssize_t n =
            ::write(toChild_, data.data() + done, data.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw sysError("write to server process");
        }
        done += static_cast<std::size_t>(n);
    }
}

std::string
ServerProcess::readLine(int timeoutMs)
{
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(timeoutMs) * 1'000'000;
    while (true) {
        const std::size_t eol = buffered_.find('\n');
        if (eol != std::string::npos) {
            std::string line = buffered_.substr(0, eol);
            buffered_.erase(0, eol + 1);
            return line;
        }
        const std::int64_t left = deadline - nowNs();
        if (left <= 0)
            throw std::runtime_error("server process did not answer");
        // Spin: the generator owns its CPU, and a sleeping reader
        // would add its wakeup latency to the set-up time.
        pollfd pfd{fromChild_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 0);
        if (ready < 0 && errno != EINTR)
            throw sysError("poll server process");
        if (ready <= 0)
            continue;
        char chunk[4096];
        const ssize_t n = ::read(fromChild_, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            throw std::runtime_error("server process exited");
        buffered_.append(chunk, static_cast<std::size_t>(n));
    }
}

bool
ServerProcess::finish()
{
    sendLine("quit");
    ::close(toChild_);
    toChild_ = -1;
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

RunFrames
encodeRun(const ChurnTrace &trace, std::size_t connections)
{
    RunFrames run;
    run.trace = &trace;
    run.perConnection.resize(connections);
    std::vector<std::uint8_t> payload;
    const auto &events = trace.events();
    for (std::size_t seq = 0; seq < events.size(); ++seq) {
        payload.clear();
        toMsg(seq, events[seq]).encode(payload);
        encodeFrame(run.perConnection[seq % connections], MsgType::Event,
                    0, payload.data(), payload.size());
    }
    return run;
}

namespace {

/** Generator-side state of one connection. */
struct Conn
{
    int fd = -1;
    std::size_t run = 0;
    std::size_t index = 0; //!< position within the run
    const std::vector<std::uint8_t> *frames = nullptr;

    /** Events this connection sends (its share of the trace, minus a
     *  deliberately dropped one). */
    std::size_t limit = 0;
    std::size_t wpos = 0; //!< bytes of *frames written

    /** Control frames and Busy resends go out ahead of the stream. */
    std::vector<std::uint8_t> side;
    std::size_t sidePos = 0;
    std::deque<std::pair<std::int64_t, std::size_t>> retryAt;

    std::vector<std::uint8_t> rbuf;
    std::size_t acked = 0;
    bool helloAcked = false;
    bool finishedSent = false;
    bool summaryDone = false;
    bool bye = false;
    bool closed = false;
    std::string summary;
};

struct RunState
{
    const ChurnTrace *trace = nullptr;
    std::size_t connections = 1;
    std::vector<char> acked;
    std::size_t low = 0; //!< lowest unacknowledged seq
    std::vector<char> epochSeen;
    std::int64_t lastSummaryNs = 0;
    double nsPerEvent = 0.0; //!< open loop: due-time spacing

    /** Events at tick 0 (the initial population): all due at the
     *  start; pacing begins after them. */
    std::size_t initialEvents = 0;
};

class Session
{
  public:
    Session(ServerProcess &server, const SessionPlan &plan)
        : server_(server), plan_(plan)
    {}

    ~Session()
    {
        for (Conn &conn : conns_)
            if (conn.fd >= 0)
                ::close(conn.fd);
        if (epfd_ >= 0)
            ::close(epfd_);
    }

    SessionResult run();

  private:
    void connectAll(std::uint16_t port);
    void queueFrame(Conn &conn, MsgType type,
                    const std::vector<std::uint8_t> &payload);
    void flush(Conn &conn, std::size_t allowedEvents, std::int64_t now);
    std::size_t allowedEvents(const Conn &conn, std::int64_t now) const;
    void pollOnce(int timeoutMs);
    void readConn(Conn &conn);
    void handle(Conn &conn, const FrameView &frame, std::int64_t now);
    std::int64_t dueNs(std::size_t run, std::size_t seq) const;
    void maybeFinish(Conn &conn);
    bool allResolved() const;

    ServerProcess &server_;
    const SessionPlan &plan_;
    SessionResult result_;
    std::vector<Conn> conns_;
    std::vector<RunState> runs_;
    int epfd_ = -1;
    bool started_ = false; //!< events may flow
    std::int64_t startNs_ = 0;
    std::int64_t lastProgressNs_ = 0;
};

void
Session::connectAll(std::uint16_t port)
{
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epfd_ < 0)
        throw sysError("epoll_create1");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    for (Conn &conn : conns_) {
        conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (conn.fd < 0)
            throw sysError("socket");
        if (::connect(conn.fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            throw sysError("connect");
        int one = 1;
        ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = static_cast<std::uint64_t>(&conn - conns_.data());
        if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, conn.fd, &ev) != 0)
            throw sysError("epoll_ctl");
    }
}

void
Session::queueFrame(Conn &conn, MsgType type,
                    const std::vector<std::uint8_t> &payload)
{
    encodeFrame(conn.side, type, 0, payload.data(), payload.size());
}

std::int64_t
Session::dueNs(std::size_t run, std::size_t seq) const
{
    const RunState &state = runs_[run];
    const std::size_t paced =
        seq > state.initialEvents ? seq - state.initialEvents : 0;
    return startNs_ + static_cast<std::int64_t>(
                          static_cast<double>(paced) * state.nsPerEvent);
}

std::size_t
Session::allowedEvents(const Conn &conn, std::int64_t now) const
{
    if (!started_)
        return 0;
    const RunState &run = runs_[conn.run];
    std::size_t bound = 0; // events with seq < bound may be sent
    if (plan_.loop == Loop::Closed) {
        bound = run.low + kWindow;
    } else {
        const double elapsed = static_cast<double>(now - startNs_);
        bound = elapsed < 0 ? 0
                            : run.initialEvents +
                                  static_cast<std::size_t>(
                                      elapsed / run.nsPerEvent) +
                                  1;
    }
    const std::size_t c = conn.index;
    const std::size_t mine =
        bound > c ? (bound - c + run.connections - 1) / run.connections
                  : 0;
    return std::min(mine, conn.limit);
}

void
Session::flush(Conn &conn, std::size_t allowed, std::int64_t now)
{
    // Busy resends that are due join the side buffer at a frame
    // boundary of the main stream.
    while (!conn.retryAt.empty() && conn.retryAt.front().first <= now &&
           conn.wpos % kEventFrameBytes == 0) {
        const std::size_t k = conn.retryAt.front().second;
        conn.retryAt.pop_front();
        const auto *frame = conn.frames->data() + k * kEventFrameBytes;
        conn.side.insert(conn.side.end(), frame,
                         frame + kEventFrameBytes);
        ++result_.retries;
    }
    while (conn.sidePos < conn.side.size()) {
        const ssize_t n =
            ::send(conn.fd, conn.side.data() + conn.sidePos,
                   conn.side.size() - conn.sidePos, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR)
                continue;
            throw sysError("send");
        }
        conn.sidePos += static_cast<std::size_t>(n);
    }
    conn.side.clear();
    conn.sidePos = 0;

    const std::size_t target = allowed * kEventFrameBytes;
    while (conn.wpos < target) {
        const ssize_t n =
            ::send(conn.fd, conn.frames->data() + conn.wpos,
                   target - conn.wpos, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR)
                continue;
            throw sysError("send");
        }
        const std::size_t before = conn.wpos / kEventFrameBytes;
        conn.wpos += static_cast<std::size_t>(n);
        if (plan_.loop == Loop::Open) {
            const std::size_t after = conn.wpos / kEventFrameBytes;
            const RunState &run = runs_[conn.run];
            for (std::size_t k = before; k < after; ++k)
                result_.lateMs.push_back(
                    static_cast<double>(
                        now - dueNs(conn.run,
                                    conn.index + k * run.connections)) /
                    1e6);
        }
    }
}

void
Session::maybeFinish(Conn &conn)
{
    if (!started_ || conn.finishedSent || conn.acked < conn.limit ||
        !conn.retryAt.empty() ||
        conn.wpos < conn.limit * kEventFrameBytes)
        return;
    FinishedMsg finished{conn.limit};
    std::vector<std::uint8_t> payload;
    finished.encode(payload);
    queueFrame(conn, MsgType::Finished, payload);
    conn.finishedSent = true;
}

void
Session::handle(Conn &conn, const FrameView &frame, std::int64_t now)
{
    RunState &run = runs_[conn.run];
    switch (frame.type) {
    case MsgType::HelloAck:
        conn.helloAcked = true;
        break;
    case MsgType::Ack: {
        const AckMsg ack = AckMsg::decode(frame);
        if (ack.seq >= run.acked.size() || run.acked[ack.seq])
            throw std::runtime_error("unexpected Ack seq " +
                                     std::to_string(ack.seq));
        run.acked[ack.seq] = 1;
        ++conn.acked;
        while (run.low < run.acked.size() && run.acked[run.low])
            ++run.low;
        const Tick tick = run.trace->events()[ack.seq].tick;
        if (plan_.loop == Loop::Open && tick >= plan_.warmupTicks &&
            tick < run.trace->lastTick())
            result_.eventMs.push_back(
                static_cast<double>(now - dueNs(conn.run, ack.seq)) /
                1e6);
        lastProgressNs_ = now;
        break;
    }
    case MsgType::EpochComplete: {
        const EpochCompleteMsg done = EpochCompleteMsg::decode(frame);
        if (done.epoch >= run.epochSeen.size())
            run.epochSeen.resize(done.epoch + 1, 0);
        if (run.epochSeen[done.epoch])
            break; // already timed from a sibling connection
        run.epochSeen[done.epoch] = 1;
        // The first event at or past the boundary lets the plane
        // step; epochs with none were drained after Finished.
        const auto &events = run.trace->events();
        const auto closing = std::lower_bound(
            events.begin(), events.end(), done.tick,
            [](const ChurnEvent &e, std::uint64_t tick) {
                return e.tick < tick;
            });
        if (closing == events.end())
            ++result_.drainedEpochs;
        else if (plan_.loop == Loop::Open && done.tick > plan_.warmupTicks)
            result_.epochMs.push_back(
                static_cast<double>(
                    now - dueNs(conn.run,
                                static_cast<std::size_t>(
                                    closing - events.begin()))) /
                1e6);
        break;
    }
    case MsgType::Busy: {
        const BusyMsg busy = BusyMsg::decode(frame);
        ++result_.busyRefusals;
        const std::size_t k = (busy.seq - conn.index) / run.connections;
        conn.retryAt.emplace_back(
            now + static_cast<std::int64_t>(busy.retryAfterMs) * 1'000'000,
            k);
        break;
    }
    case MsgType::Summary:
        conn.summary.append(reinterpret_cast<const char *>(frame.payload),
                            frame.size);
        if (frame.flags & kFlagLastChunk) {
            conn.summaryDone = true;
            run.lastSummaryNs = std::max(run.lastSummaryNs, now);
        }
        break;
    case MsgType::Bye:
        conn.bye = true;
        break;
    case MsgType::Error: {
        const ErrorMsg error = ErrorMsg::decode(frame);
        if (result_.error.empty())
            result_.error = "server error " + std::to_string(error.code) +
                            ": " + error.message;
        break;
    }
    default:
        break; // Assignment, ProbeResult: received and dropped
    }
}

void
Session::readConn(Conn &conn)
{
    // Frames are timed when their bytes are first read, before any
    // further reads or decoding.
    std::int64_t now = 0;
    std::uint8_t chunk[65536];
    while (true) {
        const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
            if (now == 0)
                now = nowNs();
            conn.rbuf.insert(conn.rbuf.end(), chunk, chunk + n);
            continue;
        }
        if (n == 0) {
            conn.closed = true;
            ::epoll_ctl(epfd_, EPOLL_CTL_DEL, conn.fd, nullptr);
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        throw sysError("recv");
    }
    std::size_t offset = 0;
    while (true) {
        FrameView frame;
        std::size_t consumed = 0;
        std::string error;
        const DecodeStatus status =
            tryDecodeFrame(conn.rbuf.data() + offset,
                           conn.rbuf.size() - offset, frame, consumed,
                           error);
        if (status == DecodeStatus::NeedMore)
            break;
        if (status == DecodeStatus::Bad)
            throw std::runtime_error("malformed frame from server: " +
                                     error);
        handle(conn, frame, now);
        offset += consumed;
    }
    conn.rbuf.erase(conn.rbuf.begin(),
                    conn.rbuf.begin() + static_cast<std::ptrdiff_t>(offset));
    if (conn.closed && !conn.bye && result_.error.empty())
        result_.error = "server closed a connection before Bye";
}

void
Session::pollOnce(int timeoutMs)
{
    epoll_event events[16];
    const int n = ::epoll_wait(epfd_, events, 16, timeoutMs);
    if (n < 0) {
        if (errno == EINTR)
            return;
        throw sysError("epoll_wait");
    }
    for (int i = 0; i < n; ++i)
        readConn(conns_[events[i].data.u64]);
}

bool
Session::allResolved() const
{
    for (const Conn &conn : conns_)
        if (!conn.bye && !conn.closed)
            return false;
    return true;
}

SessionResult
Session::run()
{
    const std::size_t runCount = plan_.runs.size();
    const std::size_t perRun = plan_.runs.front()->perConnection.size();
    runs_.resize(runCount);
    for (std::size_t r = 0; r < runCount; ++r) {
        const RunFrames &frames = *plan_.runs[r];
        RunState &run = runs_[r];
        run.trace = frames.trace;
        run.connections = perRun;
        run.acked.assign(frames.trace->size(), 0);
        for (const ChurnEvent &event : frames.trace->events()) {
            if (event.tick != 0)
                break;
            ++run.initialEvents;
        }
        for (std::size_t c = 0; c < perRun; ++c) {
            Conn conn;
            conn.run = r;
            conn.index = c;
            conn.frames = &frames.perConnection[c];
            conn.limit = conn.frames->size() / kEventFrameBytes;
            conns_.push_back(std::move(conn));
        }
    }
    if (plan_.dropLastEvent) {
        RunState &run = runs_[0];
        const std::size_t last = run.trace->size() - 1;
        --conns_[last % perRun].limit;
        run.acked[last] = 1; // never sent, so never waited for
    }
    result_.acked.assign(runCount, 0);
    result_.summaries.assign(runCount, "");

    server_.sendLine(plan_.obs ? "session obs" : "session");
    std::istringstream ready(server_.readLine(120'000));
    std::string word;
    int port = 0;
    std::int64_t t0 = 0, tDrivers = 0, tBound = 0;
    ready >> word >> port >> t0 >> tDrivers >> tBound;
    if (word != "ready" || port <= 0)
        throw std::runtime_error("bad reply from server process");

    connectAll(static_cast<std::uint16_t>(port));
    for (Conn &conn : conns_) {
        HelloMsg hello;
        hello.clientId = static_cast<std::uint32_t>(&conn - conns_.data());
        hello.subscriptions = conn.index == 0 ? plan_.firstSubscriptions : 0;
        hello.runId = conn.run;
        std::vector<std::uint8_t> payload;
        hello.encode(payload);
        queueFrame(conn, MsgType::Hello, payload);
        flush(conn, 0, nowNs());
    }
    lastProgressNs_ = nowNs();
    while (true) {
        bool all = true;
        for (const Conn &conn : conns_)
            all = all && (conn.helloAcked || conn.closed);
        if (all)
            break;
        pollOnce(0);
        if (nowNs() - lastProgressNs_ > kStallNs)
            throw std::runtime_error("handshake stalled");
    }
    const std::int64_t tAck = nowNs();
    result_.setupS = static_cast<double>(tAck - t0) / 1e9;
    result_.driversMs = static_cast<double>(tDrivers - t0) / 1e6;
    result_.listenMs = static_cast<double>(tBound - tDrivers) / 1e6;
    result_.handshakeMs = static_cast<double>(tAck - tBound) / 1e6;

    if (plan_.loop == Loop::Open)
        for (std::size_t r = 0; r < runCount; ++r)
            runs_[r].nsPerEvent = 1e9 / plan_.ratePerRun[r];
    const CpuTicks ticks0 = readServerCpuTicks();
    started_ = true;
    startNs_ = nowNs();
    lastProgressNs_ = startNs_;
    // A failed run's connections close without Bye; the others keep
    // serving, so the loop runs until every connection resolves.
    // The open loop spins: a sleeping generator would send late and
    // add its own wakeup latency to every Ack. The closed loop sleeps
    // while its window is full; kWindow events of queued work keep the
    // server busy across the generator's wakeup.
    const int waitMs = plan_.loop == Loop::Open ? 0 : 1;
    while (!allResolved()) {
        const std::int64_t now = nowNs();
        for (Conn &conn : conns_) {
            if (conn.closed)
                continue;
            const std::size_t allowed = allowedEvents(conn, now);
            flush(conn, allowed, now);
            maybeFinish(conn);
            flush(conn, allowed, now);
        }
        pollOnce(waitMs);
        if (nowNs() - lastProgressNs_ > kStallNs)
            throw std::runtime_error("session stalled");
    }

    const CpuTicks ticks1 = readServerCpuTicks();
    const std::uint64_t stolen = ticks1.steal - ticks0.steal;
    const std::uint64_t wanted = stolen + ticks1.busy - ticks0.busy;
    result_.stealShare =
        wanted > 0 ? static_cast<double>(stolen) / static_cast<double>(wanted)
                   : 0.0;

    std::int64_t lastSummary = startNs_;
    for (std::size_t r = 0; r < runCount; ++r)
        lastSummary = std::max(lastSummary, runs_[r].lastSummaryNs);
    result_.wallS = static_cast<double>(lastSummary - startNs_) / 1e9;
    for (std::size_t r = 0; r < runCount; ++r) {
        bool agree = true;
        const Conn *first = nullptr;
        for (const Conn &conn : conns_) {
            if (conn.run != r)
                continue;
            result_.acked[r] += conn.acked;
            agree = agree && conn.summaryDone &&
                    (first == nullptr || conn.summary == first->summary);
            if (first == nullptr)
                first = &conn;
        }
        if (agree && first != nullptr)
            result_.summaries[r] = first->summary;
    }

    std::istringstream done(server_.readLine(120'000));
    int served = 0;
    std::int64_t cpuNs = 0;
    long rssKb = 0;
    NetCounters &net = result_.net;
    done >> word >> served >> cpuNs >> rssKb >> net.reads >> net.writes >>
        net.framesIn >> net.framesOut >> net.bytesIn >> net.bytesOut;
    if (word != "done")
        throw std::runtime_error("bad reply from server process");
    result_.served = served == 1;
    result_.serverCpuS = static_cast<double>(cpuNs) / 1e9;
    result_.maxRssMb = static_cast<double>(rssKb) / 1024.0;
    return result_;
}

} // namespace

SessionResult
runSession(ServerProcess &server, const SessionPlan &plan)
{
    Session session(server, plan);
    return session.run();
}

} // namespace perfbench
