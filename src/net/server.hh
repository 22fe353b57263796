/**
 * @file
 * Non-blocking epoll TCP server for the Cooper service plane.
 *
 * One thread, one epoll set, per-connection read/write buffers. The
 * hot path is the batched drain: each EPOLLIN reads until EAGAIN into
 * the connection buffer, decodes every complete frame in a single
 * zero-copy pass (FrameViews point into the buffer; the undecoded
 * tail is compacted once per drain), and responses are coalesced into
 * writev() batches.
 *
 * One server hosts a table of runs: each run is an independent
 * (trace, seed, config) replay with its own ServicePlane and driver,
 * and a connection binds to one run via the Hello runId. Run
 * lifecycles are isolated — a protocol error, mid-run disconnect, or
 * idle reap kills only the offending run's connections while its
 * neighbors replay on. Flow control bounds each connection's parked
 * out-of-order events (Busy pushback instead of the hard SeqWindow
 * error), and an optional coarse timer wheel reaps idle connections
 * so a stalled tenant cannot wedge the loop.
 *
 * The server owns bytes and connection lifecycle only; ordering,
 * validation, and stepping live in the ServicePlane, which is what
 * keeps every served run byte-identical to its in-process replay.
 */

#ifndef COOPER_NET_SERVER_HH
#define COOPER_NET_SERVER_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/service_plane.hh"

namespace cooper::net {

/** Socket-layer knobs; none of them affect the served decisions. */
struct ServerConfig
{
    std::string host = "127.0.0.1";

    /** Listen port; 0 binds an ephemeral port (see port()). */
    std::uint16_t port = 0;

    /** Per-connection bound on parked out-of-order events before the
     *  server answers Busy instead of growing the reorder buffer.
     *  0 disables the soft bound (the hard SeqWindow stays). */
    std::uint64_t maxPendingPerConn = 4096;

    /** Back-off hint carried in Busy frames, milliseconds. */
    std::uint32_t busyRetryHintMs = 1;

    /** Reap connections silent for this long; 0 disables the timer
     *  wheel (a dead peer then only fails via TCP). */
    std::uint32_t idleTimeoutMs = 0;
};

/**
 * Serves a table of runs over one epoll loop: accept clients, route
 * their frames to the run named in their Hello, broadcast epoch
 * outputs per run, and deliver each run's summary once every one of
 * its clients finishes. Linux-only (epoll); constructing on another
 * platform is fatal.
 */
class EpollServer
{
  public:
    /** Binds and listens immediately; fatal on socket errors. Add at
     *  least one run before runUntilServed(). */
    explicit EpollServer(ServerConfig config);

    /** Single-run convenience: binds and registers `plane` as run 0. */
    EpollServer(ServicePlane &plane, ServerConfig config);

    ~EpollServer();

    EpollServer(const EpollServer &) = delete;
    EpollServer &operator=(const EpollServer &) = delete;

    /**
     * Register one run. `runId` is what clients name in their Hello;
     * registering the same id twice is fatal. The plane inherits the
     * server's per-connection flow-control bound.
     */
    void addRun(std::uint64_t runId, ServicePlane &plane);

    /** The bound port (resolves an ephemeral request). */
    std::uint16_t port() const { return port_; }

    /**
     * Serve until every run resolves: true when all runs completed
     * and every client got its summary; false when any run died to a
     * protocol error, client abort, or idle reap (see lastError() and
     * the per-run accessors — surviving runs still serve to
     * completion).
     */
    bool runUntilServed();

    /** Why runUntilServed() returned false (first failed run). */
    const std::string &lastError() const { return lastError_; }

    /** Did this run complete and deliver its summary? Fatal on an
     *  unknown run id. */
    bool runServed(std::uint64_t runId) const;

    /** The failed run's error ("" when it served). */
    const std::string &runError(std::uint64_t runId) const;

  private:
    /** One replay's lifecycle inside the run table. */
    struct Run
    {
        std::uint64_t id = 0;
        ServicePlane *plane = nullptr;
        std::size_t handshakedEver = 0;
        std::size_t finishedClients = 0;
        bool summaryQueued = false;
        bool aborted = false;
        std::string error;

        bool resolved() const { return summaryQueued || aborted; }
    };

    struct Conn
    {
        int fd = -1;
        std::uint64_t serial = 0; //!< flow-control source token
        std::vector<std::uint8_t> rbuf;
        std::deque<std::vector<std::uint8_t>> wqueue;
        std::size_t wfront = 0; //!< bytes of wqueue.front() written
        bool wantWrite = false; //!< EPOLLOUT currently armed
        bool handshaked = false;
        std::uint64_t runId = 0; //!< valid once handshaked
        std::uint32_t subscriptions = 0;
        bool finishedSent = false; //!< client sent Finished
        bool closeAfterFlush = false;
        std::uint64_t lastActivityMs = 0;
    };

    void acceptReady();
    void readReady(Conn &conn);
    bool drainBatched(Conn &conn);

    /** Decode and dispatch every complete frame in conn.rbuf. Returns
     *  false when the connection must close. */
    bool processBuffered(Conn &conn);
    bool handleFrame(Conn &conn, const FrameView &frame);

    void queueFrame(Conn &conn, MsgType type, std::uint16_t flags,
                    const std::vector<std::uint8_t> &payload);
    void broadcastOutputs(Run &run);
    void sendError(Conn &conn, const PlaneOutcome &outcome);
    void finishRunIfReady(Run &run);
    void queueSummaryAndBye(Run &run);

    void flushWrites(Conn &conn);
    void updateWriteInterest(Conn &conn);
    void closeConn(int fd);

    /** The run a handshaked connection feeds (never null then). */
    Run *connRun(const Conn &conn);

    /** Kill one run: record the error; the main-loop sweep closes
     *  its connections. The rest of the table keeps serving. */
    void abortRun(Run &run, const std::string &why);
    bool allRunsResolved() const;
    bool onAbandonedEof(Conn &conn);

    /** Milliseconds since server construction (timer-wheel clock). */
    std::uint64_t nowMs() const;
    void scheduleIdleCheck(int fd, std::uint64_t deadlineMs);
    void reapIdle(std::uint64_t now);

    ServerConfig config_;

    int listenFd_ = -1;
    int epollFd_ = -1;
    std::uint16_t port_ = 0;

    std::map<std::uint64_t, Run> runs_;
    std::map<int, std::unique_ptr<Conn>> conns_;

    /** Connections a broadcast queued frames on since the last
     *  epoll batch; flushed before the loop waits again. */
    std::set<int> broadcastTouched_;
    std::uint64_t connSerial_ = 0;
    bool started_ = false;
    std::string lastError_;

    /** Coarse timer wheel: slots hold candidate fds; entries are
     *  lazily revalidated against lastActivityMs when their slot
     *  fires, so activity never has to reschedule anything. */
    std::chrono::steady_clock::time_point epoch_;
    std::uint64_t wheelGranularityMs_ = 0;
    std::uint64_t wheelNextSlot_ = 0; //!< next absolute slot to fire
    std::vector<std::vector<int>> wheel_;
};

} // namespace cooper::net

#endif // COOPER_NET_SERVER_HH
