#include <sched.h>
#include <set>
#include <sstream>

#include "bench.hh"
#include "io/serialize.hh"
#include "net/frame.hh"
#include "util/rng.hh"

namespace perfbench {

namespace {

using namespace cooper;

/** `cooper_cli serve`'s defaults, flag by flag. Every knob a workload
 *  does not name keeps these values. */
FrameworkConfig
cliServeDefaults()
{
    FrameworkConfig config;
    config.policy = "SMR";                         // --policy
    config.alpha = 0.02;                           // --alpha
    config.execution.threads = 0;                  // --threads
    OnlineConfig &online = config.execution.online;
    online.epochTicks = 100;                       // --epoch-ticks
    online.admitPerEpoch = 8;                      // --admit
    online.maxQueueDepth = 64;                     // --queue-depth
    online.probesPerArrival = 4;                   // --probes
    online.profileRepeats = 3;                     // --repeats
    online.refreshProbesPerEpoch = 0;              // --refresh
    online.migrationBudget = 8;                    // --budget
    online.fullRematchBlockingPairs = 32;          // --rematch-threshold
    online.incremental = true;                     // --full-predict 0
    online.probeMaxRetries = 3;                    // --probe-retries
    online.probeBudgetPerEpoch = 0;                // --probe-budget
    online.quarantineAfterFailures = 2;            // --quarantine-after
    online.quarantineEpochs = 2;                   // --quarantine-epochs
    online.checkpointEveryEpochs = 0;              // --checkpoint-every
    online.groupSize = 2;                          // --group-size
    online.shards = 1;                             // --shards 0: flat
    online.rebalanceBudgetPerEpoch = 4;            // --rebalance-budget
    return config;
}

std::vector<Workload>
buildWorkloads()
{
    std::vector<Workload> all;

    // wire: a tiny population under long epochs, so per-event
    // transport and reordering are most of the served server's time.
    {
        Workload w;
        w.name = "wire";
        w.config = cliServeDefaults();
        w.config.execution.threads = 1;
        w.config.execution.online.epochTicks = 200;
        w.runs = 1;
        w.connections = 3;
        w.firstSubscriptions = net::kSubscribeAssignments;
        w.churn.initialJobs = 8;
        w.churn.meanInterarrivalTicks = 2.0;
        w.churn.meanLifetimeTicks = 40.0;
        w.churn.openEnded = true;
        w.closedArrivals = 50000;
        w.openArrivals = 5000;
        w.openRate = 25000.0;
        w.closedReps = 36;
        w.openReps = 36;
        all.push_back(std::move(w));
    }

    // groups: 3-way coalition formation over about 15-20 live jobs,
    // nearly all of each epoch's time. Formation cost grows steeply
    // with the population, so the population is held steady: arrivals
    // outrun the profiling capacity, every epoch admits exactly
    // `admit` jobs, and lifetimes shorter than an epoch keep few
    // cohorts alive at once. A free-running population (admission
    // never binding) varied enough between seeds to move throughput
    // and epoch latency by a quarter.
    {
        Workload w;
        w.name = "groups";
        w.config = cliServeDefaults();
        w.config.policy = "coalition";
        w.config.execution.threads = 1;
        OnlineConfig &online = w.config.execution.online;
        online.groupSize = 3;
        online.epochTicks = 50;
        online.admitPerEpoch = 12;
        online.maxQueueDepth = 0;
        w.runs = 1;
        w.connections = 2;
        w.churn.initialJobs = 10;
        w.churn.meanInterarrivalTicks = 2.0;
        w.churn.meanLifetimeTicks = 40.0;
        w.churn.openEnded = true;
        w.closedArrivals = 1500;
        w.openArrivals = 1300;
        w.openRate = 3500.0;
        w.closedReps = 20;
        w.openReps = 16;
        all.push_back(std::move(w));
    }

    // fleet: two sharded runs of about 400 live jobs each on one
    // server, checkpointing beside serving.
    {
        Workload w;
        w.name = "fleet";
        w.config = cliServeDefaults();
        w.config.execution.threads = 1;
        OnlineConfig &online = w.config.execution.online;
        online.shards = 4;
        online.epochTicks = 50;
        online.admitPerEpoch = 64;
        online.maxQueueDepth = 0;
        online.checkpointEveryEpochs = 4;
        w.sharded = true;
        w.runs = 2;
        w.connections = 2;
        w.churn.initialJobs = 400;
        w.churn.meanInterarrivalTicks = 2.0;
        w.churn.meanLifetimeTicks = 800.0;
        w.churn.openEnded = true;
        w.closedArrivals = 2000;
        w.openArrivals = 1450;
        w.openRate = 8000.0;
        w.closedReps = 12;
        w.openReps = 12;
        all.push_back(std::move(w));
    }
    return all;
}

} // namespace

const Workload *
findWorkload(const std::string &name)
{
    static const std::vector<Workload> all = buildWorkloads();
    for (const Workload &w : all)
        if (w.name == name)
            return &w;
    return nullptr;
}

std::string
describe(const Workload &w)
{
    const OnlineConfig &o = w.config.execution.online;
    std::ostringstream os;
    os << "workload=" << w.name << "\n"
       << "driver=" << (w.sharded ? "sharded" : "flat") << "\n"
       << "policy=" << w.config.policy << "\n"
       << "alpha=" << w.config.alpha << "\n"
       << "threads=" << w.config.execution.threads << "\n"
       << "epoch_ticks=" << o.epochTicks << "\n"
       << "admit=" << o.admitPerEpoch << "\n"
       << "queue_depth=" << o.maxQueueDepth << "\n"
       << "probes=" << o.probesPerArrival << "\n"
       << "repeats=" << o.profileRepeats << "\n"
       << "refresh=" << o.refreshProbesPerEpoch << "\n"
       << "budget=" << o.migrationBudget << "\n"
       << "rematch_threshold=" << o.fullRematchBlockingPairs << "\n"
       << "full_predict=" << (o.incremental ? 0 : 1) << "\n"
       << "probe_retries=" << o.probeMaxRetries << "\n"
       << "probe_budget=" << o.probeBudgetPerEpoch << "\n"
       << "quarantine_after=" << o.quarantineAfterFailures << "\n"
       << "quarantine_epochs=" << o.quarantineEpochs << "\n"
       << "checkpoint_every=" << o.checkpointEveryEpochs << "\n"
       << "group_size=" << o.groupSize << "\n"
       << "shards=" << (w.sharded ? o.shards : 0) << "\n"
       << "rebalance_budget=" << o.rebalanceBudgetPerEpoch << "\n"
       << "max_pending=" << kMaxPending << "\n"
       << "runs=" << w.runs << "\n"
       << "connections_per_run=" << w.connections << "\n"
       << "first_connection_subscriptions=" << w.firstSubscriptions
       << "\n"
       << "trace_initial_jobs=" << w.churn.initialJobs << "\n"
       << "trace_mean_gap_ticks=" << w.churn.meanInterarrivalTicks << "\n"
       << "trace_mean_lifetime_ticks=" << w.churn.meanLifetimeTicks
       << "\n"
       << "trace_open_ended=" << (w.churn.openEnded ? 1 : 0) << "\n"
       << "trace_end=remaining jobs depart one tick after the last arrival\n"
       << "closed_arrivals_per_run_at_10s=" << w.closedArrivals << "\n"
       << "open_arrivals_per_run_at_10s=" << w.openArrivals << "\n"
       << "open_rate_events_per_s=" << w.openRate << "\n"
       << "window=" << kWindow << "\n"
       << "closed_reps=" << w.closedReps << "\n"
       << "open_reps=" << w.openReps << "\n";
    return os.str();
}

void
pinProcess(bool generator)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
        CPU_COUNT(&allowed) < 2)
        return;
    int last = -1;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &allowed))
            last = cpu;
    cpu_set_t mine;
    CPU_ZERO(&mine);
    if (generator) {
        CPU_SET(last, &mine);
    } else {
        mine = allowed;
        CPU_CLR(last, &mine);
    }
    sched_setaffinity(0, sizeof(mine), &mine);
}

ChurnTrace
makeTrace(const Workload &workload, const Catalog &catalog,
          std::size_t arrivals, std::uint64_t seed)
{
    ChurnConfig churn = workload.churn;
    churn.arrivals = arrivals;
    Rng rng(seed);
    const ChurnTrace generated = generateChurnTrace(catalog, churn, rng);

    // Jobs still running after the last arrival all leave one tick
    // later, so every replay drains to an empty service. A static
    // population left behind can keep the sharded rebalancer migrating
    // forever (see README).
    std::vector<ChurnEvent> events = generated.events();
    std::set<JobUid> live;
    for (const ChurnEvent &event : events) {
        if (event.kind == EventKind::Arrival)
            live.insert(event.uid);
        else
            live.erase(event.uid);
    }
    for (const JobUid uid : live) {
        ChurnEvent leave;
        leave.tick = generated.lastTick() + 1;
        leave.kind = EventKind::Departure;
        leave.uid = uid;
        events.push_back(leave);
    }
    return ChurnTrace(std::move(events));
}

Service
makeService(const Workload &workload, const Catalog &catalog,
            const InterferenceModel &model, std::uint64_t seed,
            const std::string &checkpointPath)
{
    Service service;
    if (workload.sharded) {
        service.sharded = std::make_unique<ShardedDriver>(
            catalog, model, workload.config, seed);
        if (workload.config.execution.online.checkpointEveryEpochs > 0)
            service.sharded->setCheckpointSink(
                [checkpointPath](const ShardedState &state) {
                    saveShardedState(checkpointPath, state);
                    return true;
                });
        service.plane = std::make_unique<net::ServicePlane>(
            catalog, *service.sharded);
    } else {
        service.flat = std::make_unique<OnlineDriver>(
            catalog, model, workload.config, seed);
        service.plane =
            std::make_unique<net::ServicePlane>(catalog, *service.flat);
    }
    return service;
}

} // namespace perfbench
