/**
 * @file
 * Checkpointable state of the online colocation service.
 *
 * Everything the driver needs to resume a run is here: the virtual
 * clock, the live population with its uid-level matching, the
 * admission queue, the lifetime counts, and the warm-start profile
 * matrix. Nothing else is required because all randomness is derived
 * from (seed, epoch, uid) substreams — no generator ever advances
 * across epochs — and pending trace events are reconstructed from the
 * trace itself via ChurnTrace::suffix(clockTick).
 */

#ifndef COOPER_ONLINE_STATE_HH
#define COOPER_ONLINE_STATE_HH

#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "cf/sparse_matrix.hh"
#include "fault/plan.hh"
#include "fault/quarantine.hh"
#include "online/admission.hh"
#include "online/events.hh"

namespace cooper {

/**
 * The additive counts of the online service. The driver keeps one
 * record per epoch (OnlineEpochStats derives from it), adds each
 * committed record to its lifetime totals, checkpoints those totals
 * whole, and publishes every count as the metric named in
 * kOnlineCountFields. A new count is one member plus one table row.
 */
struct OnlineCounts
{
    std::size_t arrivals = 0;
    std::size_t departures = 0;
    std::size_t admitted = 0;

    /** Probe colocations measured (admissions + refresh). */
    std::size_t probes = 0;

    /** Running jobs whose co-runner changed. */
    std::size_t migrations = 0;

    /** Kept pairs broken under the migration budget; in coalition
     *  mode, carried coalitions that did not survive intact. */
    std::size_t pairsBroken = 0;

    /** Full re-matches: 0 or 1 in an epoch's record. */
    std::size_t fullRematch = 0;

    /** Fault-plane counts (all zero with the inert plan). */
    std::size_t faultsInjected = 0;  //!< faults fired
    std::size_t retries = 0;         //!< probe retry attempts
    std::size_t crashes = 0;         //!< nodes crashed (victims)
    std::size_t quarantined = 0;     //!< jobs parked
    std::size_t quarantineReleased = 0;
    std::size_t abandoned = 0;       //!< jobs given up on for good
    std::size_t cfFallbacks = 0;     //!< cells skipped on probe budget
    std::size_t checkpointFailures = 0;

    OnlineCounts &operator+=(const OnlineCounts &other);
};

/** One count: the metric it is published as, and its member. */
struct OnlineCountField
{
    const char *metric;
    std::size_t OnlineCounts::*member;
};

/** Every member of OnlineCounts, in declaration order. */
inline constexpr OnlineCountField kOnlineCountFields[] = {
    {"online.arrivals", &OnlineCounts::arrivals},
    {"online.departures", &OnlineCounts::departures},
    {"online.admitted", &OnlineCounts::admitted},
    {"online.probes", &OnlineCounts::probes},
    {"online.migrations", &OnlineCounts::migrations},
    {"online.pairs_broken", &OnlineCounts::pairsBroken},
    {"online.full_rematches", &OnlineCounts::fullRematch},
    {"online.faults_injected", &OnlineCounts::faultsInjected},
    {"online.retries", &OnlineCounts::retries},
    {"online.crashes", &OnlineCounts::crashes},
    {"online.quarantined", &OnlineCounts::quarantined},
    {"online.quarantine_released", &OnlineCounts::quarantineReleased},
    {"online.abandoned", &OnlineCounts::abandoned},
    {"online.cf_fallbacks", &OnlineCounts::cfFallbacks},
    {"online.checkpoint_failures", &OnlineCounts::checkpointFailures},
};
static_assert(sizeof(OnlineCounts) ==
                  std::size(kOnlineCountFields) * sizeof(std::size_t),
              "every OnlineCounts member needs a kOnlineCountFields row");

inline OnlineCounts &
OnlineCounts::operator+=(const OnlineCounts &other)
{
    for (const OnlineCountField &field : kOnlineCountFields)
        this->*field.member += other.*field.member;
    return *this;
}

/** One running job: trace identity plus its catalog type. */
struct LiveJob
{
    JobUid uid = 0;
    JobTypeId type = 0;
};

/**
 * Snapshot of an OnlineDriver between epochs.
 */
struct OnlineState
{
    /** Seed the run was started with; restore refuses a mismatch. */
    std::uint64_t seed = 0;

    /** Epochs completed. */
    std::uint64_t epoch = 0;

    /** Virtual-clock position: every event with tick < clockTick has
     *  been processed. Resume with trace.suffix(clockTick). */
    Tick clockTick = 0;

    /** Running jobs in admission order (agent ids are indices). */
    std::vector<LiveJob> live;

    /** Uid-level matching, first < second, ascending. */
    std::vector<std::pair<JobUid, JobUid>> pairs;

    /**
     * Uid-level coalitions under the coalition policy: each group a
     * set of >= 2 uids sharing one CMP, members ascending, groups
     * ordered by first member. Empty under the pairwise policies
     * (whose colocations live in `pairs`); a uid never appears in
     * both.
     */
    std::vector<std::vector<JobUid>> groups;

    /** Admission queue contents in FIFO order. */
    std::vector<PendingArrival> pending;

    /** Arrivals rejected by backpressure so far. */
    std::size_t rejected = 0;

    /** Deepest the admission queue has been. */
    std::size_t queueHighWater = 0;

    /** Lifetime counts (mirrored into OnlineReport totals). */
    OnlineCounts totals;

    /** Mean true penalty of the most recent epoch's matching. */
    double lastMeanPenalty = 0.0;

    /** Quarantined jobs, ascending by uid. */
    std::vector<QuarantinedJob> quarantine;

    /**
     * Failed-probe rounds per uid for jobs currently *outside* the
     * quarantine table (released back into the admission queue but
     * not yet cleanly re-probed), ascending by uid. Without this a
     * checkpoint taken while a released job waits in the FIFO would
     * forget how close it is to abandonment.
     */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> probeRounds;

    /** The fault plan the run was started with; restore refuses a
     *  mismatch (a checkpoint only replays under its own schedule). */
    FaultPlan faultPlan;

    /** Warm-start profile matrix (type-level measured penalties).
     *  The 1x1 default is a placeholder (SparseMatrix rejects empty
     *  shapes); snapshot() and readOnlineState() always replace it. */
    SparseMatrix ratings{1, 1};
};

} // namespace cooper

#endif // COOPER_ONLINE_STATE_HH
