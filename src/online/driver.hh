/**
 * @file
 * Event-driven online colocation service.
 *
 * The offline framework plays one epoch over a fixed population; the
 * OnlineDriver replays a churn trace on a virtual clock and runs
 * Cooper continuously. Each epoch it drains the epoch's events
 * (arrivals queue up for admission, departures free their partners),
 * admits up to the profiling capacity, probes admitted jobs against
 * the current population, re-predicts preferences with the
 * warm-started IncrementalPredictor, and repairs the carried-over
 * matching under a migration budget.
 *
 * Determinism contract: a (trace, seed, config) triple fully
 * determines every pairing, penalty, and counter, for any thread
 * count. No wall clock enters the decision path, and all randomness
 * is drawn from Rng::substream keyed by (purpose, epoch or uid) — no
 * generator state survives an epoch, which is also what makes
 * checkpoint/restore exact (see OnlineState).
 *
 * Coalition mode: with config.policy == "coalition" the epoch's
 * repair step is replaced by n-way coalition formation (see
 * src/coalition): carried groups of up to execution.online.groupSize
 * jobs warm-start a core-seeking search over the same believed table
 * the pair policies use. Colocation state then lives in uid-level
 * groups instead of partners; everything else — admission, probing,
 * prediction, faults, checkpoints — is identical.
 *
 * Fault plane: an installed FaultPlan injects probe timeouts, lost or
 * corrupted measurements, node crashes, and checkpoint-write failures
 * on the same substream discipline, so a faulty run is exactly as
 * reproducible as a clean one. The driver degrades instead of
 * failing: probes retry with exponential backoff on the virtual
 * clock, uncharacterizable jobs are quarantined and later re-offered
 * through the admission FIFO, cells past the probe budget fall back
 * to CF prediction, crash evictees re-enter admission, and a failed
 * checkpoint write is counted while the epoch still commits (see
 * DESIGN.md "Fault plane & degradation ladder").
 */

#ifndef COOPER_ONLINE_DRIVER_HH
#define COOPER_ONLINE_DRIVER_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "coalition/structure.hh"
#include "core/framework.hh"
#include "fault/plan.hh"
#include "matching/blocking_incremental.hh"
#include "matching/disutility.hh"
#include "fault/quarantine.hh"
#include "online/admission.hh"
#include "online/events.hh"
#include "online/incremental.hh"
#include "online/repair.hh"
#include "online/state.hh"

namespace cooper {

/** What one online epoch did: its counts plus per-epoch state. */
struct OnlineEpochStats : OnlineCounts
{
    std::uint64_t epoch = 0;

    /** Epoch-boundary tick at which the matching was decided. */
    Tick tick = 0;

    /** Live jobs after this epoch's admissions and departures. */
    std::size_t population = 0;

    /** Admission-queue depth after admitting. */
    std::size_t queueDepth = 0;

    /** Cumulative backpressure rejections up to this epoch. */
    std::size_t rejectedTotal = 0;

    /** Predictor diagnostics (see IncrementalStats). */
    std::size_t dirtyCells = 0;
    std::size_t recomputedPairs = 0;
    bool predictCacheHit = false;
    bool predictIncremental = false;

    /** Repair diagnostics (see RepairOutcome). */
    std::size_t blockingBefore = 0;
    std::size_t blockingAfter = 0;

    /** Mean true penalty over matched agents after repair. */
    double meanPenalty = 0.0;

    /** Quarantine table size after the epoch. */
    std::size_t quarantineSize = 0;
};

/** Everything one run() produced. */
struct OnlineReport
{
    std::string policy;
    std::uint64_t seed = 0;

    /** First epoch this run played (non-zero after a restore). */
    std::uint64_t startEpoch = 0;

    std::vector<OnlineEpochStats> epochs;

    /** Lifetime totals (across restores, not just this run). */
    std::size_t totalArrivals = 0;
    std::size_t totalDepartures = 0;
    std::size_t totalAdmitted = 0;
    std::size_t totalRejected = 0;
    std::size_t totalProbes = 0;
    std::size_t totalMigrations = 0;
    std::size_t totalPairsBroken = 0;
    std::size_t totalFullRematches = 0;

    /** Lifetime fault-plane totals (zero with the inert plan). */
    std::size_t totalFaultsInjected = 0;
    std::size_t totalRetries = 0;
    std::size_t totalQuarantined = 0;
    std::size_t totalQuarantineReleased = 0;
    std::size_t totalAbandoned = 0;
    std::size_t totalCrashes = 0;
    std::size_t totalCfFallbacks = 0;
    std::size_t totalCheckpointFailures = 0;

    /** Final population and uid-level matching. */
    std::size_t finalPopulation = 0;
    std::size_t finalQuarantine = 0;
    double finalMeanPenalty = 0.0;
    std::vector<std::pair<JobUid, JobUid>> finalPairs;

    /** Uid-level coalitions under the coalition policy (members
     *  ascending, groups by first member); empty otherwise. */
    std::vector<std::vector<JobUid>> finalGroups;
};

/**
 * The online service: virtual clock, admission, probing, incremental
 * prediction, budgeted repair.
 */
class OnlineDriver
{
  public:
    /**
     * @param catalog Job catalog (trace types index into it).
     * @param model Ground-truth interference model the probes measure.
     * @param config Framework settings; policy, alpha, noise,
     *        predictor, jitter, and execution.online are honored
     *        (sampleRatio/oracular/machines are offline-only).
     * @param seed Root seed; all substreams derive from it.
     */
    OnlineDriver(const Catalog &catalog, const InterferenceModel &model,
                 FrameworkConfig config, std::uint64_t seed = 1);

    /**
     * Writes one checkpoint; returns false when the write failed (the
     * driver counts the failure and carries on — the last good
     * checkpoint stands). Invoked every checkpointEveryEpochs epochs.
     */
    using CheckpointSink = std::function<bool(const OnlineState &)>;

    const FrameworkConfig &config() const { return config_; }
    std::uint64_t seed() const { return seed_; }

    /**
     * Install a fault-injection plan. Must be called before run() and
     * match the plan of any checkpoint later restored; the default is
     * the inert plan (nothing ever fires).
     */
    void setFaultPlan(FaultPlan plan) { plan_ = std::move(plan); }
    const FaultPlan &faultPlan() const { return plan_; }

    /** Install the periodic checkpoint writer (see CheckpointSink). */
    void setCheckpointSink(CheckpointSink sink)
    {
        sink_ = std::move(sink);
    }

    /** Jobs currently sitting out in quarantine. */
    std::size_t quarantineSize() const { return quarantine_.size(); }

    /** Epochs completed so far. */
    std::uint64_t epoch() const { return epoch_; }

    /** Virtual-clock position: every event with tick < clockTick()
     *  has been processed. */
    Tick clockTick() const;

    /** Current live population in admission order. */
    const std::vector<LiveJob> &live() const { return live_; }

    /**
     * Replay a trace to completion: epochs advance until the trace is
     * drained and the admission queue is empty. On a restored driver,
     * pass `trace.suffix(clockTick())`; a trace starting before the
     * clock is fatal.
     */
    OnlineReport run(const ChurnTrace &trace);

    // -- Stepwise interface. run() is exactly beginReport(), then
    // stepEpoch() until idle(), then finalizeReport(); an external
    // epoch loop (the sharded driver) drives many drivers in lockstep
    // through the same calls, so one shard reproduces run()
    // bit-for-bit.

    /** Report skeleton (policy, seed, start epoch) for a stepwise run. */
    OnlineReport beginReport() const;

    /** Play exactly one epoch against `queue` and append its stats. */
    void stepEpoch(EventQueue &queue, OnlineReport &report);

    /**
     * Nothing left to do: no pending events, an empty admission
     * queue, and an empty quarantine table. Quarantined jobs keep the
     * clock running — they still owe a re-probe round ending in
     * admission or abandonment.
     */
    bool idle(const EventQueue &queue) const;

    /** Fill in the lifetime totals and final-state fields. */
    void finalizeReport(OnlineReport &report) const;

    /** Uid-level pairs, first < second, ascending. */
    std::vector<std::pair<JobUid, JobUid>> pairsSnapshot() const;

    /** Uid-level coalitions in canonical order (members ascending,
     *  groups by first member); empty under the pairwise policies. */
    std::vector<std::vector<JobUid>> groupsSnapshot() const;

    /** Probe measurements accumulated so far (types x types). */
    const SparseMatrix &profileRatings() const
    {
        return predictor_.ratings();
    }

    /** Mean true penalty of the last committed matching. */
    double lastMeanPenalty() const { return lastMeanPenalty_; }

    // -- Cross-shard migration hooks (see src/shard/rebalance.hh).

    /**
     * Remove a live job so it can migrate to another shard: its pair
     * (if any) dissolves, and no departure is counted — the job is
     * moving, not leaving. Nullopt when the uid is not live.
     */
    std::optional<LiveJob> extractLive(JobUid uid);

    /**
     * Queue a migrated-in job at the admission FIFO's front; it is
     * re-probed against this shard's population when admitted. False
     * under backpressure — the job would be lost, so callers must
     * check admissionRoom() before extracting.
     */
    bool acceptMigrant(const LiveJob &job);

    /** Admission offers accepted before backpressure rejects;
     *  SIZE_MAX when the queue is unbounded. */
    std::size_t admissionRoom() const;

    /** Checkpoint the driver between epochs. */
    OnlineState snapshot() const;

    /** Resume from a checkpoint taken with the same seed/config. */
    void restore(const OnlineState &state);

  private:
    /** Remaining measurement attempts this epoch (budget ladder). */
    struct ProbeBudget
    {
        bool bounded = false;
        std::size_t left = 0;

        bool exhausted() const { return bounded && left == 0; }

        void
        spend()
        {
            if (bounded)
                --left;
        }
    };

    /** What probing one admitted arrival produced. */
    struct ProbeRound
    {
        std::size_t probes = 0;      //!< colocations that landed
        std::size_t retries = 0;     //!< retry attempts spent
        std::size_t failedCells = 0; //!< colocations that failed outright
        std::size_t cfFallbacks = 0; //!< cells skipped on budget
        std::size_t faults = 0;      //!< injected fault events
    };

    /** Probe one admitted arrival under the plan and budget. */
    ProbeRound probeArrival(JobUid uid, JobTypeId type,
                            ProbeBudget &budget);

    /** Re-measure known cells to keep profiles fresh. */
    std::size_t refreshProfiles(ProbeBudget &budget);

    /** Release due quarantine entries and inject this epoch's node
     *  crashes; both re-enter through the admission queue's urgent
     *  path. */
    void faultBoundary(OnlineEpochStats &stats);

    /** Periodic checkpoint (cadence, injected write failures); the
     *  attempt's outcome is counted after the snapshot is taken. */
    void maybeCheckpoint(OnlineEpochStats &stats);

    /** Departure bookkeeping; false when the uid is not live (its
     *  arrival was rejected, or predates a resumed suffix). */
    bool departLive(JobUid uid);

    /** Previous matching mapped onto current agent indices. */
    Matching carriedMatching() const;

    /** Running the n-way coalition policy instead of pair repair? */
    bool coalitionMode() const { return config_.policy == "coalition"; }

    /** Drop a uid from its carried coalition; a group reduced to one
     *  member dissolves. No-op when the uid is ungrouped. */
    void ungroup(JobUid uid);

    /** Carried coalitions mapped onto current agent indices. */
    CoalitionStructure carriedStructure() const;

    /** Coalition-mode epoch core: form over the epoch's believed
     *  table, commit groups_, fill stats. */
    void formEpoch(const DisutilityTable &believed, const Rng &rng,
                   OnlineEpochStats &stats);

    /**
     * Bring the cached believed table up to date for incremental
     * blocking (online.incrementalBlocking): diffs the believed matrix
     * and the live-slot sequence against the previous epoch, lists in
     * `dirty` the disutility rows that changed, and refreshes just
     * those rows (or rebuilds the table when a slot moved). Returns
     * true when the population changed, so the pair bounds must be
     * rebuilt rather than updated from `dirty`. Decisions downstream
     * are bit-identical to a fresh table and full scans.
     */
    bool refreshBelievedTable(const ColocationInstance &instance,
                              std::vector<AgentId> &dirty);

    const Catalog *catalog_;
    const InterferenceModel *model_;
    FrameworkConfig config_;
    std::uint64_t seed_;

    /** Root generator; never advanced, only substream()'d. */
    Rng base_;

    IncrementalPredictor predictor_;
    RepairingPolicy repairer_;
    AdmissionQueue admission_;

    FaultPlan plan_;
    QuarantineTable quarantine_;
    CheckpointSink sink_;

    /** Failed-probe rounds per uid for jobs outside the quarantine
     *  table (waiting in the FIFO after a release); see
     *  OnlineState::probeRounds. */
    std::map<JobUid, std::uint64_t> rounds_;

    std::vector<LiveJob> live_;
    std::map<JobUid, JobUid> partner_;

    /** Uid-level coalitions under the coalition policy, canonical
     *  order (see OnlineState::groups); always empty otherwise.
     *  partner_ stays empty in coalition mode — one of the two holds
     *  the colocation state, never both. */
    std::vector<std::vector<JobUid>> groups_;

    /** Incremental-blocking caches (see refreshBelievedTable): the
     *  previous epoch's uid-per-slot sequence and believed matrix
     *  diff into the dirty-row set; the believed table and pair
     *  bounds survive across epochs and refresh row-wise. Cleared by
     *  restore() and population collapse — the next epoch rebuilds. */
    std::vector<JobUid> lastUids_;
    PenaltyMatrix lastBelieved_{0};
    DisutilityTable believedTable_;
    BlockingBounds bounds_;

    std::uint64_t epoch_ = 0;

    /** Lifetime counts: every committed epoch's record, plus each
     *  periodic checkpoint's own outcome (see maybeCheckpoint). */
    OnlineCounts totals_;
    double lastMeanPenalty_ = 0.0;
};

/**
 * Hard-fail validation of the serve-facing policy flags, shared by
 * `cooper_cli serve` and the tests so the CLI cannot drift from the
 * driver's expectations. Raises FatalError when `policy` is not a
 * known name (GR, CO, SMP, SMR, SR, TH, coalition), when the
 * coalition policy's `groupSize` is outside [2, 20], or when the
 * coalition policy is combined with `shards` > 1 (the cross-shard
 * rebalancer is pairs-native; see src/shard/rebalance.cc).
 */
void validateServeOptions(const std::string &policy,
                          std::size_t groupSize, std::size_t shards);

/**
 * Deterministic run summary (schema cooper.online.v3). Contains only
 * decision-path quantities — no timings — so two replays of the same
 * (trace, seed, config, fault plan) emit byte-identical files at any
 * thread count; `cooper_cli serve` relies on this for its replay
 * check. v2 added the fault-plane fields (all zero under the inert
 * plan); v3 adds the final coalition groups (empty under the
 * pairwise policies).
 */
void writeOnlineSummary(std::ostream &os, const OnlineReport &report);

/** File wrapper; raises FatalError on I/O failure. */
void saveOnlineSummary(const std::string &path,
                       const OnlineReport &report);

} // namespace cooper

#endif // COOPER_ONLINE_DRIVER_HH
