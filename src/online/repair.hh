/**
 * @file
 * Incremental re-matching with a migration budget.
 *
 * An online epoch rarely needs to re-pair everyone: departures widow
 * a few agents, arrivals add a few more, and the rest of the matching
 * is still good. The repairing policy re-runs the configured
 * colocation policy (SMR, SR, ...) on just that delta — the free
 * agents plus up to `migrationBudget` kept pairs it deliberately
 * breaks where blocking pressure is worst — and falls back to a full
 * re-match when the kept matching has degraded past a blocking-pair
 * threshold.
 */

#ifndef COOPER_ONLINE_REPAIR_HH
#define COOPER_ONLINE_REPAIR_HH

#include <cstddef>
#include <string>

#include <vector>

#include "core/instance.hh"
#include "matching/blocking_incremental.hh"
#include "matching/disutility.hh"
#include "matching/matching.hh"
#include "util/rng.hh"

namespace cooper {

/** What one repair epoch decided. */
struct RepairOutcome
{
    /** The new matching over the instance's agents. */
    Matching matching;

    /** Local repair was abandoned for a full re-match. */
    bool fullRematch = false;

    /** Blocking pairs of the carried-over matching (believed
     *  disutilities, the policy's view). */
    std::size_t blockingBefore = 0;

    /** Blocking pairs of the repaired matching (same believed view);
     *  what the service actually ships this epoch. */
    std::size_t blockingAfter = 0;

    /** Kept pairs broken under the migration budget. */
    std::size_t pairsBroken = 0;

    /** Agents handed to the delta policy run. */
    std::size_t repairedAgents = 0;
};

/**
 * Budgeted incremental re-matching around a colocation policy.
 */
class RepairingPolicy
{
  public:
    /**
     * @param policy Colocation policy short name (GR, CO, SMP, SMR,
     *        SR, TH) run on the delta (and on full re-matches).
     * @param alpha Minimum mutual gain for a pair to count as
     *        blocking.
     * @param migration_budget Kept pairs breakable per epoch.
     * @param full_rematch_blocking_pairs Blocking-pair count beyond
     *        which local repair is abandoned.
     */
    RepairingPolicy(std::string policy, double alpha,
                    std::size_t migration_budget,
                    std::size_t full_rematch_blocking_pairs);

    /**
     * Repair `previous` for `instance`.
     *
     * `previous` must cover exactly the instance's agents; agents the
     * driver could not carry over (arrivals, widowed partners) are
     * simply unmatched in it.
     *
     * @param rng Random stream for the policy run (the driver hands
     *        an epoch-keyed substream so results replay exactly).
     * @param threads Worker threads for the scans.
     * @param believed Must equal instance.believedTable().
     */
    RepairOutcome repair(const ColocationInstance &instance,
                         const Matching &previous, Rng &rng,
                         std::size_t threads,
                         const DisutilityTable &believed) const;

    /**
     * Incremental-blocking variant: decisions identical to repair(),
     * but blocking pairs come from `bounds` instead of fresh O(n^2)
     * scans (the caller refreshes `believed` instead of rebuilding it).
     *
     * `believed` must equal instance.believedTable(); `dirty_rows`
     * lists the agents whose believed rows changed since `bounds` was
     * last consistent (ignored when `rebuild_bounds` forces a full
     * rebuild — pass true whenever the agent population changed).
     * On return `bounds` reflects the shipped matching against
     * `believed`, ready for the next epoch's update.
     */
    RepairOutcome repair(const ColocationInstance &instance,
                         const Matching &previous, Rng &rng,
                         std::size_t threads,
                         const DisutilityTable &believed,
                         BlockingBounds &bounds,
                         const std::vector<AgentId> &dirty_rows,
                         bool rebuild_bounds) const;

  private:
    /** Shared repair flow; `bounds`, when non-null, must already
     *  reflect (previous, believed) and is kept current. */
    RepairOutcome repairImpl(const ColocationInstance &instance,
                             const Matching &previous, Rng &rng,
                             std::size_t threads,
                             const DisutilityTable &believed,
                             BlockingBounds *bounds) const;

    std::string policy_;
    double alpha_;
    std::size_t migrationBudget_;
    std::size_t fullRematchBlockingPairs_;
};

} // namespace cooper

#endif // COOPER_ONLINE_REPAIR_HH
