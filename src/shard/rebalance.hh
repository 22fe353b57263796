/**
 * @file
 * Cross-shard rebalancing under the egalitarian objective.
 *
 * Sharding buys throughput at a price: a job can be stuck in a shard
 * where every co-runner hurts it, while a friendlier partner runs two
 * shards away. Following the side-effects colocation model of Pascual
 * & Rzadca, the rebalancer optimizes the *egalitarian* objective —
 * the predicted penalty of the worst-off agent across the whole fleet
 * — rather than the utilitarian sum: each epoch it migrates the
 * worst-off jobs out of their shard, under a migration budget, and
 * only when the move strictly lowers the fleet-wide worst-off cost.
 *
 * The planner is pure and deterministic: it sees per-shard population
 * views plus the merged probe profiles and returns a move list. It
 * never touches a driver, so its properties (budget respected, the
 * objective monotone non-increasing across passes) are directly
 * testable.
 */

#ifndef COOPER_SHARD_REBALANCE_HH
#define COOPER_SHARD_REBALANCE_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "cf/sparse_matrix.hh"
#include "online/state.hh"

namespace cooper {

/** One shard's population as the rebalancer sees it. */
struct ShardView
{
    /** Live jobs in admission order. */
    std::vector<LiveJob> live;

    /** Uid-level pairs, first < second, ascending. */
    std::vector<std::pair<JobUid, JobUid>> pairs;

    /** Admission offers this shard accepts before backpressure;
     *  migrating more jobs in than this would lose them. */
    std::size_t admissionRoom = 0;
};

/** One planned cross-shard migration. */
struct MigrationMove
{
    JobUid uid = 0;
    std::size_t fromShard = 0;
    std::size_t toShard = 0;

    /** Egalitarian objective entering / leaving this pass. */
    double objectiveBefore = 0.0;
    double objectiveAfter = 0.0;
};

/** What one plan() call decided. */
struct RebalanceOutcome
{
    std::vector<MigrationMove> moves;

    /** Fleet-wide worst-off cost before any move. */
    double objectiveBefore = 0.0;

    /** Fleet-wide worst-off cost after all moves. */
    double objectiveAfter = 0.0;

    /** Shard holding the worst-off job after the last move. */
    std::size_t worstShard = 0;
};

/**
 * Greedy egalitarian planner.
 *
 * Each pass finds the worst-off matched job in the fleet (ties break
 * toward the lowest shard index, then the earliest live slot), prices
 * its relocation into every other shard with admission room, and
 * applies the best strictly-improving move. It stops at the migration
 * budget or when no move improves the objective — so the objective is
 * monotone non-increasing across passes by construction.
 *
 * Costs are predictions, not measurements: a matched job's cost is
 * the larger directed penalty of its pair under the merged profiles
 * (unknown cells fall back to the profile mean), and a candidate
 * shard's cost estimate is the friendliest co-runner it currently
 * hosts (an empty shard estimates zero). Migrants re-enter admission
 * unmatched, so the estimate only steers the choice; the target
 * shard's own policy decides the actual pairing next epoch.
 *
 * The plan runs on flat per-shard arrays: every job's cost is
 * computed once and each shard keeps its worst-off slot, so a pass
 * costs O(K + N) for K shards and N jobs (the targets' entry costs),
 * and a move rescans only its source and target (DESIGN.md §12).
 */
class Rebalancer
{
  public:
    /** @param budget Moves allowed per plan() call; 0 disables. */
    explicit Rebalancer(std::size_t budget) : budget_(budget) {}

    std::size_t budget() const { return budget_; }

    RebalanceOutcome plan(const std::vector<ShardView> &shards,
                          const SparseMatrix &profiles) const;

  private:
    std::size_t budget_;
};

/**
 * Merge per-shard profile matrices into one fleet view: each cell is
 * the mean of the shards that know it. All matrices must share one
 * shape. Deterministic — shards contribute in index order.
 */
SparseMatrix
mergeProfiles(const std::vector<const SparseMatrix *> &profiles);

} // namespace cooper

#endif // COOPER_SHARD_REBALANCE_HH
