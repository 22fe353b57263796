/**
 * @file
 * Memoized pairwise-disutility table.
 *
 * Every phase of an epoch — preference construction, stable marriage,
 * roommates completion, blocking-pair scans, agent assessment — asks
 * the same d(agent, candidate) questions, and the oracles behind them
 * (believed-penalty lookups plus the tie-breaking jitter hash, or a
 * prediction-backed mix) are pure within an epoch. Evaluating the
 * oracle once per ordered pair into a flat row-major table turns every
 * later query into one cache-friendly load and removes the
 * std::function indirection from the O(n^2) inner loops.
 *
 * Ownership and invalidation: the table snapshots the oracle at
 * construction. It is built per epoch, after the profiler refresh and
 * the predictor fill produce that epoch's believed penalties, and
 * must be rebuilt whenever re-profiling or a matching change alters
 * what the oracle would answer (the framework rebuilds its assessment
 * table after the matching is fixed for exactly that reason). Helpers
 * that take a DisutilityFn keep working — fn() adapts a table back to
 * the functional interface — but the table must outlive any fn() it
 * hands out.
 */

#ifndef COOPER_MATCHING_DISUTILITY_HH
#define COOPER_MATCHING_DISUTILITY_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "matching/matching.hh"

namespace cooper {

/** Flat row-major memo of d(agent, candidate). */
class DisutilityTable
{
  public:
    /** Writes agent a's candidates() disutilities to `row`; one call
     *  per row instead of one oracle call per cell. */
    using RowFill = std::function<void(AgentId a, double *row)>;

    DisutilityTable() = default;

    /**
     * Fill every row with `fill`.
     *
     * @param agents Number of agents (rows).
     * @param candidates Number of candidates (columns).
     * @param fill Row writer; must be safe to call concurrently on
     *        distinct rows when threads != 1.
     * @param threads Worker threads for the fill; 0 = hardware,
     *        1 = serial.
     */
    DisutilityTable(std::size_t agents, std::size_t candidates,
                    const RowFill &fill, std::size_t threads = 1);

    /** Evaluate the oracle `fn` for every (agent, candidate) pair;
     *  `fn` must be safe to call concurrently when threads != 1. */
    DisutilityTable(std::size_t agents, std::size_t candidates,
                    const DisutilityFn &fn, std::size_t threads = 1);

    std::size_t agents() const { return agents_; }
    std::size_t candidates() const { return candidates_; }
    bool empty() const { return data_.empty(); }

    double operator()(AgentId a, AgentId b) const
    {
        return data_[a * candidates_ + b];
    }

    /** Agent a's candidates() disutilities, contiguous. */
    const double *row(AgentId a) const
    {
        return data_.data() + a * candidates_;
    }

    /**
     * Smallest entry in agent a's row (over all candidates, self
     * included). A sound lower bound for "best co-runner a could
     * get", which lets blocking scans skip whole rows.
     */
    double rowMin(AgentId a) const { return rowMin_[a]; }

    /**
     * Re-fill just the listed rows (duplicates fine), refreshing their
     * rowMin bounds; all other rows keep their snapshot. After the
     * call the refreshed rows are exactly what a full rebuild against
     * `fill` would hold, so a caller that lists
     * every row whose answers changed ends with a table bit-identical
     * to a from-scratch build — at O(rows * candidates) cost.
     */
    void refreshRows(const std::vector<AgentId> &rows,
                     const RowFill &fill, std::size_t threads = 1);

    /** Adapter to the functional interface; the table must outlive
     *  the returned closure. */
    DisutilityFn fn() const;

    /** Per-cell form of refreshRows(), as for the constructors. */
    void refreshRows(const std::vector<AgentId> &rows,
                     const DisutilityFn &fn, std::size_t threads = 1);

  private:
    /** The one fill loop: writes rows[k] (row k when `rows` is null)
     *  for k < count, each in exactly one iteration, with its rowMin. */
    void fillRows(const AgentId *rows, std::size_t count,
                  const RowFill &fill, std::size_t threads);

    std::size_t agents_ = 0;
    std::size_t candidates_ = 0;
    std::vector<double> data_;
    std::vector<double> rowMin_;
};

} // namespace cooper

#endif // COOPER_MATCHING_DISUTILITY_HH
