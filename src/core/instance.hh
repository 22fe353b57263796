/**
 * @file
 * A colocation-game instance: a population of agents plus the
 * disutility information the game is played with.
 *
 * Policies act on *believed* disutilities (collaborative-filtering
 * predictions, or ground truth in oracular mode); evaluation uses
 * *true* disutilities. Agents of the same job type share type-level
 * penalties; a tiny deterministic per-agent-pair jitter breaks ties so
 * every agent has strict preferences, which the matching algorithms
 * require.
 */

#ifndef COOPER_CORE_INSTANCE_HH
#define COOPER_CORE_INSTANCE_HH

#include <vector>

#include "matching/disutility.hh"
#include "matching/matching.hh"
#include "matching/preferences.hh"
#include "sim/interference.hh"
#include "workload/catalog.hh"

namespace cooper {

/**
 * Agent population bound to type-level penalty matrices.
 */
class ColocationInstance
{
  public:
    /**
     * @param catalog Job catalog.
     * @param types Agent -> job type.
     * @param truth Type-level ground-truth penalties.
     * @param believed Type-level penalties the policies act on.
     * @param jitter Amplitude of the deterministic tie-breaking
     *        jitter added to every agent-pair disutility.
     */
    ColocationInstance(const Catalog &catalog,
                       std::vector<JobTypeId> types, PenaltyMatrix truth,
                       PenaltyMatrix believed, double jitter = 1e-4);

    /** Oracular instance: policies see the ground truth. */
    static ColocationInstance oracular(const Catalog &catalog,
                                       std::vector<JobTypeId> types,
                                       const InterferenceModel &model);

    const Catalog &catalog() const { return *catalog_; }
    std::size_t agents() const { return types_.size(); }
    const std::vector<JobTypeId> &types() const { return types_; }
    JobTypeId typeOf(AgentId a) const { return types_[a]; }

    /** Ground-truth disutility of agent a colocated with agent b. */
    double trueDisutility(AgentId a, AgentId b) const;

    /** Disutility as believed by the agents (policy input). */
    double believedDisutility(AgentId a, AgentId b) const;

    /** Type-level ground truth (no jitter). */
    const PenaltyMatrix &truth() const { return truth_; }

    /** Type-level believed penalties (no jitter). */
    const PenaltyMatrix &believed() const { return believed_; }

    /** Amplitude of the tie-breaking jitter (sub-instances built from
     *  this one, e.g. by the online repairing policy, reuse it). */
    double jitter() const { return jitter_; }

    /**
     * Full roommates preference profile from believed disutilities.
     */
    PreferenceProfile believedPreferences() const;

    /**
     * Agent a's believed disutilities against every agent, written to
     * `row` (agents() entries): entry b is believedDisutility(a, b),
     * gathered from a's row of the type-level matrix.
     */
    void believedRow(AgentId a, double *row) const;

    /**
     * Memoized believed disutilities over all ordered agent pairs,
     * filled row by row with believedRow(). Valid for as long as this
     * instance's believed penalties are — i.e. for the epoch that
     * built the instance.
     */
    DisutilityTable believedTable(std::size_t threads = 1) const;

    /** Mean true penalty across matched agents. */
    double meanTruePenalty(const Matching &matching) const;

    /** Per-agent true penalties (zero for unmatched agents). */
    std::vector<double> truePenalties(const Matching &matching) const;

  private:
    double jitterFor(AgentId a, AgentId b) const;

    const Catalog *catalog_;
    std::vector<JobTypeId> types_;
    PenaltyMatrix truth_;
    PenaltyMatrix believed_;
    double jitter_;
};

} // namespace cooper

#endif // COOPER_CORE_INSTANCE_HH
