/**
 * @file
 * Agent preferences over coalitions, extending PreferenceProfile
 * beyond pairs.
 *
 * Agents only ever observe pairwise (believed) penalties, so the
 * believed cost of a coalition is the additive extension: an agent
 * charges a candidate coalition the sum of its pairwise believed
 * disutilities against every co-member. For a two-member coalition
 * this is exactly the pairwise disutility, so coalition preferences
 * restricted to pairs reproduce the PreferenceProfile ranking the
 * stable matchers consume — the profile is kept and exposed for the
 * G=2 path. The quality of the additive approximation against the
 * model's true groupPenalty is part of what bench_coalition measures.
 */

#ifndef COOPER_COALITION_PREFS_HH
#define COOPER_COALITION_PREFS_HH

#include <span>
#include <vector>

#include "matching/disutility.hh"
#include "matching/preferences.hh"

namespace cooper {

/**
 * Believed-cost oracle over coalitions, built on a pairwise
 * DisutilityTable (which must outlive this object). Construction
 * ranks every agent's candidates once; scans then only read.
 */
class CoalitionPreferences
{
  public:
    /** @param believed Pairwise believed disutilities, n x n. */
    explicit CoalitionPreferences(const DisutilityTable &believed);

    std::size_t agents() const { return believed_->agents(); }

    /** Believed cost to `self` of sharing a CMP with `members`: its
     *  pairwise entries summed in list order, skipping `self`, so a
     *  whole coalition may be passed (zero when no one else; the
     *  pairwise entry for one co-member). */
    double believedPenalty(AgentId self,
                           std::span<const AgentId> members) const;

    /** Does `self` strictly prefer coalition co-members `a` over `b`? */
    bool prefers(AgentId self, std::span<const AgentId> a,
                 std::span<const AgentId> b) const
    {
        return believedPenalty(self, a) < believedPenalty(self, b);
    }

    /**
     * `self`'s candidate co-runners ascending by pairwise believed
     * disutility (id breaks exact ties). The blocking-coalition scan
     * grows candidate coalitions along this list.
     */
    const std::vector<AgentId> &rankedCandidates(AgentId self) const
    {
        return profile_.list(self);
    }

    /** Pairwise restriction as the matchers' PreferenceProfile. */
    const PreferenceProfile &pairProfile() const { return profile_; }

    /**
     * Sound lower bound on the believed cost of any coalition of up
     * to max_size members containing `self`: the additive sum of
     * k <= max_size - 1 row entries is at least rowMin when rowMin is
     * non-negative, and at least (max_size - 1) * rowMin when noisy
     * measurements pushed it below zero.
     */
    double bestPossiblePenalty(AgentId self, std::size_t max_size) const;

  private:
    const DisutilityTable *believed_;
    PreferenceProfile profile_;
};

} // namespace cooper

#endif // COOPER_COALITION_PREFS_HH
