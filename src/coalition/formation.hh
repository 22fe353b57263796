/**
 * @file
 * Deterministic greedy core-seeking coalition formation.
 *
 * Forms capacity-capped coalitions (<= G jobs per CMP) from pairwise
 * believed penalties, then drives the structure toward the core by
 * repeatedly applying the best blocking coalition the scan finds —
 * the agent-based core-membership procedure of Vernon-Bido &
 * Collins, specialized to the colocation game:
 *
 *  1. *Seed.* G = 2 seeds with Cooper's adapted stable roommates, so
 *     wherever Irving finds a perfectly stable matching the seed is
 *     already core-stable and the search is a no-op. G >= 3 takes the
 *     better of two cold seeds: a greedy fill (agents arrive in a
 *     substream-keyed random order, spread over ceil(n/G) machines,
 *     each joining the non-full machine that minimizes the additive
 *     believed-cost increase) and the adapted-roommates pairing
 *     packed at equal capacity — so the result never has more
 *     blocking coalitions than the packed pairwise baseline. A
 *     warm-start structure (the online driver's carried coalitions)
 *     replaces the cold seed; leftovers fill greedily the same way.
 *  2. *Core-seeking search.* Each round scans the structure once
 *     for its blocking-coalition count and the largest-minimum-gain
 *     blocking coalition, applies that coalition (members abandon
 *     their coalitions and form it) and then repairs capacity: a
 *     deviation both strands remnants and claims a machine, so
 *     surplus groups are dissolved (smallest first, never the
 *     deviators) and loose agents re-packed until the structure fits
 *     ceil(n/G) machines again. Because the repack perturbs
 *     bystanders' utilities there is no potential function; the
 *     search returns the feasible structure with the fewest blocking
 *     coalitions seen along the way (never worse than the seed). It
 *     stops when the scan finds no blocking coalition, when a round
 *     reproduces a structure this search already visited, or at
 *     maxRounds. The revisit stop is exact: a round draws no
 *     randomness and reads only the structure's exact coalitions()
 *     vector, so a repeat means the search is cycling through
 *     structures whose blocking counts it has already seen, and
 *     running on to maxRounds would return the same result.
 *  3. *Attribution.* Each formed coalition's ground-truth value is
 *     split over its members with the sampled Shapley estimator,
 *     substream-keyed by the coalition's minimum member.
 *
 * Determinism: all randomness comes from Rng::substream splits of the
 * caller's generator (never advanced), scans reduce in chunk order,
 * and ties break lexicographically — results are bit-identical at any
 * thread count.
 */

#ifndef COOPER_COALITION_FORMATION_HH
#define COOPER_COALITION_FORMATION_HH

#include <cstddef>
#include <vector>

#include "coalition/blocking_coalition.hh"
#include "coalition/prefs.hh"
#include "coalition/structure.hh"
#include "matching/disutility.hh"
#include "sim/interference.hh"
#include "util/rng.hh"

namespace cooper {

/** Knobs for one formation run. */
struct FormationConfig
{
    /** Capacity cap G: at most this many jobs share a CMP (2..20). */
    std::size_t groupSize = 2;

    /** Minimum per-member gain a deviation must clear (>= 0). */
    double alpha = 0.0;

    /** Hard cap on core-seeking rounds, for searches that never
     *  revisit a structure. */
    std::size_t maxRounds = 64;

    /** Shapley samples per coalition; 0 skips attribution. */
    std::size_t shapleySamples = 128;

    /** Worker threads; 0 = hardware, 1 = serial. */
    std::size_t threads = 1;
};

/** What one formation run produced. */
struct FormationResult
{
    /** Final structure, canonical form. */
    CoalitionStructure structure;

    /** Core-seeking rounds played (deviations applied), up to the
     *  stop: a round that reproduced a visited structure counts. */
    std::size_t rounds = 0;

    /** No blocking coalition survived the scan at exit. */
    bool coreStable = false;

    /** Blocking coalitions in the seed / final structure. */
    std::size_t blockingBefore = 0;
    std::size_t blockingAfter = 0;

    /** Per-agent believed cost in the final structure. */
    std::vector<double> believedPenalties;

    /** Per-agent ground-truth penalty (model groupPenalty). */
    std::vector<double> truePenalties;

    /** Per-agent sampled-Shapley share of its coalition's true value
     *  (zero when alone; empty when shapleySamples == 0). */
    std::vector<double> shapleyShares;
};

/**
 * Form coalitions over agents 0..types.size()-1.
 *
 * @param types Catalog type of each agent.
 * @param believed Pairwise believed disutilities, n x n.
 * @param model Ground truth for truePenalties and attribution.
 * @param config Formation knobs.
 * @param rng Caller's generator; only substream()'d, never advanced.
 * @param warm_start Carried structure to repair instead of a cold
 *        seed; must be a valid partition with coalitions <= G.
 */
FormationResult
formCoalitions(const std::vector<JobTypeId> &types,
               const DisutilityTable &believed,
               const InterferenceModel &model,
               const FormationConfig &config, const Rng &rng,
               const CoalitionStructure *warm_start = nullptr);

} // namespace cooper

#endif // COOPER_COALITION_FORMATION_HH
