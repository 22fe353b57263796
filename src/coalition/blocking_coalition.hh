/**
 * @file
 * Blocking-coalition detection: exhaustive enumeration with pruning.
 *
 * A coalition S (2 <= |S| <= G) blocks a structure when every member
 * strictly gains by abandoning its current coalition and forming S —
 * the n-way generalization of a blocking pair, with the same alpha
 * semantics as blocking.cc (alpha = 0 demands strict mutual
 * improvement; alpha > 0 demands at least alpha from every member).
 *
 * Exhaustive enumeration is O(n^G); the scan bounds it two ways,
 * mirroring blocking.cc's mode-templated skeleton:
 *
 *  - *Anchor dedup.* Each candidate coalition is enumerated exactly
 *    once from its minimum member (the anchor), growing along the
 *    anchor's preference-ranked candidate list, so the G=2 scan is
 *    exactly the pairwise blocking scan.
 *  - *Row-bound pruning.* An anchor whose best conceivable coalition
 *    (CoalitionPreferences::bestPossiblePenalty) cannot clear alpha is
 *    skipped whole, the analogue of blocking.cc's TableRowBound.
 *
 * Like the pairwise scans, only agents currently inside a coalition
 * participate: an agent running alone pays nothing and cannot be
 * improved upon. One pass yields both the count and the best
 * coalition; it parallelizes over anchors with chunk-order reduction,
 * so results are bit-identical at any thread count.
 */

#ifndef COOPER_COALITION_BLOCKING_COALITION_HH
#define COOPER_COALITION_BLOCKING_COALITION_HH

#include <cstddef>
#include <optional>
#include <vector>

#include "coalition/prefs.hh"
#include "coalition/structure.hh"

namespace cooper {

/** One coalition every member wants to deviate into. */
struct BlockingCoalition
{
    /** Members ascending; front() is the anchor. */
    std::vector<AgentId> members;

    /** Worst member's believed gain from deviating. */
    double minGain = 0.0;
};

/** Bounds and thresholds for one scan. */
struct CoalitionScanConfig
{
    /** Largest coalition considered (G >= 2). */
    std::size_t maxSize = 2;

    /** Minimum per-member gain (see blocking.cc semantics). */
    double alpha = 0.0;

    /** Worker threads; 0 = hardware, 1 = serial. */
    std::size_t threads = 1;
};

/** What one scan found. */
struct BlockingScan
{
    /** Blocking coalitions in the structure. */
    std::size_t count = 0;

    /** Largest-minimum-gain blocking coalition (ties: lexicographically
     *  smallest member list), the formation loop's deviation pick;
     *  empty exactly when count is 0. */
    std::optional<BlockingCoalition> best;
};

/** Count the blocking coalitions and pick the best, in one pass. */
BlockingScan
scanBlockingCoalitions(const CoalitionStructure &structure,
                       const CoalitionPreferences &prefs,
                       const CoalitionScanConfig &config);

} // namespace cooper

#endif // COOPER_COALITION_BLOCKING_COALITION_HH
