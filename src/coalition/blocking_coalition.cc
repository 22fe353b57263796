#include "blocking_coalition.hh"

#include <algorithm>

#include "obs/obs.hh"
#include "util/error.hh"
#include "util/thread_pool.hh"

namespace cooper {

namespace {

/** Believed cost each agent pays in its current coalition (zero when
 *  alone). */
std::vector<double>
currentPenalties(const CoalitionStructure &structure,
                 const CoalitionPreferences &prefs, std::size_t threads)
{
    const std::size_t n = structure.agents();
    std::vector<double> current(n, 0.0);
    parallelFor(0, n, threads, [&](std::size_t a) {
        const std::size_t g = structure.coalitionOf(a);
        if (g != kNoCoalition)
            current[a] =
                prefs.believedPenalty(a, structure.coalitions()[g]);
    });
    return current;
}

/** Does the worst member's gain clear the alpha threshold? */
inline bool
clears(double min_gain, double alpha)
{
    return alpha > 0.0 ? min_gain >= alpha : min_gain > 0.0;
}

void
checkConfig(const CoalitionScanConfig &config)
{
    fatalIf(config.maxSize < 2,
            "blocking-coalition scan: maxSize must be >= 2, got ",
            config.maxSize);
    fatalIf(config.alpha < 0.0,
            "blocking-coalition scan: negative alpha ", config.alpha);
}

/** One anchor chunk's tally and best coalition, plus scratch buffers
 *  reused across its anchors. */
struct Part
{
    std::size_t found = 0;
    std::size_t evaluated = 0;

    // A flagged value instead of std::optional: gcc 12 reports
    // spurious maybe-uninitialized warnings on moving an optional's
    // payload through parallelReduce's join.
    BlockingCoalition best;
    bool hasBest = false;

    std::vector<AgentId> candidates, chosen, members;

    /** Larger minimum gain first, then the lexicographically smaller
     *  member list. */
    bool beats(double min_gain, const std::vector<AgentId> &coalition)
        const
    {
        if (!hasBest)
            return true;
        if (min_gain != best.minGain)
            return min_gain > best.minGain;
        return coalition < best.members;
    }

    void join(Part &&other)
    {
        found += other.found;
        evaluated += other.evaluated;
        if (other.hasBest && beats(other.best.minGain, other.best.members)) {
            best = std::move(other.best);
            hasBest = true;
        }
    }
};

/**
 * Enumerate candidate coalitions anchored at `anchor` in preference
 * order, tallying each blocking one into `part`.
 */
void
scanAnchor(AgentId anchor, const CoalitionStructure &structure,
           const CoalitionPreferences &prefs,
           const CoalitionScanConfig &config,
           const std::vector<double> &current, Part &part)
{
    // Anchor dedup: only co-members above the anchor, so every
    // coalition is seen exactly once, from its minimum member.
    std::vector<AgentId> &candidates = part.candidates;
    candidates.clear();
    for (AgentId j : prefs.rankedCandidates(anchor))
        if (j > anchor && structure.coalitionOf(j) != kNoCoalition)
            candidates.push_back(j);

    std::vector<AgentId> &chosen = part.chosen;
    std::vector<AgentId> &members = part.members;
    chosen.clear();

    // Depth-first subset growth along the ranked candidate list; each
    // node is one candidate coalition {anchor} + chosen.
    auto grow = [&](auto &&self, std::size_t next) -> void {
        if (!chosen.empty()) {
            ++part.evaluated;
            members.assign(1, anchor);
            members.insert(members.end(), chosen.begin(),
                           chosen.end());
            std::sort(members.begin(), members.end());

            double min_gain = 0.0;
            for (std::size_t i = 0; i < members.size(); ++i) {
                const double gain =
                    current[members[i]] -
                    prefs.believedPenalty(members[i], members);
                if (i == 0 || gain < min_gain)
                    min_gain = gain;
            }
            if (clears(min_gain, config.alpha)) {
                ++part.found;
                if (part.beats(min_gain, members)) {
                    part.best.members = members;
                    part.best.minGain = min_gain;
                    part.hasBest = true;
                }
            }
        }
        if (chosen.size() + 1 >= config.maxSize)
            return;
        for (std::size_t c = next; c < candidates.size(); ++c) {
            chosen.push_back(candidates[c]);
            self(self, c + 1);
            chosen.pop_back();
        }
    };
    grow(grow, 0);
}

/** Can any coalition of up to maxSize members make the anchor clear
 *  alpha? The analogue of blocking.cc's TableRowBound. */
inline bool
anchorCanBlock(AgentId anchor, double current_a,
               const CoalitionPreferences &prefs,
               const CoalitionScanConfig &config)
{
    return clears(current_a -
                      prefs.bestPossiblePenalty(anchor, config.maxSize),
                  config.alpha);
}

constexpr std::size_t kGrain = 8;

} // namespace

BlockingScan
scanBlockingCoalitions(const CoalitionStructure &structure,
                       const CoalitionPreferences &prefs,
                       const CoalitionScanConfig &config)
{
    checkConfig(config);
    const TraceSpan span("coalition.blocking_scan", "coalition");
    const ScopedTimer timer("coalition.blocking_seconds");
    const std::size_t n = structure.agents();
    const std::vector<double> current =
        currentPenalties(structure, prefs, config.threads);

    Part all = parallelReduce(
        std::size_t(0), n, config.threads, kGrain, Part{},
        [&](std::size_t begin, std::size_t end) {
            Part local;
            for (AgentId a = begin; a < end; ++a)
                if (structure.coalitionOf(a) != kNoCoalition &&
                    anchorCanBlock(a, current[a], prefs, config))
                    scanAnchor(a, structure, prefs, config, current,
                               local);
            return local;
        },
        [](Part &acc, Part &&part) { acc.join(std::move(part)); });

    if (MetricsRegistry *metrics = obsMetrics()) {
        metrics->counter("coalition.blocking_scans").add(1);
        metrics->counter("coalition.blocking_candidates")
            .add(all.evaluated);
        metrics->counter("coalition.blocking_found").add(all.found);
    }
    BlockingScan out;
    out.count = all.found;
    if (all.hasBest)
        out.best = std::move(all.best);
    return out;
}

} // namespace cooper
