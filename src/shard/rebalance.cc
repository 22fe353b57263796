#include "rebalance.hh"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "util/error.hh"

namespace cooper {

namespace {

constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

/**
 * Flat working copy of the fleet the planner moves jobs in.
 *
 * Every job's predicted cost is computed once, when the fleet is
 * built, and each shard keeps its worst-off slot; a move only widows
 * one partner, so it rescans just the source and the target. Slots are
 * never erased: a migrant's source slot is marked gone and the migrant
 * is appended to its target, which leaves the live order (the "earliest
 * live slot" tie rule) exactly as erasing would.
 */
struct Fleet
{
    struct Shard
    {
        std::vector<LiveJob> jobs;
        std::vector<double> cost;         // pair cost; 0 when unmatched
        std::vector<std::size_t> partner; // partner's slot, or kNoSlot
        std::vector<std::uint8_t> gone;   // migrated out by this plan
        std::size_t room = 0;
        double worst = 0.0;               // worst-off cost; 0 when empty
        std::size_t worstSlot = kNoSlot;  // first live slot attaining it;
                                          // kNoSlot iff no job is live

        /** Recompute the worst-off slot (first live slot wins ties). */
        void
        rescan()
        {
            worst = 0.0;
            worstSlot = kNoSlot;
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                if (gone[i])
                    continue;
                if (worstSlot == kNoSlot || cost[i] > worst) {
                    worst = cost[i];
                    worstSlot = i;
                }
            }
        }
    };

    std::vector<Shard> shards;
    std::size_t types = 0;

    /** types x types: a pair hurts both members, so entry (a, b) is
     *  the worse of the two directed estimates from the merged
     *  profiles (unknown cells fall back to their mean). */
    std::vector<double> pairCost;

    double
    pair(JobTypeId a, JobTypeId b) const
    {
        return pairCost[a * types + b];
    }

    /** Fleet-wide egalitarian objective and the shard attaining it. */
    std::pair<double, std::size_t>
    objective() const
    {
        double worst = 0.0;
        std::size_t at = 0;
        for (std::size_t s = 0; s < shards.size(); ++s) {
            if (shards[s].worst > worst) {
                worst = shards[s].worst;
                at = s;
            }
        }
        return {worst, at};
    }

    /** Cheapest predicted co-runner for `type` in `shard`; an empty
     *  shard promises a solo slot (zero). */
    double
    entryCost(const Shard &shard, JobTypeId type) const
    {
        if (shard.worstSlot == kNoSlot)
            return 0.0;
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < shard.jobs.size(); ++i)
            if (!shard.gone[i])
                best = std::min(best, pair(type, shard.jobs[i].type));
        return best;
    }

    /** Worst-off cost of `shard` once `slot` leaves: the departing
     *  job drops out and its partner is widowed (cost 0). */
    static double
    worstWithout(const Shard &shard, std::size_t slot)
    {
        const std::size_t widowed = shard.partner[slot];
        double worst = 0.0;
        for (std::size_t i = 0; i < shard.jobs.size(); ++i) {
            if (shard.gone[i] || i == slot)
                continue;
            worst = std::max(worst, i == widowed ? 0.0 : shard.cost[i]);
        }
        return worst;
    }

    /** Move `slot` of shard `from` to shard `to`, dissolving its pair;
     *  the migrant lands unmatched. */
    void
    move(std::size_t from, std::size_t slot, std::size_t to)
    {
        Shard &src = shards[from];
        const std::size_t widowed = src.partner[slot];
        if (widowed != kNoSlot) {
            src.partner[widowed] = kNoSlot;
            src.cost[widowed] = 0.0;
        }
        src.partner[slot] = kNoSlot;
        src.gone[slot] = 1;

        Shard &dst = shards[to];
        panicIf(dst.room == 0, "Rebalancer: target shard has no room");
        --dst.room;
        dst.jobs.push_back(src.jobs[slot]);
        dst.cost.push_back(0.0);
        dst.partner.push_back(kNoSlot);
        dst.gone.push_back(0);

        src.rescan();
        dst.rescan();
    }
};

Fleet
buildFleet(const std::vector<ShardView> &views,
           const SparseMatrix &profiles)
{
    Fleet fleet;
    const std::size_t types = profiles.rows();
    fatalIf(profiles.cols() != types,
            "Rebalancer: profiles must be type x type, got ", types, "x",
            profiles.cols());
    fleet.types = types;
    const double fallback = profiles.knownCount() > 0
                                ? profiles.knownMean()
                                : 0.0;
    fleet.pairCost.resize(types * types);
    for (std::size_t a = 0; a < types; ++a)
        for (std::size_t b = 0; b < types; ++b)
            fleet.pairCost[a * types + b] =
                std::max(profiles.valueOr(a, b, fallback),
                         profiles.valueOr(b, a, fallback));

    fleet.shards.reserve(views.size());
    std::vector<std::pair<JobUid, std::size_t>> bySlot;
    for (const ShardView &view : views) {
        Fleet::Shard shard;
        const std::size_t n = view.live.size();
        shard.jobs = view.live;
        shard.cost.assign(n, 0.0);
        shard.partner.assign(n, kNoSlot);
        shard.gone.assign(n, 0);
        shard.room = view.admissionRoom;

        // Resolve the uid-level pairs to slots through one sorted
        // (uid, slot) index.
        bySlot.clear();
        for (std::size_t i = 0; i < n; ++i) {
            fatalIf(shard.jobs[i].type >= types, "Rebalancer: job type ",
                    shard.jobs[i].type, " outside the ", types,
                    "-type profiles");
            bySlot.emplace_back(shard.jobs[i].uid, i);
        }
        std::sort(bySlot.begin(), bySlot.end());
        const auto slotOf = [&bySlot](JobUid uid) {
            const auto it = std::lower_bound(
                bySlot.begin(), bySlot.end(),
                std::make_pair(uid, std::size_t{0}));
            return it != bySlot.end() && it->first == uid ? it->second
                                                          : kNoSlot;
        };
        for (const auto &[a, b] : view.pairs) {
            const std::size_t sa = slotOf(a);
            const std::size_t sb = slotOf(b);
            fatalIf(sa == kNoSlot || sb == kNoSlot,
                    "Rebalancer: paired uid not in its shard's live "
                    "set");
            shard.partner[sa] = sb;
            shard.partner[sb] = sa;
        }
        for (std::size_t i = 0; i < n; ++i)
            if (shard.partner[i] != kNoSlot)
                shard.cost[i] =
                    fleet.pair(shard.jobs[i].type,
                               shard.jobs[shard.partner[i]].type);
        shard.rescan();
        fleet.shards.push_back(std::move(shard));
    }
    return fleet;
}

} // namespace

RebalanceOutcome
Rebalancer::plan(const std::vector<ShardView> &shards,
                 const SparseMatrix &profiles) const
{
    fatalIf(shards.empty(), "Rebalancer: no shards");
    Fleet fleet = buildFleet(shards, profiles);

    RebalanceOutcome outcome;
    const auto [phi, worstShard] = fleet.objective();
    outcome.objectiveBefore = phi;
    outcome.objectiveAfter = phi;
    outcome.worstShard = worstShard;

    while (outcome.moves.size() < budget_) {
        const auto [before, source] = fleet.objective();
        if (before <= 0.0)
            break; // nobody is suffering
        const Fleet::Shard &from = fleet.shards[source];
        const std::size_t slot = from.worstSlot;
        panicIf(slot == kNoSlot,
                "Rebalancer: positive objective with no worst job");
        const LiveJob job = from.jobs[slot];

        // Candidate objective for a target t: the source without the
        // victim, the victim's entry estimate at t, and every other
        // shard unchanged. The non-source worsts do not depend on t,
        // so they fold into one precomputed bound.
        const double sourceAfter = Fleet::worstWithout(from, slot);
        double othersWorst = 0.0;
        for (std::size_t s = 0; s < fleet.shards.size(); ++s)
            if (s != source)
                othersWorst = std::max(othersWorst, fleet.shards[s].worst);
        const double floor = std::max(sourceAfter, othersWorst);

        std::size_t target = fleet.shards.size();
        double bestPhi = before;
        for (std::size_t t = 0; t < fleet.shards.size(); ++t) {
            if (t == source || fleet.shards[t].room == 0)
                continue;
            const double candidate = std::max(
                floor, fleet.entryCost(fleet.shards[t], job.type));
            if (candidate < bestPhi) {
                bestPhi = candidate;
                target = t;
            }
        }
        if (target == fleet.shards.size())
            break; // no strictly improving move exists

        fleet.move(source, slot, target);
        MigrationMove moved;
        moved.uid = job.uid;
        moved.fromShard = source;
        moved.toShard = target;
        moved.objectiveBefore = before;
        moved.objectiveAfter = bestPhi;
        outcome.moves.push_back(moved);
    }

    const auto [finalPhi, finalWorst] = fleet.objective();
    outcome.objectiveAfter = finalPhi;
    outcome.worstShard = finalWorst;
    return outcome;
}

SparseMatrix
mergeProfiles(const std::vector<const SparseMatrix *> &profiles)
{
    fatalIf(profiles.empty(), "mergeProfiles: no shards");
    const std::size_t rows = profiles.front()->rows();
    const std::size_t cols = profiles.front()->cols();
    for (const SparseMatrix *matrix : profiles)
        fatalIf(matrix->rows() != rows || matrix->cols() != cols,
                "mergeProfiles: shard profile shapes differ");

    SparseMatrix out(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c) {
            double sum = 0.0;
            std::size_t count = 0;
            for (const SparseMatrix *matrix : profiles)
                if (matrix->known(r, c)) {
                    sum += matrix->at(r, c);
                    ++count;
                }
            if (count > 0)
                out.set(r, c, sum / static_cast<double>(count));
        }
    return out;
}

} // namespace cooper
