#include "formation.hh"

#include <algorithm>
#include <optional>
#include <set>

#include "coalition/value.hh"
#include "game/shapley.hh"
#include "matching/stable_roommates.hh"
#include "obs/obs.hh"
#include "util/error.hh"

namespace cooper {

namespace {

// Substream purposes, disjoint from the online driver's 0xA* and the
// shard layer's 0xD* tags.
constexpr std::uint64_t kSeedStream = 0xC1;
constexpr std::uint64_t kShapleyStream = 0xC2;

/**
 * Greedy capacity fill: unassigned agents, in `order`, spread over up
 * to `machines` CMPs and then join the non-full machine minimizing
 * the additive believed-cost increase (both directions, since joining
 * hurts the incumbents too). Ties break toward the lowest machine.
 */
void
greedyFill(CoalitionStructure &structure,
           const std::vector<AgentId> &order,
           const DisutilityTable &believed, std::size_t group_size,
           std::size_t machines)
{
    // Machines under construction: existing coalitions first, then
    // one per already-alone agent; singles merge by joining them.
    std::vector<std::vector<AgentId>> slots;
    for (const auto &group : structure.coalitions())
        if (!group.empty())
            slots.push_back(group);

    for (AgentId a : order) {
        double best = 0.0;
        std::size_t best_slot = slots.size();
        for (std::size_t s = 0; s < slots.size(); ++s) {
            if (slots[s].size() >= group_size)
                continue;
            double delta = 0.0;
            for (AgentId m : slots[s])
                delta += believed(a, m) + believed(m, a);
            if (best_slot == slots.size() || delta < best) {
                best = delta;
                best_slot = s;
            }
        }
        // Open a new machine while capacity allows and nothing
        // cheaper is on offer (an empty machine costs nothing).
        if (slots.size() < machines &&
            (best_slot == slots.size() || best > 0.0)) {
            slots.push_back({a});
            continue;
        }
        panicIf(best_slot == slots.size(),
                "formCoalitions: no machine has a free slot");
        slots[best_slot].push_back(a);
    }

    CoalitionStructure filled(structure.agents());
    for (auto &slot : slots)
        if (slot.size() >= 2)
            filled.addCoalition(std::move(slot));
    filled.canonicalize();
    structure = std::move(filled);
}

/** Agents not yet in any coalition, ascending. */
std::vector<AgentId>
unassignedAgents(const CoalitionStructure &structure)
{
    std::vector<AgentId> out;
    for (AgentId a = 0; a < structure.agents(); ++a)
        if (structure.coalitionOf(a) == kNoCoalition)
            out.push_back(a);
    return out;
}

/** Listed coalitions that still have members. */
std::size_t
occupiedCoalitions(const CoalitionStructure &structure)
{
    std::size_t count = 0;
    for (const auto &group : structure.coalitions())
        if (!group.empty())
            ++count;
    return count;
}

/**
 * Capacity repair after a deviation. A deviation both strands
 * remnants (each of which would occupy a CMP of its own — with
 * non-negative penalties a fully fragmented structure is trivially
 * core-stable) and claims a machine for the new coalition, so the
 * structure can exceed the ceil(n/G) budget. Repair dissolves the
 * smallest coalition (ties toward the lowest first member), never the
 * protected just-deviated one, until the listed coalitions fit the
 * budget, then greedily re-packs every loose agent (ascending, so no
 * RNG and no thread dependence). Total capacity machines*G >= n
 * guarantees the fill succeeds once the coalition count fits.
 */
void
repairCapacity(CoalitionStructure &structure,
               const DisutilityTable &believed, std::size_t group_size,
               std::size_t machines, std::size_t keep)
{
    while (occupiedCoalitions(structure) > machines) {
        const auto &groups = structure.coalitions();
        std::size_t victim = groups.size();
        for (std::size_t c = 0; c < groups.size(); ++c) {
            if (groups[c].empty() || c == keep)
                continue;
            if (victim == groups.size() ||
                groups[c].size() < groups[victim].size() ||
                (groups[c].size() == groups[victim].size() &&
                 groups[c].front() < groups[victim].front()))
                victim = c;
        }
        panicIf(victim == groups.size(),
                "repairCapacity: nothing left to dissolve");
        const std::vector<AgentId> members = groups[victim];
        for (const AgentId m : members)
            structure.removeAgent(m);
    }
    const std::vector<AgentId> loose = unassignedAgents(structure);
    if (!loose.empty())
        greedyFill(structure, loose, believed, group_size, machines);
}

} // namespace

FormationResult
formCoalitions(const std::vector<JobTypeId> &types,
               const DisutilityTable &believed,
               const InterferenceModel &model,
               const FormationConfig &config, const Rng &rng,
               const CoalitionStructure *warm_start)
{
    const TraceSpan span("coalition.formation", "coalition");
    const ScopedTimer timer("coalition.formation_seconds");
    const std::size_t n = types.size();
    const std::size_t G = config.groupSize;
    fatalIf(G < 2 || G > 20,
            "formCoalitions: group size must be in [2, 20], got ", G);
    fatalIf(believed.agents() != n || believed.candidates() != n,
            "formCoalitions: believed table is ", believed.agents(),
            "x", believed.candidates(), ", population is ", n);
    for (JobTypeId t : types)
        fatalIf(t >= model.catalog().size(),
                "formCoalitions: unknown job type ", t);

    const std::size_t machines = n == 0 ? 0 : (n + G - 1) / G;
    const CoalitionPreferences prefs(believed);

    FormationResult result;
    result.structure = CoalitionStructure(n);

    // 1. Seed.
    if (warm_start != nullptr) {
        fatalIf(warm_start->agents() != n,
                "formCoalitions: warm start covers ",
                warm_start->agents(), " agents, population is ", n);
        fatalIf(!warm_start->valid(G),
                "formCoalitions: warm start is not a valid partition "
                "into coalitions of <= ",
                G);
        result.structure = *warm_start;
        result.structure.canonicalize();
    }
    const CoalitionScanConfig scan{G, config.alpha, config.threads};
    // The chosen cold seed's comparison scan, reused as the first
    // round's scan unless a capacity repair runs in between.
    std::optional<BlockingScan> seed_scan;
    const std::vector<AgentId> unassigned =
        unassignedAgents(result.structure);
    if (unassigned.size() >= 2) {
        if (G == 2 && unassigned.size() == n) {
            // Pairs seed from the adapted stable matcher: a perfectly
            // stable roommates solution has no blocking pair, so the
            // core search below terminates immediately on it.
            const RoommatesResult sr =
                adaptedRoommates(prefs.pairProfile(), believed);
            result.structure =
                CoalitionStructure::fromMatching(sr.matching);
        } else if (unassigned.size() == n) {
            // Cold n-way seed: the better (fewer blocking coalitions)
            // of the shuffled greedy fill and the adapted-roommates
            // pairing packed at equal capacity. Seeding with packed
            // pairs as a candidate makes the formation dominate the
            // packed pairwise baseline by construction — the search
            // below only ever improves on the seed.
            std::vector<AgentId> order = unassigned;
            Rng seed_rng = rng.substream(kSeedStream);
            seed_rng.shuffle(order);
            CoalitionStructure greedy(n);
            greedyFill(greedy, order, believed, G, machines);
            const RoommatesResult sr =
                adaptedRoommates(prefs.pairProfile(), believed);
            CoalitionStructure packed =
                CoalitionStructure::packMatching(sr.matching, G);
            BlockingScan greedy_scan =
                scanBlockingCoalitions(greedy, prefs, scan);
            BlockingScan packed_scan =
                scanBlockingCoalitions(packed, prefs, scan);
            const bool use_packed =
                packed_scan.count <= greedy_scan.count;
            result.structure =
                use_packed ? std::move(packed) : std::move(greedy);
            seed_scan =
                use_packed ? std::move(packed_scan) : std::move(greedy_scan);
        } else {
            std::vector<AgentId> order = unassigned;
            Rng seed_rng = rng.substream(kSeedStream);
            seed_rng.shuffle(order);
            greedyFill(result.structure, order, believed, G, machines);
        }
    }
    // A warm start can arrive over budget — groups formed under a
    // larger population shrink to pairs as jobs depart, leaving more
    // groups than ceil(n/G) machines — or strand agents outside any
    // group (machines() counts those singletons, the occupied-
    // coalition count does not). Repair before scanning: dissolve
    // surplus groups if any, then pack every loose agent.
    if (result.structure.machines() > machines) {
        repairCapacity(result.structure, believed, G, machines,
                       result.structure.coalitions().size());
        seed_scan.reset();
    }

    // 2. Core-seeking search. Each round applies the best myopic
    // deviation and then repairs capacity, so every structure the
    // search visits fits the ceil(n/G) machine budget; because the
    // repack perturbs the remnants' utilities there is no potential
    // function, so the search keeps the best (fewest blocking
    // coalitions) feasible structure seen and returns that.
    //
    // A round is a pure function of the exact coalitions() vector
    // (slot order and empty slots included: greedyFill breaks ties by
    // slot order), so a round that reproduces an already-visited
    // vector has entered a cycle whose every blocking count is
    // already folded into best_left. Stopping there returns exactly
    // what running on to maxRounds would (DESIGN.md section 15).
    BlockingScan current =
        seed_scan ? std::move(*seed_scan)
                  : scanBlockingCoalitions(result.structure, prefs, scan);
    result.blockingBefore = current.count;
    CoalitionStructure best_seen = result.structure;
    std::size_t best_left = current.count;
    std::set<std::vector<std::vector<AgentId>>> visited{
        result.structure.coalitions()};
    const char *stop = "coalition.stop_core";
    while (current.count > 0) {
        if (result.rounds == config.maxRounds) {
            stop = "coalition.stop_round_cap";
            break;
        }
        const std::vector<AgentId> members =
            std::move(current.best->members);
        result.structure.deviate(members);
        repairCapacity(result.structure, believed, G, machines,
                       result.structure.coalitionOf(members.front()));
        ++result.rounds;
        if (!visited.insert(result.structure.coalitions()).second) {
            stop = "coalition.stop_revisit";
            break;
        }
        current = scanBlockingCoalitions(result.structure, prefs, scan);
        if (current.count < best_left) {
            best_seen = result.structure;
            best_left = current.count;
        }
    }
    result.structure = std::move(best_seen);
    result.structure.canonicalize();
    result.blockingAfter = best_left;
    result.coreStable = best_left == 0;
    panicIf(result.structure.machines() > machines,
            "formCoalitions: structure exceeds the machine budget"
            " (machines()=", result.structure.machines(),
            " budget=", machines, " occupied=",
            occupiedCoalitions(result.structure), " n=", n,
            " G=", G, ")");

    // 3. Penalties and sampled-Shapley attribution.
    result.believedPenalties.assign(n, 0.0);
    result.truePenalties.assign(n, 0.0);
    if (config.shapleySamples > 0)
        result.shapleyShares.assign(n, 0.0);
    for (const auto &group : result.structure.coalitions()) {
        std::vector<JobTypeId> member_types;
        member_types.reserve(group.size());
        for (AgentId m : group)
            member_types.push_back(types[m]);
        const std::vector<double> true_members =
            coalitionMemberPenalties(model, member_types);
        for (std::size_t i = 0; i < group.size(); ++i) {
            const AgentId m = group[i];
            result.truePenalties[m] = true_members[i];
            result.believedPenalties[m] =
                prefs.believedPenalty(m, group);
        }
        if (config.shapleySamples > 0) {
            // One substream per coalition, keyed by its anchor: the
            // estimate is independent of every other coalition and of
            // the thread count.
            Rng shapley_rng = rng.substream(kShapleyStream)
                                  .substream(group.front());
            const auto v =
                coalitionCharacteristic(model, member_types);
            const std::vector<double> shares =
                shapleySampled(group.size(), v, config.shapleySamples,
                               shapley_rng, config.threads);
            for (std::size_t i = 0; i < group.size(); ++i)
                result.shapleyShares[group[i]] = shares[i];
        }
    }

    if (MetricsRegistry *metrics = obsMetrics()) {
        metrics->counter("coalition.formations").add(1);
        metrics->counter(stop).add(1);
        metrics->counter("coalition.deviations").add(result.rounds);
        metrics->gauge("coalition.blocking_after")
            .set(static_cast<double>(result.blockingAfter));
    }
    return result;
}

} // namespace cooper
