#include "repair.hh"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "core/policies.hh"
#include "matching/blocking.hh"
#include "matching/disutility.hh"
#include "obs/obs.hh"
#include "util/error.hh"

namespace cooper {

RepairingPolicy::RepairingPolicy(std::string policy, double alpha,
                                 std::size_t migration_budget,
                                 std::size_t full_rematch_blocking_pairs)
    : policy_(std::move(policy)), alpha_(alpha),
      migrationBudget_(migration_budget),
      fullRematchBlockingPairs_(full_rematch_blocking_pairs)
{
    // Fail fast on unknown policy names rather than mid-epoch.
    makePolicy(policy_);
}

RepairOutcome
RepairingPolicy::repair(const ColocationInstance &instance,
                        const Matching &previous, Rng &rng,
                        std::size_t threads,
                        const DisutilityTable &believed) const
{
    const TraceSpan span("online.repair", "online");
    const ScopedTimer timer("online.repair_seconds");
    panicIf(previous.size() != instance.agents(),
            "RepairingPolicy: previous matching covers ",
            previous.size(), " agents, instance has ",
            instance.agents());
    return repairImpl(instance, previous, rng, threads, believed,
                      nullptr);
}

RepairOutcome
RepairingPolicy::repair(const ColocationInstance &instance,
                        const Matching &previous, Rng &rng,
                        std::size_t threads,
                        const DisutilityTable &believed,
                        BlockingBounds &bounds,
                        const std::vector<AgentId> &dirty_rows,
                        bool rebuild_bounds) const
{
    const TraceSpan span("online.repair", "online");
    const ScopedTimer timer("online.repair_seconds");
    panicIf(previous.size() != instance.agents(),
            "RepairingPolicy: previous matching covers ",
            previous.size(), " agents, instance has ",
            instance.agents());
    if (rebuild_bounds)
        bounds.rebuild(previous, believed, alpha_, threads);
    else
        bounds.update(previous, believed, alpha_, dirty_rows, threads);
    return repairImpl(instance, previous, rng, threads, believed,
                      &bounds);
}

RepairOutcome
RepairingPolicy::repairImpl(const ColocationInstance &instance,
                            const Matching &previous, Rng &rng,
                            std::size_t threads,
                            const DisutilityTable &believed,
                            BlockingBounds *bounds) const
{
    const std::size_t n = instance.agents();

    RepairOutcome out;
    const auto policy = makePolicy(policy_);
    // The bounds hold exactly the pairs (and gains) the scan would
    // find; both branches feed identical data downstream.
    const auto blocking =
        bounds != nullptr
            ? bounds->pairs(believed)
            : findBlockingPairs(previous, believed, alpha_, threads);
    const auto countAfter = [&](const Matching &matching) {
        if (bounds == nullptr)
            return countBlockingPairs(matching, believed, alpha_,
                                      threads);
        // Partner churn from the repair is detected internally; the
        // table did not change, so no rows are dirty.
        bounds->update(matching, believed, alpha_, {}, threads);
        return bounds->count();
    };
    out.blockingBefore = blocking.size();

    // Degraded past the threshold: local patching would chase its own
    // tail, so re-match everyone.
    if (out.blockingBefore > fullRematchBlockingPairs_) {
        out.fullRematch = true;
        out.repairedAgents = n;
        out.matching = policy->assign(instance, rng);
        out.blockingAfter = countAfter(out.matching);
        return out;
    }

    out.matching = previous;

    // Spend the migration budget where blocking pressure is worst:
    // each kept pair's pressure is the best bottleneck gain over the
    // blocking pairs touching either member.
    if (migrationBudget_ > 0 && !blocking.empty()) {
        std::map<std::pair<AgentId, AgentId>, double> pressure;
        for (const BlockingPair &pair : blocking) {
            const double gain = std::min(pair.gainA, pair.gainB);
            for (AgentId member : {pair.a, pair.b}) {
                if (!previous.isMatched(member))
                    continue;
                const AgentId partner = previous.partnerOf(member);
                const auto key =
                    std::make_pair(std::min(member, partner),
                                   std::max(member, partner));
                auto [it, inserted] = pressure.emplace(key, gain);
                if (!inserted)
                    it->second = std::max(it->second, gain);
            }
        }
        std::vector<std::pair<std::pair<AgentId, AgentId>, double>>
            ranked(pressure.begin(), pressure.end());
        std::stable_sort(ranked.begin(), ranked.end(),
                         [](const auto &x, const auto &y) {
                             if (x.second != y.second)
                                 return x.second > y.second;
                             return x.first < y.first;
                         });
        for (const auto &[key, gain] : ranked) {
            if (out.pairsBroken >= migrationBudget_)
                break;
            out.matching.unpair(key.first);
            ++out.pairsBroken;
        }
    }

    // The delta: arrivals, widowed partners, and the pairs broken
    // above, in ascending index order.
    std::vector<AgentId> free_agents;
    for (AgentId a = 0; a < n; ++a)
        if (!out.matching.isMatched(a))
            free_agents.push_back(a);
    out.repairedAgents = free_agents.size();
    if (free_agents.size() < 2) {
        out.blockingAfter = countAfter(out.matching);
        if (MetricsRegistry *metrics = obsMetrics())
            metrics->counter("online.repair_noops").add(1);
        return out;
    }

    // Run the configured policy on the delta sub-instance. Penalty
    // matrices are type-level and shared; only the population narrows.
    std::vector<JobTypeId> free_types;
    free_types.reserve(free_agents.size());
    for (AgentId a : free_agents)
        free_types.push_back(instance.typeOf(a));
    const ColocationInstance delta(instance.catalog(),
                                   std::move(free_types),
                                   instance.truth(), instance.believed(),
                                   instance.jitter());
    const Matching delta_matching = policy->assign(delta, rng);
    for (const auto &[i, j] : delta_matching.pairs())
        out.matching.pair(free_agents[i], free_agents[j]);
    out.blockingAfter = countAfter(out.matching);

    if (MetricsRegistry *metrics = obsMetrics())
        metrics->counter("online.repaired_agents")
            .add(out.repairedAgents);
    return out;
}

} // namespace cooper
