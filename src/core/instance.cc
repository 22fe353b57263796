#include "instance.hh"

#include "util/error.hh"
#include "util/rng.hh"

namespace cooper {

ColocationInstance::ColocationInstance(const Catalog &catalog,
                                       std::vector<JobTypeId> types,
                                       PenaltyMatrix truth,
                                       PenaltyMatrix believed,
                                       double jitter)
    : catalog_(&catalog), types_(std::move(types)),
      truth_(std::move(truth)), believed_(std::move(believed)),
      jitter_(jitter)
{
    fatalIf(types_.empty(), "ColocationInstance: empty population");
    fatalIf(truth_.size() != catalog.size(),
            "ColocationInstance: truth matrix is ", truth_.size(),
            "x, catalog has ", catalog.size(), " types");
    fatalIf(believed_.size() != catalog.size(),
            "ColocationInstance: believed matrix size mismatch");
    for (JobTypeId t : types_)
        fatalIf(t >= catalog.size(),
                "ColocationInstance: unknown job type ", t);
    fatalIf(jitter_ < 0.0, "ColocationInstance: negative jitter");
}

ColocationInstance
ColocationInstance::oracular(const Catalog &catalog,
                             std::vector<JobTypeId> types,
                             const InterferenceModel &model)
{
    PenaltyMatrix truth = model.penaltyMatrix();
    PenaltyMatrix believed = truth;
    return ColocationInstance(catalog, std::move(types), std::move(truth),
                              std::move(believed));
}

double
ColocationInstance::jitterFor(AgentId a, AgentId b) const
{
    if (jitter_ == 0.0)
        return 0.0;
    // Stable per-ordered-pair hash in [0, jitter). Including the pair
    // (not just the co-runner) keeps two same-type co-runners
    // distinguishable, giving strict preference orders.
    std::uint64_t h = (static_cast<std::uint64_t>(a) << 32) ^
                      (static_cast<std::uint64_t>(b) + 0x51ed2701);
    return (splitmix64(h) >> 11) * 0x1.0p-53 * jitter_;
}

double
ColocationInstance::trueDisutility(AgentId a, AgentId b) const
{
    return truth_(types_[a], types_[b]) + jitterFor(a, b);
}

double
ColocationInstance::believedDisutility(AgentId a, AgentId b) const
{
    return believed_(types_[a], types_[b]) + jitterFor(a, b);
}

PreferenceProfile
ColocationInstance::believedPreferences() const
{
    return PreferenceProfile::fromDisutility(
        agents(), agents(),
        [this](AgentId a, AgentId b) { return believedDisutility(a, b); },
        /*exclude_self=*/true);
}

void
ColocationInstance::believedRow(AgentId a, double *row) const
{
    const JobTypeId self = types_[a];
    for (AgentId b = 0; b < types_.size(); ++b)
        row[b] = believed_(self, types_[b]) + jitterFor(a, b);
}

DisutilityTable
ColocationInstance::believedTable(std::size_t threads) const
{
    return DisutilityTable(
        agents(), agents(),
        [this](AgentId a, double *row) { believedRow(a, row); }, threads);
}

double
ColocationInstance::meanTruePenalty(const Matching &matching) const
{
    fatalIf(matching.size() != agents(),
            "meanTruePenalty: matching size mismatch");
    double acc = 0.0;
    std::size_t matched = 0;
    for (AgentId a = 0; a < agents(); ++a) {
        if (matching.isMatched(a)) {
            acc += trueDisutility(a, matching.partnerOf(a));
            ++matched;
        }
    }
    return matched ? acc / static_cast<double>(matched) : 0.0;
}

std::vector<double>
ColocationInstance::truePenalties(const Matching &matching) const
{
    fatalIf(matching.size() != agents(),
            "truePenalties: matching size mismatch");
    std::vector<double> out(agents(), 0.0);
    for (AgentId a = 0; a < agents(); ++a)
        if (matching.isMatched(a))
            out[a] = trueDisutility(a, matching.partnerOf(a));
    return out;
}

} // namespace cooper
