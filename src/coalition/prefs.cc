#include "prefs.hh"

#include "util/error.hh"

namespace cooper {

CoalitionPreferences::CoalitionPreferences(
    const DisutilityTable &believed)
    : believed_(&believed)
{
    fatalIf(believed.agents() != believed.candidates(),
            "CoalitionPreferences: believed table must be square, got ",
            believed.agents(), "x", believed.candidates());
    profile_ = PreferenceProfile::fromTable(believed, /*exclude_self=*/true);
}

double
CoalitionPreferences::believedPenalty(
    AgentId self, std::span<const AgentId> members) const
{
    double total = 0.0;
    for (AgentId other : members)
        if (other != self)
            total += (*believed_)(self, other);
    return total;
}

double
CoalitionPreferences::bestPossiblePenalty(AgentId self,
                                          std::size_t max_size) const
{
    const double row_min = believed_->rowMin(self);
    if (row_min >= 0.0)
        return row_min;
    return static_cast<double>(max_size - 1) * row_min;
}

} // namespace cooper
