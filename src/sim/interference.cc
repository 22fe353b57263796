#include "interference.hh"

#include <algorithm>
#include <cmath>

#include "util/error.hh"
#include "util/rng.hh"

namespace cooper {

InterferenceModel::InterferenceModel(const Catalog &catalog,
                                     ServerConfig config)
    : catalog_(&catalog), config_(config), penalties_(catalog.size())
{
    fatalIf(config_.llcMB <= 0.0, "InterferenceModel: llcMB must be > 0");
    fatalIf(config_.bwRefGBps <= 0.0,
            "InterferenceModel: bwRefGBps must be > 0");
    fatalIf(config_.bwSpanGBps <= 0.0,
            "InterferenceModel: bwSpanGBps must be > 0");
    const std::size_t n = catalog.size();
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            penalties_(i, j) = closedForm(static_cast<JobTypeId>(i),
                                          static_cast<JobTypeId>(j));
}

double
InterferenceModel::bandwidthPressure(JobTypeId self, JobTypeId other) const
{
    const JobType &a = catalog_->job(self);
    const JobType &b = catalog_->job(other);
    const double combined = a.gbps + b.gbps;
    const double ramp01 = std::clamp(
        (combined - config_.bwKneeGBps) / config_.bwSpanGBps, 0.0, 1.0);
    const double ramp = config_.rampBase +
                        (1.0 - config_.rampBase) * ramp01;
    return (b.gbps / config_.bwRefGBps) * ramp;
}

double
InterferenceModel::cacheOverflow(JobTypeId self, JobTypeId other) const
{
    const JobType &a = catalog_->job(self);
    const JobType &b = catalog_->job(other);
    const double overflow = (a.cacheMB + b.cacheMB - config_.llcMB) /
                            config_.llcMB;
    return std::clamp(overflow, 0.0, 1.0);
}

double
InterferenceModel::idiosyncrasyFactor(JobTypeId self, JobTypeId other) const
{
    if (config_.idiosyncrasy == 0.0)
        return 1.0;
    // splitmix64 of the ordered pair gives a stable value in [-1, 1];
    // ordered (not symmetric) because contention is directional.
    std::uint64_t h = (static_cast<std::uint64_t>(self) << 32) |
                      (static_cast<std::uint64_t>(other) + 1);
    const double unit =
        (splitmix64(h) >> 11) * 0x1.0p-53 * 2.0 - 1.0;
    return 1.0 + config_.idiosyncrasy * unit;
}

double
InterferenceModel::penalty(JobTypeId self, JobTypeId other) const
{
    const std::size_t n = penalties_.size();
    fatalIf(self >= n || other >= n, "InterferenceModel: job type (",
            self, ", ", other, ") out of range (", n, " types)");
    return penalties_(self, other);
}

double
InterferenceModel::closedForm(JobTypeId self, JobTypeId other) const
{
    const JobType &a = catalog_->job(self);
    const double bw_term = a.bwSensitivity *
                           bandwidthPressure(self, other) *
                           config_.weightBandwidth;
    const double cache_term = a.cacheSensitivity *
                              cacheOverflow(self, other) *
                              config_.weightCache;
    const double d = (bw_term + cache_term) *
                     idiosyncrasyFactor(self, other);
    return std::clamp(d, 0.0, 1.0);
}

double
InterferenceModel::groupPenalty(JobTypeId self,
                                std::span<const JobTypeId> others) const
{
    fatalIf(others.empty(), "groupPenalty: no co-runners");
    const JobType &a = catalog_->job(self);

    // Bandwidth: the combined appetite of all co-runners, amplified
    // once the whole group's demand saturates the channels.
    double others_gbps = 0.0;
    double cache_total = a.cacheMB;
    double idio = 0.0;
    for (JobTypeId other : others) {
        const JobType &b = catalog_->job(other);
        others_gbps += b.gbps;
        cache_total += b.cacheMB;
        idio += idiosyncrasyFactor(self, other);
    }
    idio /= static_cast<double>(others.size());

    const double combined = a.gbps + others_gbps;
    const double ramp01 = std::clamp(
        (combined - config_.bwKneeGBps) / config_.bwSpanGBps, 0.0, 1.0);
    const double ramp = config_.rampBase +
                        (1.0 - config_.rampBase) * ramp01;
    const double bw_press = (others_gbps / config_.bwRefGBps) * ramp;
    const double overflow = std::clamp(
        (cache_total - config_.llcMB) / config_.llcMB, 0.0, 1.0);

    const double d = (a.bwSensitivity * bw_press *
                          config_.weightBandwidth +
                      a.cacheSensitivity * overflow *
                          config_.weightCache) *
                     idio;
    return std::clamp(d, 0.0, 1.0);
}

double
InterferenceModel::colocatedSeconds(JobTypeId self, JobTypeId other) const
{
    const JobType &a = catalog_->job(self);
    const double d = penalty(self, other);
    panicIf(d >= 1.0, "colocatedSeconds: penalty saturated at 1");
    return a.standaloneSec / (1.0 - d);
}

} // namespace cooper
