/**
 * @file
 * Unit tests for the interference (penalty) model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/interference.hh"
#include "util/error.hh"

namespace cooper {
namespace {

class InterferenceTest : public ::testing::Test
{
  protected:
    Catalog catalog_ = Catalog::paperTableI();
    InterferenceModel model_{catalog_};

    JobTypeId id(const std::string &name) const
    {
        return catalog_.jobByName(name).id;
    }
};

TEST_F(InterferenceTest, PenaltiesInUnitRange)
{
    for (JobTypeId i = 0; i < catalog_.size(); ++i) {
        for (JobTypeId j = 0; j < catalog_.size(); ++j) {
            const double d = model_.penalty(i, j);
            EXPECT_GE(d, 0.0) << i << " vs " << j;
            EXPECT_LT(d, 1.0) << i << " vs " << j;
        }
    }
}

TEST_F(InterferenceTest, ComputePairsBarelyInterfere)
{
    // Two tiny-footprint, tiny-bandwidth jobs should not hurt each
    // other measurably.
    const double d = model_.penalty(id("swaptions"), id("vips"));
    EXPECT_LT(d, 0.01);
}

TEST_F(InterferenceTest, ContentiousPairsHurt)
{
    const double heavy =
        model_.penalty(id("correlation"), id("naive"));
    const double light = model_.penalty(id("correlation"), id("vips"));
    EXPECT_GT(heavy, 10.0 * std::max(light, 1e-6));
    EXPECT_GT(heavy, 0.08);
}

TEST_F(InterferenceTest, PenaltyGrowsWithCoRunnerBandwidth)
{
    // Fix the victim, sweep co-runners of increasing bandwidth with
    // comparable cache footprints: penalty should trend upward.
    const JobTypeId victim = id("svm");
    const double with_kmeans = model_.penalty(victim, id("kmeans"));
    const double with_fp = model_.penalty(victim, id("fpgrowth"));
    const double with_corr = model_.penalty(victim, id("correlation"));
    EXPECT_LT(with_kmeans, with_fp);
    EXPECT_LT(with_fp, with_corr);
}

TEST_F(InterferenceTest, DedupSuffersFromCachePressure)
{
    // dedup is barely bandwidth-hungry but highly cache-sensitive;
    // a big-footprint co-runner must hurt it far more than a
    // small-footprint one of comparable bandwidth.
    const double with_big = model_.penalty(id("dedup"), id("naive"));
    const double with_small = model_.penalty(id("dedup"), id("kmeans"));
    EXPECT_GT(with_big, 4.0 * std::max(with_small, 1e-6));
}

TEST_F(InterferenceTest, InterferenceIsDirectional)
{
    // dedup suffers from correlation far more than vice versa.
    const double d_dedup = model_.penalty(id("dedup"), id("correlation"));
    const double d_corr = model_.penalty(id("correlation"), id("dedup"));
    EXPECT_GT(d_dedup, d_corr);
}

TEST_F(InterferenceTest, CacheOverflowZeroWhenFits)
{
    EXPECT_DOUBLE_EQ(
        model_.cacheOverflow(id("swaptions"), id("vips")), 0.0);
    EXPECT_GT(model_.cacheOverflow(id("dedup"), id("canneal")), 0.0);
}

TEST_F(InterferenceTest, BandwidthPressureMonotoneInCoRunner)
{
    const JobTypeId self = id("svm");
    EXPECT_LT(model_.bandwidthPressure(self, id("vips")),
              model_.bandwidthPressure(self, id("streamc")));
}

TEST_F(InterferenceTest, MatrixMatchesPointQueries)
{
    const PenaltyMatrix m = model_.penaltyMatrix();
    EXPECT_EQ(m.size(), catalog_.size());
    for (JobTypeId i = 0; i < catalog_.size(); i += 3)
        for (JobTypeId j = 0; j < catalog_.size(); j += 3)
            EXPECT_DOUBLE_EQ(m(i, j), model_.penalty(i, j));
}

TEST_F(InterferenceTest, OutOfRangeTypeFatal)
{
    const auto n = static_cast<JobTypeId>(catalog_.size());
    EXPECT_THROW(model_.penalty(n, 0), FatalError);
    EXPECT_THROW(model_.penalty(0, n), FatalError);
    EXPECT_THROW(model_.penalty(n + 7, n + 7), FatalError);
    EXPECT_THROW(model_.colocatedSeconds(n, 0), FatalError);
    EXPECT_NO_THROW(model_.penalty(n - 1, n - 1));
}

TEST_F(InterferenceTest, ColocatedRuntimeInflatedByPenalty)
{
    const JobTypeId a = id("correlation");
    const JobTypeId b = id("naive");
    const double t = model_.colocatedSeconds(a, b);
    const double alone = catalog_.job(a).standaloneSec;
    EXPECT_GT(t, alone);
    EXPECT_NEAR(t, alone / (1.0 - model_.penalty(a, b)), 1e-9);
}

TEST_F(InterferenceTest, DeterministicAcrossInstances)
{
    InterferenceModel other(catalog_);
    for (JobTypeId i = 0; i < catalog_.size(); ++i)
        for (JobTypeId j = 0; j < catalog_.size(); ++j)
            EXPECT_DOUBLE_EQ(model_.penalty(i, j), other.penalty(i, j));
}

TEST_F(InterferenceTest, IdiosyncrasyCanBeDisabled)
{
    ServerConfig config;
    config.idiosyncrasy = 0.0;
    InterferenceModel plain(catalog_, config);
    // Without idiosyncrasy, same-attribute jobs see identical
    // penalties from a given co-runner class; svm and linear have
    // identical calibrated attributes except bandwidth (14.59 vs
    // 14.66), so their penalties against a fixed co-runner are within
    // a whisker.
    const double d1 = plain.penalty(id("svm"), id("correlation"));
    const double d2 = plain.penalty(id("linear"), id("correlation"));
    EXPECT_NEAR(d1, d2, 0.01);
}

TEST_F(InterferenceTest, BadConfigRejected)
{
    ServerConfig config;
    config.llcMB = 0.0;
    EXPECT_THROW(InterferenceModel(catalog_, config), FatalError);
}

// Group-penalty properties the coalition subsystem builds on.

TEST_F(InterferenceTest, GroupPenaltyPairCaseMatchesPairwisePenalty)
{
    for (JobTypeId i = 0; i < catalog_.size(); ++i)
        for (JobTypeId j = 0; j < catalog_.size(); ++j) {
            const JobTypeId others[] = {j};
            EXPECT_DOUBLE_EQ(model_.groupPenalty(i, others),
                             model_.penalty(i, j))
                << i << " vs " << j;
        }
}

TEST_F(InterferenceTest, GroupPenaltyInvariantUnderCoRunnerOrder)
{
    const JobTypeId a = id("kmeans");
    const JobTypeId b = id("dedup");
    const JobTypeId c = id("correlation");
    const JobTypeId self = id("svm");
    const JobTypeId perms[][3] = {{a, b, c}, {a, c, b}, {b, a, c},
                                  {b, c, a}, {c, a, b}, {c, b, a}};
    const double reference = model_.groupPenalty(self, perms[0]);
    for (const auto &perm : perms)
        EXPECT_DOUBLE_EQ(model_.groupPenalty(self, perm), reference);
}

TEST_F(InterferenceTest, GroupPenaltyMonotoneInGroupSize)
{
    // Adding a co-runner can only add pressure. Idiosyncrasy off so
    // the property is exact rather than up to the +-15% jitter.
    ServerConfig config;
    config.idiosyncrasy = 0.0;
    InterferenceModel plain(catalog_, config);
    for (JobTypeId self = 0; self < catalog_.size(); ++self) {
        std::vector<JobTypeId> others;
        double previous = 0.0;
        for (const char *name :
             {"correlation", "kmeans", "dedup", "streamc"}) {
            others.push_back(id(name));
            const double grown = plain.groupPenalty(self, others);
            EXPECT_GE(grown, previous)
                << "job " << self << " with " << others.size()
                << " co-runners";
            previous = grown;
        }
    }
}

} // namespace
} // namespace cooper
