/**
 * @file
 * Unit tests for ColocationInstance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/instance.hh"
#include "util/error.hh"
#include "util/rng.hh"
#include "workload/population.hh"

namespace cooper {
namespace {

class InstanceTest : public ::testing::Test
{
  protected:
    Catalog catalog_ = Catalog::paperTableI();
    InterferenceModel model_{catalog_};

    ColocationInstance
    makeInstance(std::size_t n, std::uint64_t seed = 1)
    {
        Rng rng(seed);
        auto types = samplePopulation(catalog_, n, MixKind::Uniform, rng);
        return ColocationInstance::oracular(catalog_, std::move(types),
                                            model_);
    }
};

TEST_F(InstanceTest, OracularBelievedEqualsTruth)
{
    const auto instance = makeInstance(20);
    for (AgentId a = 0; a < 20; ++a)
        for (AgentId b = 0; b < 20; ++b)
            if (a != b) {
                EXPECT_DOUBLE_EQ(instance.trueDisutility(a, b),
                                 instance.believedDisutility(a, b));
            }
}

std::uint64_t
bitsOf(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

TEST_F(InstanceTest, BelievedTableMatchesPointQueries)
{
    // A believed matrix unlike the truth, so the table must read the
    // believed side.
    Rng rng(41);
    PenaltyMatrix believed(catalog_.size());
    for (std::size_t i = 0; i < catalog_.size(); ++i)
        for (std::size_t j = 0; j < catalog_.size(); ++j)
            believed(i, j) = rng.uniform();

    for (const double jitter : {0.0, 1e-4}) {
        for (std::size_t n = 1; n <= 64; ++n) {
            // Few types, so most agents share a type with others.
            std::vector<JobTypeId> types(n);
            for (JobTypeId &t : types)
                t = static_cast<JobTypeId>(rng.uniformInt(4) * 5);
            const ColocationInstance instance(catalog_, types,
                                              model_.penaltyMatrix(),
                                              believed, jitter);
            for (const std::size_t threads : {1u, 8u}) {
                const DisutilityTable table = instance.believedTable(threads);
                ASSERT_EQ(table.agents(), n);
                ASSERT_EQ(table.candidates(), n);
                for (AgentId a = 0; a < n; ++a) {
                    std::vector<double> point(n);
                    for (AgentId b = 0; b < n; ++b) {
                        point[b] = instance.believedDisutility(a, b);
                        ASSERT_EQ(bitsOf(table(a, b)), bitsOf(point[b]))
                            << "n " << n << " jitter " << jitter
                            << " threads " << threads << " (" << a << ", "
                            << b << ")";
                    }
                    ASSERT_EQ(bitsOf(table.rowMin(a)),
                              bitsOf(*std::min_element(point.begin(),
                                                       point.end())))
                        << "n " << n << " row " << a;
                }
            }
        }
    }
}

TEST_F(InstanceTest, DisutilityNearTypePenalty)
{
    const auto instance = makeInstance(10);
    for (AgentId a = 0; a < 10; ++a) {
        for (AgentId b = 0; b < 10; ++b) {
            if (a == b)
                continue;
            const double type_d = instance.truth()(
                instance.typeOf(a), instance.typeOf(b));
            EXPECT_NEAR(instance.trueDisutility(a, b), type_d, 1e-4);
            EXPECT_GE(instance.trueDisutility(a, b), type_d);
        }
    }
}

TEST_F(InstanceTest, JitterBreaksTiesBetweenSameTypeCandidates)
{
    // Two candidates of the same type must not be exactly tied.
    std::vector<JobTypeId> types{0, 1, 1};
    auto instance =
        ColocationInstance::oracular(catalog_, types, model_);
    EXPECT_NE(instance.trueDisutility(0, 1),
              instance.trueDisutility(0, 2));
}

TEST_F(InstanceTest, JitterIsDeterministic)
{
    const auto a = makeInstance(10, 3);
    const auto b = makeInstance(10, 3);
    for (AgentId i = 0; i < 10; ++i)
        for (AgentId j = 0; j < 10; ++j)
            if (i != j) {
                EXPECT_DOUBLE_EQ(a.trueDisutility(i, j),
                                 b.trueDisutility(i, j));
            }
}

TEST_F(InstanceTest, BelievedPreferencesExcludeSelf)
{
    const auto instance = makeInstance(8);
    const PreferenceProfile prefs = instance.believedPreferences();
    EXPECT_EQ(prefs.agents(), 8u);
    for (AgentId i = 0; i < 8; ++i) {
        EXPECT_EQ(prefs.list(i).size(), 7u);
        EXPECT_FALSE(prefs.hasCandidate(i, i));
    }
}

TEST_F(InstanceTest, PreferencesSortedByDisutility)
{
    const auto instance = makeInstance(12);
    const PreferenceProfile prefs = instance.believedPreferences();
    for (AgentId i = 0; i < 12; ++i) {
        const auto &list = prefs.list(i);
        for (std::size_t k = 1; k < list.size(); ++k)
            EXPECT_LE(instance.believedDisutility(i, list[k - 1]),
                      instance.believedDisutility(i, list[k]));
    }
}

TEST_F(InstanceTest, MeanPenaltyOverMatchedOnly)
{
    std::vector<JobTypeId> types{0, 0, 0};
    auto instance = ColocationInstance::oracular(catalog_, types, model_);
    Matching m(3);
    m.pair(0, 1);
    const double expected = (instance.trueDisutility(0, 1) +
                             instance.trueDisutility(1, 0)) / 2.0;
    EXPECT_NEAR(instance.meanTruePenalty(m), expected, 1e-12);

    const auto penalties = instance.truePenalties(m);
    EXPECT_DOUBLE_EQ(penalties[2], 0.0);
    EXPECT_GT(penalties[0], 0.0);
}

TEST_F(InstanceTest, InvalidConstructionFatal)
{
    PenaltyMatrix truth(catalog_.size());
    PenaltyMatrix wrong(catalog_.size() + 1);
    std::vector<JobTypeId> types{0};
    EXPECT_THROW(ColocationInstance(catalog_, {}, truth, truth),
                 FatalError);
    EXPECT_THROW(ColocationInstance(catalog_, types, wrong, truth),
                 FatalError);
    std::vector<JobTypeId> bad_type{99};
    EXPECT_THROW(ColocationInstance(catalog_, bad_type, truth, truth),
                 FatalError);
}

} // namespace
} // namespace cooper
