/**
 * @file
 * Unit tests for the system profiler and measurement database.
 */

#include <gtest/gtest.h>

#include "sim/profiler.hh"
#include "util/error.hh"

namespace cooper {
namespace {

class ProfilerTest : public ::testing::Test
{
  protected:
    Catalog catalog_ = Catalog::paperTableI();
    InterferenceModel model_{catalog_};
};

TEST_F(ProfilerTest, MeasurementsCenterOnTruth)
{
    SystemProfiler profiler(model_, NoiseConfig{0.004, -0.02}, 1);
    const JobTypeId a = catalog_.jobByName("correlation").id;
    const JobTypeId b = catalog_.jobByName("naive").id;
    double acc = 0.0;
    const int n = 2000;
    for (int i = 0; i < n; ++i)
        acc += profiler.measure(a, b);
    EXPECT_NEAR(acc / n, model_.penalty(a, b), 0.001);
}

TEST_F(ProfilerTest, NoiseCanDipBelowZero)
{
    // Footnote 3: variance occasionally makes colocation look better
    // than stand-alone. A near-zero-penalty pair measured many times
    // must produce at least one negative sample.
    SystemProfiler profiler(model_, NoiseConfig{0.004, -0.02}, 2);
    const JobTypeId a = catalog_.jobByName("swaptions").id;
    const JobTypeId b = catalog_.jobByName("vips").id;
    bool saw_negative = false;
    for (int i = 0; i < 500 && !saw_negative; ++i)
        saw_negative = profiler.measure(a, b) < 0.0;
    EXPECT_TRUE(saw_negative);
}

TEST_F(ProfilerTest, FloorClampsNoise)
{
    SystemProfiler profiler(model_, NoiseConfig{0.05, -0.01}, 3);
    const JobTypeId a = catalog_.jobByName("swaptions").id;
    for (int i = 0; i < 200; ++i)
        EXPECT_GE(profiler.measure(a, a), -0.01);
}

TEST_F(ProfilerTest, DatabaseAveragesRepeats)
{
    SystemProfiler profiler(model_, NoiseConfig{0.01, -0.02}, 4);
    const JobTypeId a = catalog_.jobByName("svm").id;
    const JobTypeId b = catalog_.jobByName("dedup").id;
    EXPECT_FALSE(profiler.database().query(a, b).has_value());
    for (int i = 0; i < 500; ++i)
        profiler.measure(a, b);
    const auto avg = profiler.database().query(a, b);
    ASSERT_TRUE(avg.has_value());
    EXPECT_NEAR(*avg, model_.penalty(a, b), 0.002);
    EXPECT_EQ(profiler.database().totalSamples(), 500u);
    EXPECT_EQ(profiler.database().distinctPairs(), 1u);
}

TEST_F(ProfilerTest, SampleProfilesHitsRequestedDensity)
{
    SystemProfiler profiler(model_, {}, 5);
    const SparseMatrix profiles = profiler.sampleProfiles(0.25);
    EXPECT_GE(profiles.density(), 0.25);
    EXPECT_LT(profiles.density(), 0.40);
}

TEST_F(ProfilerTest, SampleProfilesSymmetricKnownness)
{
    SystemProfiler profiler(model_, {}, 6);
    const SparseMatrix profiles = profiler.sampleProfiles(0.3);
    for (std::size_t i = 0; i < profiles.rows(); ++i)
        for (std::size_t j = 0; j < profiles.cols(); ++j)
            EXPECT_EQ(profiles.known(i, j), profiles.known(j, i));
}

TEST_F(ProfilerTest, SampleProfilesGuaranteesRowCoverage)
{
    SystemProfiler profiler(model_, {}, 7);
    const SparseMatrix profiles = profiler.sampleProfiles(0.05, 2);
    for (std::size_t r = 0; r < profiles.rows(); ++r) {
        std::size_t known = 0;
        for (std::size_t c = 0; c < profiles.cols(); ++c)
            if (profiles.known(r, c))
                ++known;
        EXPECT_GE(known, 2u) << "row " << r;
    }
}

TEST_F(ProfilerTest, FullSamplingFillsMatrix)
{
    SystemProfiler profiler(model_, {}, 8);
    const SparseMatrix profiles = profiler.sampleProfiles(1.0);
    EXPECT_EQ(profiles.knownCount(),
              catalog_.size() * catalog_.size());
}

TEST_F(ProfilerTest, BadRatioFatal)
{
    SystemProfiler profiler(model_, {}, 9);
    EXPECT_THROW(profiler.sampleProfiles(0.0), FatalError);
    EXPECT_THROW(profiler.sampleProfiles(1.5), FatalError);
}

TEST_F(ProfilerTest, DeterministicPerSeed)
{
    SystemProfiler p1(model_, {}, 42);
    SystemProfiler p2(model_, {}, 42);
    const SparseMatrix m1 = p1.sampleProfiles(0.25);
    const SparseMatrix m2 = p2.sampleProfiles(0.25);
    EXPECT_EQ(m1.knownCount(), m2.knownCount());
    for (std::size_t i = 0; i < m1.rows(); ++i)
        for (std::size_t j = 0; j < m1.cols(); ++j) {
            ASSERT_EQ(m1.known(i, j), m2.known(i, j));
            if (m1.known(i, j)) {
                EXPECT_DOUBLE_EQ(m1.at(i, j), m2.at(i, j));
            }
        }
}

} // namespace
} // namespace cooper
