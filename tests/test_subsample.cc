/**
 * @file
 * Unit tests for symmetric matrix subsampling.
 */

#include <gtest/gtest.h>

#include "cf/subsample.hh"
#include "util/error.hh"

namespace cooper {
namespace {

SparseMatrix
fullMatrix(std::size_t n)
{
    SparseMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            m.set(i, j, static_cast<double>(i * n + j));
    return m;
}

TEST(Subsample, KeepsRequestedFraction)
{
    const SparseMatrix full = fullMatrix(20);
    Rng rng(1);
    const SparseMatrix sparse = subsampleSymmetric(full, 0.25, 0, rng);
    EXPECT_GE(sparse.density(), 0.25);
    EXPECT_LT(sparse.density(), 0.35);
}

TEST(Subsample, ValuesMatchSource)
{
    const SparseMatrix full = fullMatrix(10);
    Rng rng(2);
    const SparseMatrix sparse = subsampleSymmetric(full, 0.5, 1, rng);
    for (std::size_t i = 0; i < 10; ++i)
        for (std::size_t j = 0; j < 10; ++j)
            if (sparse.known(i, j)) {
                EXPECT_DOUBLE_EQ(sparse.at(i, j), full.at(i, j));
            }
}

TEST(Subsample, KnownnessIsSymmetric)
{
    const SparseMatrix full = fullMatrix(16);
    Rng rng(3);
    const SparseMatrix sparse = subsampleSymmetric(full, 0.3, 2, rng);
    for (std::size_t i = 0; i < 16; ++i)
        for (std::size_t j = 0; j < 16; ++j)
            EXPECT_EQ(sparse.known(i, j), sparse.known(j, i));
}

TEST(Subsample, RowCoverageGuaranteed)
{
    const SparseMatrix full = fullMatrix(20);
    Rng rng(4);
    const SparseMatrix sparse = subsampleSymmetric(full, 0.05, 3, rng);
    for (std::size_t r = 0; r < 20; ++r) {
        std::size_t known = 0;
        for (std::size_t c = 0; c < 20; ++c)
            if (sparse.known(r, c))
                ++known;
        EXPECT_GE(known, 3u) << "row " << r;
    }
}

TEST(Subsample, FullRatioKeepsEverything)
{
    const SparseMatrix full = fullMatrix(8);
    Rng rng(5);
    const SparseMatrix sparse = subsampleSymmetric(full, 1.0, 0, rng);
    EXPECT_EQ(sparse.knownCount(), 64u);
}

TEST(Subsample, DeterministicPerSeed)
{
    const SparseMatrix full = fullMatrix(12);
    Rng rng_a(7), rng_b(7);
    const SparseMatrix a = subsampleSymmetric(full, 0.4, 1, rng_a);
    const SparseMatrix b = subsampleSymmetric(full, 0.4, 1, rng_b);
    for (std::size_t i = 0; i < 12; ++i)
        for (std::size_t j = 0; j < 12; ++j)
            EXPECT_EQ(a.known(i, j), b.known(i, j));
}

TEST(Subsample, RejectsBadInput)
{
    Rng rng(1);
    const SparseMatrix full = fullMatrix(4);
    EXPECT_THROW(subsampleSymmetric(full, 0.0, 1, rng), FatalError);
    EXPECT_THROW(subsampleSymmetric(full, 1.5, 1, rng), FatalError);

    SparseMatrix rect(2, 3);
    EXPECT_THROW(subsampleSymmetric(rect, 0.5, 1, rng), FatalError);

    SparseMatrix holes(4, 4);
    holes.set(0, 0, 1.0);
    EXPECT_THROW(subsampleSymmetric(holes, 0.5, 1, rng), FatalError);
}

} // namespace
} // namespace cooper
