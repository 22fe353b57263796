/**
 * @file
 * Property-style tests that the parallel kernels are bit-identical
 * across thread counts: same seed in, same bits out, whether the work
 * runs serially or on eight threads. This is the contract that makes
 * the `threads` knob safe to flip in production — it can change
 * wall-clock time, never results.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "cf/item_knn.hh"
#include "cf/sparse_matrix.hh"
#include "cf/subsample.hh"
#include "core/experiment.hh"
#include "core/policies.hh"
#include "game/shapley.hh"
#include "io/serialize.hh"
#include "matching/blocking.hh"
#include "matching/matching.hh"
#include "obs/obs.hh"
#include "online/churn.hh"
#include "online/driver.hh"
#include "sim/interference.hh"
#include "util/rng.hh"
#include "workload/catalog.hh"

namespace cooper {
namespace {

const std::vector<std::size_t> kThreadCounts{1, 2, 8};

/** Bitwise double equality (0.0 vs -0.0 and NaN patterns included). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(Determinism, ShapleySampledIdenticalAcrossThreadCounts)
{
    const std::size_t n = 16;
    std::vector<double> interference(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        interference[i] = 0.5 + 0.25 * static_cast<double>(i);
    const auto v = interferenceGame(interference);

    std::vector<std::vector<double>> results;
    for (std::size_t threads : kThreadCounts) {
        Rng rng(2024);
        results.push_back(shapleySampled(n, v, 500, rng, threads));
    }
    for (std::size_t t = 1; t < results.size(); ++t) {
        ASSERT_EQ(results[t].size(), results[0].size());
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(sameBits(results[0][i], results[t][i]))
                << "agent " << i << " at threads "
                << kThreadCounts[t];
    }
}

TEST(Determinism, ShapleySampledRepeatedCallsAdvanceTheStream)
{
    const auto v = interferenceGame({1.0, 2.0, 3.0, 4.0});
    Rng rng(7);
    const auto first = shapleySampled(4, v, 50, rng, 2);
    const auto second = shapleySampled(4, v, 50, rng, 2);
    // The caller's stream advances between calls, so back-to-back
    // estimates differ (they are independent Monte-Carlo runs).
    EXPECT_NE(first, second);
}

TEST(Determinism, ItemKnnPredictionIdenticalAcrossThreadCounts)
{
    // Random sparse penalty matrices of a few shapes and densities.
    for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
        Rng rng(seed);
        const std::size_t n = 12 + rng.uniformInt(std::uint64_t(8));
        SparseMatrix full(n, n);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                full.set(i, j, rng.uniform() * 0.3);
        const SparseMatrix sparse =
            subsampleSymmetric(full, 0.3, 2, rng);

        std::vector<Prediction> predictions;
        for (std::size_t threads : kThreadCounts) {
            ItemKnnConfig config;
            config.threads = threads;
            predictions.push_back(
                ItemKnnPredictor(config).predict(sparse));
        }
        for (std::size_t t = 1; t < predictions.size(); ++t) {
            EXPECT_EQ(predictions[t].fallbackCells,
                      predictions[0].fallbackCells);
            ASSERT_EQ(predictions[t].dense.size(), n);
            for (std::size_t r = 0; r < n; ++r)
                for (std::size_t c = 0; c < n; ++c)
                    EXPECT_TRUE(sameBits(predictions[0].dense[r][c],
                                         predictions[t].dense[r][c]))
                        << "seed " << seed << " cell (" << r << ", "
                        << c << ") at threads " << kThreadCounts[t];
        }
    }
}

TEST(Determinism, ItemKnnSimilarityIdenticalAcrossThreadCounts)
{
    Rng rng(99);
    const std::size_t n = 15;
    SparseMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            if (rng.bernoulli(0.6))
                m.set(i, j, rng.uniform());

    ItemKnnConfig serial;
    serial.threads = 1;
    const auto base = ItemKnnPredictor(serial).similarityMatrix(m);
    for (std::size_t threads : {std::size_t(2), std::size_t(8)}) {
        ItemKnnConfig parallel_config;
        parallel_config.threads = threads;
        const auto sim =
            ItemKnnPredictor(parallel_config).similarityMatrix(m);
        for (std::size_t a = 0; a < n; ++a)
            for (std::size_t b = 0; b < n; ++b)
                EXPECT_TRUE(sameBits(base[a][b], sim[a][b]))
                    << "(" << a << ", " << b << ") at threads "
                    << threads;
    }
}

TEST(Determinism, BlockingPairsIdenticalAcrossThreadCounts)
{
    // Random instances: penalties from a seeded generator, agents
    // paired off in arrival order.
    for (const std::uint64_t seed : {5ULL, 6ULL}) {
        Rng rng(seed);
        const std::size_t n = 60;
        std::vector<std::vector<double>> penalty(
            n, std::vector<double>(n, 0.0));
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                penalty[i][j] = rng.uniform() * 0.3;
        const DisutilityFn d = [&](AgentId a, AgentId b) {
            return penalty[a][b];
        };
        Matching m(n);
        const auto order = rng.permutation(n);
        for (std::size_t k = 0; k + 1 < n; k += 2)
            m.pair(order[k], order[k + 1]);

        const auto base = findBlockingPairs(m, d, 0.01, 1);
        for (std::size_t threads : {std::size_t(2), std::size_t(8)}) {
            const auto pairs = findBlockingPairs(m, d, 0.01, threads);
            ASSERT_EQ(pairs.size(), base.size())
                << "seed " << seed << " threads " << threads;
            for (std::size_t k = 0; k < pairs.size(); ++k) {
                EXPECT_EQ(pairs[k].a, base[k].a);
                EXPECT_EQ(pairs[k].b, base[k].b);
                EXPECT_TRUE(sameBits(pairs[k].gainA, base[k].gainA));
                EXPECT_TRUE(sameBits(pairs[k].gainB, base[k].gainB));
            }
            EXPECT_EQ(countBlockingPairs(m, d, 0.01, threads),
                      base.size());
        }
    }
}

TEST(Determinism, ReplicationsIdenticalAcrossThreadCounts)
{
    const Catalog catalog = Catalog::paperTableI();
    const InterferenceModel model(catalog);
    const auto policy = makePolicy("GR");
    const Rng root(31);

    ReplicationPlan plan;
    plan.replications = 6;
    plan.agents = 40;

    std::vector<std::vector<PolicyRun>> batches;
    for (std::size_t threads : kThreadCounts) {
        plan.threads = threads;
        batches.push_back(
            runReplications(*policy, catalog, model, plan, root));
    }
    for (std::size_t t = 1; t < batches.size(); ++t) {
        ASSERT_EQ(batches[t].size(), batches[0].size());
        for (std::size_t r = 0; r < plan.replications; ++r) {
            const PolicyRun &a = batches[0][r];
            const PolicyRun &b = batches[t][r];
            EXPECT_TRUE(sameBits(a.meanPenalty, b.meanPenalty))
                << "replication " << r << " threads "
                << kThreadCounts[t];
            ASSERT_EQ(a.penalties.size(), b.penalties.size());
            for (std::size_t i = 0; i < a.penalties.size(); ++i)
                EXPECT_TRUE(sameBits(a.penalties[i], b.penalties[i]));
            ASSERT_EQ(a.matching.size(), b.matching.size());
            for (AgentId i = 0; i < a.matching.size(); ++i)
                EXPECT_EQ(a.matching.partnerOf(i),
                          b.matching.partnerOf(i));
        }
    }
}

TEST(Determinism, ReplicationsIndependentOfBatchSize)
{
    // Replication r is a pure function of (root, r): growing the
    // batch must not change earlier replications.
    const Catalog catalog = Catalog::paperTableI();
    const InterferenceModel model(catalog);
    const auto policy = makePolicy("GR");
    const Rng root(77);

    ReplicationPlan small;
    small.replications = 3;
    small.agents = 30;
    ReplicationPlan large = small;
    large.replications = 8;
    large.threads = 8;

    const auto few =
        runReplications(*policy, catalog, model, small, root);
    const auto many =
        runReplications(*policy, catalog, model, large, root);
    for (std::size_t r = 0; r < small.replications; ++r)
        EXPECT_TRUE(
            sameBits(few[r].meanPenalty, many[r].meanPenalty))
            << "replication " << r;
}

TEST(Determinism, ObservabilityDoesNotPerturbResults)
{
    // The observability layer reads clocks and bumps counters but must
    // never touch an RNG stream or a floating-point value that flows
    // into an output: the same replications with collectors on are
    // bit-identical to runs with the no-op sink, at every thread
    // count.
    const Catalog catalog = Catalog::paperTableI();
    const InterferenceModel model(catalog);
    const auto policy = makePolicy("SMR");
    const Rng root(41);

    ReplicationPlan plan;
    plan.replications = 3;
    plan.agents = 24;
    plan.oracular = false;
    plan.sampleRatio = 0.4;

    for (std::size_t threads : kThreadCounts) {
        plan.threads = threads;
        const auto quiet =
            runReplications(*policy, catalog, model, plan, root);

        ObsConfig obs;
        obs.metrics = true;
        obs.tracing = true;
        const ObsScope scope(obs);
        ASSERT_TRUE(scope.active());
        const auto observed =
            runReplications(*policy, catalog, model, plan, root);

        // The collectors saw traffic...
        EXPECT_GT(
            scope.session()->metrics()->snapshot().counters.size(),
            0u);
        // ...and the results did not move by a single bit.
        ASSERT_EQ(observed.size(), quiet.size());
        for (std::size_t r = 0; r < plan.replications; ++r) {
            EXPECT_TRUE(sameBits(quiet[r].meanPenalty,
                                 observed[r].meanPenalty))
                << "replication " << r << " threads " << threads;
            ASSERT_EQ(quiet[r].penalties.size(),
                      observed[r].penalties.size());
            for (std::size_t i = 0; i < quiet[r].penalties.size(); ++i)
                EXPECT_TRUE(sameBits(quiet[r].penalties[i],
                                     observed[r].penalties[i]));
            ASSERT_EQ(quiet[r].matching.size(),
                      observed[r].matching.size());
            for (AgentId i = 0; i < quiet[r].matching.size(); ++i)
                EXPECT_EQ(quiet[r].matching.partnerOf(i),
                          observed[r].matching.partnerOf(i));
        }
    }

    // The coalition online path: a 3-way replay writes the same
    // summary bytes with collectors on and off.
    ChurnConfig churn;
    churn.arrivals = 300;
    churn.initialJobs = 10;
    churn.meanInterarrivalTicks = 2.0;
    churn.meanLifetimeTicks = 40.0;
    Rng trace_rng(43);
    const ChurnTrace trace =
        generateChurnTrace(catalog, churn, trace_rng);
    FrameworkConfig config;
    config.policy = "coalition";
    config.alpha = 0.02;
    OnlineConfig &online = config.execution.online;
    online.groupSize = 3;
    online.epochTicks = 50;
    online.admitPerEpoch = 12;
    online.maxQueueDepth = 0;
    const auto summary = [&] {
        OnlineDriver driver(catalog, model, config, 43);
        std::ostringstream out;
        writeOnlineSummary(out, driver.run(trace));
        return out.str();
    };
    for (std::size_t threads : kThreadCounts) {
        config.execution.threads = threads;
        const std::string quiet = summary();

        ObsConfig obs;
        obs.metrics = true;
        obs.tracing = true;
        const ObsScope scope(obs);
        ASSERT_TRUE(scope.active());
        const std::string observed = summary();

        std::uint64_t formations = 0;
        for (const auto &[name, value] :
             scope.session()->metrics()->snapshot().counters)
            if (name == "coalition.formations")
                formations = value;
        EXPECT_GT(formations, 0u) << "threads " << threads;
        EXPECT_EQ(quiet, observed) << "threads " << threads;
    }
}

TEST(Determinism, CfReplicationsIdenticalAcrossThreadCounts)
{
    // The collaborative-filtering path adds the profiler and predictor
    // to the replication pipeline; it must be just as rigid.
    const Catalog catalog = Catalog::paperTableI();
    const InterferenceModel model(catalog);
    const auto policy = makePolicy("SMR");
    const Rng root(13);

    ReplicationPlan plan;
    plan.replications = 3;
    plan.agents = 24;
    plan.oracular = false;
    plan.sampleRatio = 0.4;

    plan.threads = 1;
    const auto serial =
        runReplications(*policy, catalog, model, plan, root);
    plan.threads = 8;
    const auto parallel_runs =
        runReplications(*policy, catalog, model, plan, root);
    for (std::size_t r = 0; r < plan.replications; ++r)
        EXPECT_TRUE(sameBits(serial[r].meanPenalty,
                             parallel_runs[r].meanPenalty))
            << "replication " << r;
}

} // namespace
} // namespace cooper
