/**
 * @file
 * Kernel regression harness: times the seed ("baseline") hot-path
 * kernels against the packed/memoized rewrites on a Table-I-derived
 * workload, cross-checks exact equality of their outputs, and writes
 * BENCH_kernels.json (bench "kernels" in the cooper.bench.v2 shape of
 * bench_doc.hh) that tools/bench_json validates.
 *
 * Seven phases are reported:
 *
 *  - similarity:      baselineSimilarityMatrix vs. the packed bitmask
 *                     fill
 *  - simd_similarity: the packed fill pinned to the scalar tier vs.
 *                     the widest SIMD tier this machine offers (equal
 *                     tiers on non-AVX machines: ratio ~1)
 *  - predict:         baselinePredict vs. the neighbor-list predictor
 *  - matching:        believedPreferences + oracle roommates vs. the
 *                     DisutilityTable-backed path (conservative
 *                     baseline: it already shares the rank-key
 *                     preference sort)
 *  - blocking:        the std::function scan vs. the table scan with
 *                     row pruning (count mode, no pair vector)
 *  - blocking_incremental: the full O(n^2) table scan vs. a
 *                     quiet-epoch BlockingBounds::update (nothing
 *                     dirty, the online service's steady state)
 *  - shapley:         sampled Shapley, timed for trend tracking only
 *                     (no baseline)
 *
 * --tiny shrinks every dimension for the `ctest -L bench-smoke` run;
 * the acceptance ratios (>= 3x similarity, >= 1.5x simd_similarity,
 * >= 2x blocking, >= 3x blocking_incremental) are meant to be checked
 * at the default sizes:
 *
 *   bench_regression && bench_json --file BENCH_kernels.json --min \
 *       similarity.ratio=3,simd_similarity.ratio=1.5,blocking.ratio=2,blocking_incremental.ratio=3
 */

#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "bench_doc.hh"
#include "cf/item_knn.hh"
#include "cf/knn_baseline.hh"
#include "cf/subsample.hh"
#include "core/instance.hh"
#include "game/shapley.hh"
#include "matching/blocking.hh"
#include "matching/blocking_baseline.hh"
#include "matching/blocking_incremental.hh"
#include "matching/stable_roommates.hh"
#include "obs/obs.hh"
#include "sim/interference.hh"
#include "util/cli.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "workload/catalog.hh"

namespace {

using namespace cooper;
using bench::Phase;

using Clock = std::chrono::steady_clock;

/** Wall-clock seconds of the best of `reps` runs. */
template <typename Fn>
double
bestSeconds(int reps, Fn &&fn)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        fn();
        const std::chrono::duration<double> elapsed =
            Clock::now() - start;
        best = std::min(best, elapsed.count());
    }
    return best;
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    return a.empty() ||
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(double)) == 0;
}

bool
sameDense(const std::vector<std::vector<double>> &a,
          const std::vector<std::vector<double>> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t r = 0; r < a.size(); ++r)
        if (!sameBits(a[r], b[r]))
            return false;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    CliFlags flags;
    flags.declare("matrix", "192", "CF ratings-matrix dimension");
    flags.declare("population", "640", "matching/blocking population");
    flags.declare("samples", "20000", "Shapley permutation samples");
    flags.declare("shapley-agents", "24", "Shapley game size (<= 32)");
    flags.declare("alpha", "0.0", "blocking-scan break-away threshold");
    flags.declare("density", "0.25", "observed fraction of the matrix");
    flags.declare("reps", "3", "timing repetitions (best-of)");
    flags.declare("tiny", "false",
                  "smoke-test sizes (matrix 24, population 48, ...)");
    flags.declare("out", "BENCH_kernels.json", "JSON output path");
    if (!flags.parse(argc, argv))
        return 0;

    return cooper::bench::runHarness(
        "Kernel regression: seed baselines vs. packed/memoized rewrites",
        [&] {
            const bool tiny = flags.getBool("tiny");
            const auto matrix_n = static_cast<std::size_t>(
                tiny ? 24 : flags.getInt("matrix"));
            const auto population = static_cast<std::size_t>(
                tiny ? 48 : flags.getInt("population"));
            const auto samples = static_cast<std::size_t>(
                tiny ? 500 : flags.getInt("samples"));
            const auto shapley_n = static_cast<std::size_t>(
                flags.getInt("shapley-agents"));
            const double alpha = flags.getDouble("alpha");
            const double density = flags.getDouble("density");
            const int reps =
                tiny ? 1 : static_cast<int>(flags.getInt("reps"));

            // Everything below runs serially: the wins being measured
            // are algorithmic (packed layouts, memo tables, pruning),
            // not parallel scaling — bench_parallel covers that.
            constexpr std::size_t kThreads = 1;

            // Table-I-derived workload: type-level penalties from the
            // paper's catalog, tiled to the requested sizes with a
            // small continuous perturbation so similarities have no
            // ties (the capped-neighbor gather order is only specified
            // for distinct similarities).
            const Catalog catalog = Catalog::paperTableI();
            const InterferenceModel model(catalog);
            const PenaltyMatrix penalties = model.penaltyMatrix();
            const std::size_t types = catalog.size();

            Rng rng(2017);
            SparseMatrix full(matrix_n, matrix_n);
            for (std::size_t i = 0; i < matrix_n; ++i)
                for (std::size_t j = 0; j < matrix_n; ++j)
                    full.set(i, j,
                             penalties(i % types, j % types) +
                                 rng.uniform() * 0.05);
            const SparseMatrix sparse =
                subsampleSymmetric(full, density, 2, rng);

            std::vector<JobTypeId> pop_types(population);
            for (std::size_t i = 0; i < population; ++i)
                pop_types[i] = i % types;
            const ColocationInstance instance =
                ColocationInstance::oracular(catalog, pop_types, model);

            ItemKnnConfig knn;
            knn.threads = kThreads;

            bench::BenchDoc doc("kernels", tiny);

            // The optimized kernels run with metrics on, as a metered
            // service runs them: their phase timers' cost stays inside
            // what each ratio measures.
            ObsConfig obs_config;
            obs_config.metrics = true;
            const ObsScope obs(obs_config);

            // --- similarity fill --------------------------------------
            {
                Phase p;
                p.name = "similarity";
                std::vector<std::vector<double>> base;
                p.baseline = bestSeconds(reps, [&] {
                    base = baselineSimilarityMatrix(sparse, knn);
                });
                SimilarityTriangle tri(0);
                p.optimized = bestSeconds(reps, [&] {
                    tri = ItemKnnPredictor(knn).similarityTriangle(
                        sparse);
                });
                p.equal = sameDense(base, tri.toNested());
                doc.phase(std::move(p));
            }

            // --- simd similarity fill --------------------------------
            // Same packed fill both sides; only the dispatched tier
            // differs, so this isolates the vector win from the
            // packed-layout win the phase above measures. The predictor
            // fills similarities twice per predict (iterations = 2):
            // pass 1 over the sparse observations, pass 2 over the
            // filled dense matrix, where every lane runs full — the
            // phase times both, exactly the per-predict similarity
            // work.
            {
                Phase p;
                p.name = "simd_similarity";
                const Prediction filled =
                    ItemKnnPredictor(knn).predict(sparse);
                SparseMatrix dense_m(matrix_n, matrix_n);
                for (std::size_t i = 0; i < matrix_n; ++i)
                    for (std::size_t j = 0; j < matrix_n; ++j)
                        dense_m.set(i, j, filled.dense[i][j]);
                SimilarityTriangle s1(0), s2(0), v1(0), v2(0);
                setSimdOverrideForTesting(SimdLevel::Scalar);
                p.baseline = bestSeconds(reps, [&] {
                    s1 = ItemKnnPredictor(knn).similarityTriangle(
                        sparse);
                    s2 = ItemKnnPredictor(knn).similarityTriangle(
                        dense_m);
                });
                setSimdOverrideForTesting(detectedSimdLevel());
                p.optimized = bestSeconds(reps, [&] {
                    v1 = ItemKnnPredictor(knn).similarityTriangle(
                        sparse);
                    v2 = ItemKnnPredictor(knn).similarityTriangle(
                        dense_m);
                });
                setSimdOverrideForTesting(std::nullopt);
                const std::size_t cells =
                    matrix_n > 1 ? matrix_n * (matrix_n - 1) / 2 : 0;
                p.equal =
                    cells == 0 ||
                    (std::memcmp(s1.data(), v1.data(),
                                 cells * sizeof(double)) == 0 &&
                     std::memcmp(s2.data(), v2.data(),
                                 cells * sizeof(double)) == 0);
                doc.phase(std::move(p));
            }

            // --- predict ---------------------------------------------
            {
                Phase p;
                p.name = "predict";
                Prediction base, opt;
                p.baseline = bestSeconds(reps, [&] {
                    base = baselinePredict(sparse, knn);
                });
                p.optimized = bestSeconds(reps, [&] {
                    opt = ItemKnnPredictor(knn).predict(sparse);
                });
                p.equal = sameDense(base.dense, opt.dense) &&
                              base.iterations == opt.iterations &&
                              base.fallbackCells == opt.fallbackCells;
                doc.phase(std::move(p));
            }

            // --- matching --------------------------------------------
            // Baseline is the pre-table call path (believedPreferences
            // + oracle-backed roommates). It already benefits from the
            // rank-key preference sort, so the reported ratio is the
            // memo table's marginal win and deliberately conservative.
            Matching matched(population);
            {
                Phase p;
                p.name = "matching";
                Matching base_m(population);
                p.baseline = bestSeconds(reps, [&] {
                    const PreferenceProfile prefs =
                        instance.believedPreferences();
                    base_m = adaptedRoommates(
                                 prefs,
                                 [&](AgentId a, AgentId b) {
                                     return instance.believedDisutility(
                                         a, b);
                                 })
                                 .matching;
                });
                p.optimized = bestSeconds(reps, [&] {
                    const DisutilityTable table =
                        instance.believedTable(kThreads);
                    const PreferenceProfile prefs =
                        PreferenceProfile::fromTable(
                            table, /*exclude_self=*/true);
                    matched = adaptedRoommates(prefs, table).matching;
                });
                p.equal = true;
                for (AgentId a = 0; a < population; ++a)
                    p.equal &=
                        base_m.partnerOf(a) == matched.partnerOf(a);
                doc.phase(std::move(p));
            }

            // --- blocking scan ---------------------------------------
            // The table is built once per epoch for the phases above,
            // so the optimized scan reuses it; the baseline pays the
            // std::function oracle per cell, as the seed did.
            {
                Phase p;
                p.name = "blocking";
                const DisutilityFn oracle = [&](AgentId a, AgentId b) {
                    return instance.believedDisutility(a, b);
                };
                const DisutilityTable table =
                    instance.believedTable(kThreads);
                std::size_t base_count = 0, opt_count = 0;
                p.baseline = bestSeconds(reps, [&] {
                    base_count = baselineCountBlockingPairs(
                        matched, oracle, alpha, kThreads);
                });
                p.optimized = bestSeconds(reps, [&] {
                    opt_count = countBlockingPairs(matched, table,
                                                   alpha, kThreads);
                });
                const auto base_pairs = baselineFindBlockingPairs(
                    matched, oracle, alpha, kThreads);
                const auto opt_pairs = findBlockingPairs(
                    matched, table, alpha, kThreads);
                p.equal = base_count == opt_count &&
                              base_pairs.size() == opt_pairs.size();
                for (std::size_t i = 0;
                     p.equal && i < base_pairs.size(); ++i) {
                    p.equal =
                        base_pairs[i].a == opt_pairs[i].a &&
                        base_pairs[i].b == opt_pairs[i].b &&
                        base_pairs[i].gainA == opt_pairs[i].gainA &&
                        base_pairs[i].gainB == opt_pairs[i].gainB;
                }
                doc.phase(std::move(p));
            }

            // --- incremental blocking bounds -------------------------
            // The online service's steady state: the matching and the
            // table both held, so a maintained BlockingBounds answers
            // the epoch's blocking questions from its bitset while the
            // scan re-derives all O(n^2) pairs.
            {
                Phase p;
                p.name = "blocking_incremental";
                const DisutilityTable table =
                    instance.believedTable(kThreads);
                BlockingBounds bounds;
                bounds.rebuild(matched, table, alpha, kThreads);
                std::size_t base_count = 0, opt_count = 0;
                p.baseline = bestSeconds(reps, [&] {
                    base_count = countBlockingPairs(matched, table,
                                                    alpha, kThreads);
                });
                p.optimized = bestSeconds(reps, [&] {
                    bounds.update(matched, table, alpha, {}, kThreads);
                    opt_count = bounds.count();
                });
                p.equal = base_count == opt_count;
                const auto scan_pairs = findBlockingPairs(
                    matched, table, alpha, kThreads);
                const auto bound_pairs = bounds.pairs(table);
                p.equal &= scan_pairs.size() == bound_pairs.size();
                for (std::size_t i = 0;
                     p.equal && i < scan_pairs.size(); ++i) {
                    p.equal =
                        scan_pairs[i].a == bound_pairs[i].a &&
                        scan_pairs[i].b == bound_pairs[i].b &&
                        scan_pairs[i].gainA == bound_pairs[i].gainA &&
                        scan_pairs[i].gainB == bound_pairs[i].gainB;
                }
                doc.phase(std::move(p));
            }

            // --- sampled Shapley -------------------------------------
            {
                Phase p;
                p.name = "shapley";
                std::vector<double> interference(shapley_n, 1.0);
                for (std::size_t i = 0; i < shapley_n; ++i)
                    interference[i] += 0.1 * static_cast<double>(i);
                const auto v = interferenceGame(interference);
                p.optimized = bestSeconds(reps, [&] {
                    Rng shapley_rng(42);
                    shapleySampled(shapley_n, v, samples, shapley_rng,
                                   kThreads);
                });
                doc.phase(std::move(p));
            }

            doc.printPhases();

            for (const Phase &p : doc.phases())
                if (!p.equal)
                    throw std::runtime_error(
                        "equivalence violation in phase " + p.name);

            doc.workload("matrix", matrix_n);
            doc.workload("population", population);
            doc.workload("samples", samples);
            doc.workload("shapley_agents", shapley_n);
            doc.workload("alpha", alpha);
            doc.workload("density", density);
            doc.workload("reps", reps);
            doc.workload("threads", kThreads);
            doc.write(flags.get("out"));
        });
}
