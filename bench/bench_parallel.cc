/**
 * @file
 * Scaling harness for the parallel kernels: times sampled Shapley,
 * item-kNN fill, blocking-pair scans, and experiment replications at
 * 1/2/4/8 threads, prints the speedups, and cross-checks that every
 * thread count produced bit-identical results (the determinism
 * contract from DESIGN.md, "Parallelism & determinism").
 *
 * On a machine with >= 8 hardware threads the Shapley and item-kNN
 * kernels should clear 3x at 8 threads; on smaller machines the
 * speedup degrades gracefully toward 1x while the identity checks
 * still hold.
 */

#include <chrono>
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_common.hh"
#include "cf/item_knn.hh"
#include "cf/subsample.hh"
#include "core/experiment.hh"
#include "core/policies.hh"
#include "game/shapley.hh"
#include "matching/blocking.hh"
#include "sim/interference.hh"
#include "util/cli.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"
#include "workload/catalog.hh"

namespace {

using namespace cooper;

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

struct KernelResult
{
    std::string name;
    std::vector<double> seconds;  //!< per thread count
    bool identical = true;        //!< outputs bit-identical to serial
};

void
printResults(const std::vector<std::size_t> &thread_counts,
             const std::vector<KernelResult> &kernels)
{
    std::vector<std::string> header{"kernel"};
    for (std::size_t t : thread_counts)
        header.push_back("t=" + std::to_string(t));
    for (std::size_t t : thread_counts)
        header.push_back('x' + std::to_string(t));
    header.push_back("identical");
    Table table(std::move(header));
    for (const KernelResult &k : kernels) {
        std::vector<std::string> row{k.name};
        for (double s : k.seconds)
            row.push_back(Table::num(s * 1e3, 2) + " ms");
        for (double s : k.seconds)
            row.push_back(Table::num(k.seconds.front() / s, 2));
        row.push_back(k.identical ? "yes" : "NO");
        table.addRow(std::move(row));
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    CliFlags flags;
    flags.declare("samples", "20000", "Shapley permutation samples");
    flags.declare("agents", "32", "Shapley game size (<= 32)");
    flags.declare("matrix", "64", "item-kNN matrix dimension");
    flags.declare("population", "768", "blocking-scan population");
    flags.declare("replications", "16", "experiment replications");
    flags.declare("reps", "3", "timing repetitions (best-of)");
    if (!flags.parse(argc, argv))
        return 0;

    return cooper::bench::runHarness(
        "Parallel kernel scaling (deterministic across thread counts)",
        [&] {
            const std::vector<std::size_t> thread_counts{1, 2, 4, 8};
            const int reps = static_cast<int>(flags.getInt("reps"));
            std::vector<KernelResult> kernels;

            std::cout << "hardware threads: "
                      << ThreadPool::global().threadCount() << "\n\n";

            // --- Shapley Monte-Carlo sampling -----------------------
            {
                const auto n = static_cast<std::size_t>(
                    flags.getInt("agents"));
                const auto samples = static_cast<std::size_t>(
                    flags.getInt("samples"));
                std::vector<double> interference(n, 1.0);
                for (std::size_t i = 0; i < n; ++i)
                    interference[i] += 0.1 * static_cast<double>(i);
                const auto v = interferenceGame(interference);

                KernelResult k;
                k.name = "shapley " + std::to_string(n) + "x" +
                         std::to_string(samples);
                std::vector<double> baseline;
                for (std::size_t threads : thread_counts) {
                    std::vector<double> phi;
                    k.seconds.push_back(bestSeconds(reps, [&] {
                        Rng rng(42);
                        phi = shapleySampled(n, v, samples, rng,
                                             threads);
                    }));
                    if (baseline.empty())
                        baseline = phi;
                    else
                        k.identical &= sameBits(baseline, phi);
                }
                kernels.push_back(std::move(k));
            }

            // --- Item-kNN fill --------------------------------------
            {
                const auto n = static_cast<std::size_t>(
                    flags.getInt("matrix"));
                Rng rng(5);
                SparseMatrix full(n, n);
                for (std::size_t i = 0; i < n; ++i)
                    for (std::size_t j = 0; j < n; ++j)
                        full.set(i, j, rng.uniform() * 0.3);
                const SparseMatrix sparse =
                    subsampleSymmetric(full, 0.25, 2, rng);

                KernelResult k;
                k.name = "item-knn " + std::to_string(n) + "x" +
                         std::to_string(n);
                std::vector<std::vector<double>> baseline;
                for (std::size_t threads : thread_counts) {
                    ItemKnnConfig config;
                    config.threads = threads;
                    Prediction prediction;
                    k.seconds.push_back(bestSeconds(reps, [&] {
                        prediction =
                            ItemKnnPredictor(config).predict(sparse);
                    }));
                    if (baseline.empty()) {
                        baseline = prediction.dense;
                    } else {
                        for (std::size_t r = 0; r < n; ++r)
                            k.identical &= sameBits(
                                baseline[r], prediction.dense[r]);
                    }
                }
                kernels.push_back(std::move(k));
            }

            // --- Blocking-pair scan ---------------------------------
            {
                const auto n = static_cast<std::size_t>(
                    flags.getInt("population"));
                Rng rng(11);
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
                for (std::size_t i = 0; i + 1 < n; i += 2)
                    m.pair(order[i], order[i + 1]);

                KernelResult k;
                k.name = "blocking " + std::to_string(n) + " agents";
                std::size_t baseline = 0;
                bool first = true;
                for (std::size_t threads : thread_counts) {
                    std::size_t count = 0;
                    k.seconds.push_back(bestSeconds(reps, [&] {
                        count = countBlockingPairs(m, d, 0.01,
                                                   threads);
                    }));
                    if (first) {
                        baseline = count;
                        first = false;
                    } else {
                        k.identical &= count == baseline;
                    }
                }
                kernels.push_back(std::move(k));
            }

            // --- Experiment replications ----------------------------
            {
                const auto replications = static_cast<std::size_t>(
                    flags.getInt("replications"));
                const Catalog catalog = Catalog::paperTableI();
                const InterferenceModel model(catalog);
                const auto policy = makePolicy("SMR");
                const Rng root(17);

                ReplicationPlan plan;
                plan.replications = replications;
                plan.agents = 200;

                KernelResult k;
                k.name = "replications x" +
                         std::to_string(replications);
                std::vector<double> baseline;
                for (std::size_t threads : thread_counts) {
                    plan.threads = threads;
                    std::vector<double> means;
                    k.seconds.push_back(bestSeconds(reps, [&] {
                        const auto runs = runReplications(
                            *policy, catalog, model, plan, root);
                        means.clear();
                        for (const PolicyRun &run : runs)
                            means.push_back(run.meanPenalty);
                    }));
                    if (baseline.empty())
                        baseline = means;
                    else
                        k.identical &= sameBits(baseline, means);
                }
                kernels.push_back(std::move(k));
            }

            printResults(thread_counts, kernels);

            for (const KernelResult &k : kernels)
                if (!k.identical)
                    throw std::runtime_error(
                        "determinism violation in kernel " + k.name);
            std::cout << "\nall kernels bit-identical across thread "
                         "counts\n";
        });
}
