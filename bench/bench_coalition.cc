/**
 * @file
 * Coalition-formation harness: n-way colocation versus the pairwise
 * stable matchers at equal machine capacity.
 *
 * For each group size G in --group-list, every trial population is
 * packed into ceil(n/G) machines three ways:
 *
 *  - *coalition*: the core-seeking formation (src/coalition) over the
 *    believed table, G jobs per CMP;
 *  - *SR-packed*: the adapted-stable-roommates pairing, pairs packed
 *    first-fit into the same machine count (splitting a pair only
 *    when no machine has two free slots);
 *  - *SMR-packed*: the stable-marriage-random pairing packed the same
 *    way.
 *
 * Every scheme is scored on stability (blocking coalitions of size
 * <= G under the shared believed preferences), performance (mean true
 * penalty), egalitarian welfare (worst-off agent's true penalty), and
 * fairness (penalty-vs-demand rank correlation). The headline number
 * is g<G>.blocking_ratio = coalition blocking count / max(1, SR-packed
 * blocking count): the formation should never be less stable than
 * packed pairs, so the CI floor holds it at or below 1:
 *
 *   bench_coalition && bench_json --file BENCH_coalition.json \
 *       --max g3.blocking_ratio=1,g4.blocking_ratio=1
 *
 * The harness also re-runs the G >= 3 formation at 1, 2, and 8
 * threads and fails hard unless structures and Shapley shares are
 * bit-identical — the same differential the test suite holds.
 *
 * Writes BENCH_coalition.json (bench "coalition" in the
 * cooper.bench.v2 shape of bench_doc.hh): no phases, one row of
 * values g<G>.* per group size; --tiny shrinks the population for the
 * `ctest -L bench-smoke` run.
 */

#include <algorithm>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "bench_doc.hh"
#include "coalition/blocking_coalition.hh"
#include "coalition/formation.hh"
#include "coalition/prefs.hh"
#include "coalition/structure.hh"
#include "coalition/value.hh"
#include "core/experiment.hh"
#include "core/policies.hh"
#include "matching/stable_roommates.hh"
#include "stats/correlation.hh"
#include "stats/online.hh"
#include "util/cli.hh"
#include "util/rng.hh"

namespace {

using namespace cooper;

/** Parse "2,3,4" into group sizes. */
std::vector<std::size_t>
parseGroupList(const std::string &text)
{
    std::vector<std::size_t> out;
    std::istringstream in(text);
    std::string item;
    while (std::getline(in, item, ','))
        if (!item.empty())
            out.push_back(static_cast<std::size_t>(std::stoul(item)));
    if (out.empty())
        throw std::runtime_error("empty --group-list");
    return out;
}

/** One scheme's scores on one trial. */
struct SchemeScore
{
    std::size_t blocking = 0;
    double meanPenalty = 0.0;
    double egalitarian = 0.0;
    double fairness = 0.0;
};

SchemeScore
score(const ColocationInstance &instance,
      const InterferenceModel &model, const CoalitionPreferences &prefs,
      const CoalitionStructure &structure, std::size_t group_size,
      std::size_t threads)
{
    CoalitionScanConfig scan;
    scan.maxSize = group_size;
    scan.threads = threads;

    SchemeScore out;
    out.blocking = scanBlockingCoalitions(structure, prefs, scan).count;

    std::vector<double> penalties(instance.agents(), 0.0);
    std::vector<double> demand;
    demand.reserve(instance.agents());
    for (AgentId a = 0; a < instance.agents(); ++a) {
        demand.push_back(
            instance.catalog().job(instance.typeOf(a)).gbps);
        if (structure.coalitionOf(a) == kNoCoalition)
            continue;
        std::vector<JobTypeId> others;
        for (const AgentId b : structure.othersOf(a))
            others.push_back(instance.typeOf(b));
        penalties[a] =
            coalitionMemberPenalty(model, instance.typeOf(a), others);
    }
    double acc = 0.0;
    for (const double p : penalties) {
        acc += p;
        out.egalitarian = std::max(out.egalitarian, p);
    }
    out.meanPenalty = acc / static_cast<double>(penalties.size());
    out.fairness = spearman(demand, penalties);
    return out;
}

/** Aggregates one group size across trials. */
struct GroupRow
{
    std::size_t groupSize = 0;
    std::size_t machines = 0;
    std::size_t trials = 0;
    std::size_t coreStableTrials = 0;
    double roundsMean = 0.0;
    std::size_t blockingCoalition = 0; //!< summed over trials
    std::size_t blockingSr = 0;
    std::size_t blockingSmr = 0;
    OnlineStats meanCoalition, meanSr, meanSmr;
    OnlineStats egalCoalition, egalSr, egalSmr;
    OnlineStats fairCoalition, fairSr, fairSmr;
    bool identicalAcrossThreads = true;
};

/** Write one group size's row of g<G>.* values. */
void
addRow(bench::BenchDoc &doc, const GroupRow &row)
{
    const std::string size = std::to_string(row.groupSize);
    const std::string g = "g" + size + ".";
    doc.value(g + "group_size", row.groupSize);
    doc.value(g + "machines", row.machines);
    doc.value(g + "trials", row.trials);
    doc.value(g + "core_stable_trials", row.coreStableTrials);
    doc.value(g + "rounds_mean", row.roundsMean);
    doc.value(g + "blocking_coalition", row.blockingCoalition);
    doc.value(g + "blocking_sr", row.blockingSr);
    doc.value(g + "blocking_smr", row.blockingSmr);
    doc.value(g + "blocking_ratio",
              static_cast<double>(row.blockingCoalition) /
                  static_cast<double>(
                      std::max<std::size_t>(1, row.blockingSr)));
    doc.value(g + "mean_penalty_coalition", row.meanCoalition.mean());
    doc.value(g + "mean_penalty_sr", row.meanSr.mean());
    doc.value(g + "mean_penalty_smr", row.meanSmr.mean());
    doc.value(g + "egalitarian_coalition", row.egalCoalition.mean());
    doc.value(g + "egalitarian_sr", row.egalSr.mean());
    doc.value(g + "egalitarian_smr", row.egalSmr.mean());
    doc.value(g + "fairness_coalition", row.fairCoalition.mean());
    doc.value(g + "fairness_sr", row.fairSr.mean());
    doc.value(g + "fairness_smr", row.fairSmr.mean());
    doc.verdict(g + "identical_across_threads",
                row.identicalAcrossThreads);
}

} // namespace

int
main(int argc, char **argv)
{
    CliFlags flags;
    flags.declare("agents", "120", "population size per trial");
    flags.declare("trials", "5", "trial populations");
    flags.declare("group-list", "2,3,4", "comma-separated group sizes");
    flags.declare("shapley-samples", "64",
                  "Shapley permutations per coalition");
    flags.declare("threads", "1",
                  "worker threads (0 = all hardware, 1 = serial)");
    flags.declare("seed", "2017", "population seed");
    flags.declare("tiny", "false",
                  "smoke-test sizes (agents 36, trials 2)");
    flags.declare("out", "BENCH_coalition.json", "JSON output path");
    if (!flags.parse(argc, argv))
        return 0;

    return cooper::bench::runHarness(
        "Coalition formation: n-way colocation vs packed pairs", [&] {
            const bool tiny = flags.getBool("tiny");
            const auto agents = static_cast<std::size_t>(
                tiny ? 36 : flags.getInt("agents"));
            const auto trials = static_cast<std::size_t>(
                tiny ? 2 : flags.getInt("trials"));
            const auto threads =
                static_cast<std::size_t>(flags.getInt("threads"));
            const auto samples = static_cast<std::size_t>(
                flags.getInt("shapley-samples"));
            const std::vector<std::size_t> group_list =
                parseGroupList(flags.get("group-list"));

            const Catalog catalog = Catalog::paperTableI();
            const InterferenceModel model(catalog);
            const auto seed =
                static_cast<std::uint64_t>(flags.getInt("seed"));

            std::vector<GroupRow> rows;
            for (const std::size_t g : group_list) {
                GroupRow row;
                row.groupSize = g;
                row.machines = (agents + g - 1) / g;
                row.trials = trials;

                Rng rng(seed);
                double rounds_sum = 0.0;
                for (std::size_t trial = 0; trial < trials; ++trial) {
                    const auto instance = sampleInstance(
                        catalog, model, agents, MixKind::Uniform, rng);
                    Rng trial_rng = rng.split();
                    const DisutilityTable believed =
                        instance.believedTable(threads);
                    const CoalitionPreferences prefs(believed);

                    std::vector<JobTypeId> types;
                    types.reserve(agents);
                    for (AgentId a = 0; a < agents; ++a)
                        types.push_back(instance.typeOf(a));

                    FormationConfig formation;
                    formation.groupSize = g;
                    formation.threads = threads;
                    formation.shapleySamples = samples;
                    const FormationResult formed = formCoalitions(
                        types, believed, model, formation, trial_rng);
                    if (formed.coreStable)
                        ++row.coreStableTrials;
                    rounds_sum += static_cast<double>(formed.rounds);

                    // Thread-count differential: structures and
                    // Shapley shares must be bit-identical at 1/2/8.
                    for (const std::size_t t : {std::size_t(2),
                                                std::size_t(8)}) {
                        FormationConfig alt = formation;
                        alt.threads = t;
                        const FormationResult other = formCoalitions(
                            types, believed, model, alt, trial_rng);
                        if (!(other.structure == formed.structure) ||
                            other.shapleyShares != formed.shapleyShares)
                            row.identicalAcrossThreads = false;
                    }

                    // Equal-capacity pair baselines.
                    const RoommatesResult sr = adaptedRoommates(
                        prefs.pairProfile(), believed);
                    const CoalitionStructure sr_packed =
                        CoalitionStructure::packMatching(sr.matching, g);
                    Rng smr_rng = trial_rng.substream(0x5112);
                    const Matching smr =
                        StableMarriageRandomPolicy().assign(instance,
                                                            smr_rng);
                    const CoalitionStructure smr_packed =
                        CoalitionStructure::packMatching(smr, g);

                    const SchemeScore sc = score(instance, model, prefs,
                                                 formed.structure, g,
                                                 threads);
                    const SchemeScore ss = score(instance, model, prefs,
                                                 sr_packed, g, threads);
                    const SchemeScore sm = score(instance, model, prefs,
                                                 smr_packed, g, threads);
                    row.blockingCoalition += sc.blocking;
                    row.blockingSr += ss.blocking;
                    row.blockingSmr += sm.blocking;
                    row.meanCoalition.add(sc.meanPenalty);
                    row.meanSr.add(ss.meanPenalty);
                    row.meanSmr.add(sm.meanPenalty);
                    row.egalCoalition.add(sc.egalitarian);
                    row.egalSr.add(ss.egalitarian);
                    row.egalSmr.add(sm.egalitarian);
                    row.fairCoalition.add(sc.fairness);
                    row.fairSr.add(ss.fairness);
                    row.fairSmr.add(sm.fairness);
                }
                row.roundsMean =
                    rounds_sum / static_cast<double>(trials);
                if (!row.identicalAcrossThreads)
                    throw std::runtime_error(
                        "coalition formation diverged across thread "
                        "counts at G=" + std::to_string(g));
                rows.push_back(row);
            }

            Table table({"G", "scheme", "blocking", "mean_pen",
                         "egalitarian", "fairness"});
            for (const GroupRow &row : rows) {
                const auto g_txt = Table::num(
                    static_cast<long long>(row.groupSize));
                table.addRow({g_txt, "coalition",
                              std::to_string(row.blockingCoalition),
                              Table::num(row.meanCoalition.mean(), 4),
                              Table::num(row.egalCoalition.mean(), 4),
                              Table::num(row.fairCoalition.mean(), 3)});
                table.addRow({g_txt, "SR-packed",
                              std::to_string(row.blockingSr),
                              Table::num(row.meanSr.mean(), 4),
                              Table::num(row.egalSr.mean(), 4),
                              Table::num(row.fairSr.mean(), 3)});
                table.addRow({g_txt, "SMR-packed",
                              std::to_string(row.blockingSmr),
                              Table::num(row.meanSmr.mean(), 4),
                              Table::num(row.egalSmr.mean(), 4),
                              Table::num(row.fairSmr.mean(), 3)});
            }
            table.print(std::cout);
            std::cout << "\nExpected shape: the core-seeking formation "
                         "finds groupings with no\nmore blocking "
                         "coalitions than packed pairs at the same "
                         "machine count,\nand G = 2 reproduces the "
                         "stable-roommates pairing exactly.\n";

            bench::BenchDoc doc("coalition", tiny);
            doc.workload("agents", agents);
            doc.workload("trials", trials);
            doc.workload("types", catalog.size());
            doc.workload("threads", threads);
            doc.workload("shapley_samples", samples);
            for (const GroupRow &row : rows)
                addRow(doc, row);
            doc.write(flags.get("out"));
        });
}
