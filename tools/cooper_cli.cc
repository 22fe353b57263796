/**
 * @file
 * cooper_cli — drive the colocation pipeline through files, the way
 * the paper's implementation wires agents and coordinator together
 * (Section IV.B: assignments are written to files and sent to
 * agents).
 *
 * Subcommands:
 *   profile  sample colocation profiles           -> profiles file
 *   predict  fill a sparse profile matrix         -> profiles file
 *   match    colocate a population                -> matching file
 *   assess   count blocking pairs of a matching   -> report on stdout
 *   epoch    run one full in-memory epoch         -> report on stdout
 *   serve    replay a churn trace online          -> summary JSON
 *
 * `serve` runs the event-driven online service (src/online) over a
 * trace from tools/trace_gen: admission, probing, warm-started
 * incremental prediction, and budgeted re-matching, epoch by epoch on
 * a virtual clock. Its --out summary contains only decision-path
 * quantities, so replaying the same (trace, seed, config) emits a
 * byte-identical file at any --threads value; --checkpoint/--restore
 * round-trip the driver state through io/serialize. --fault-plan
 * loads a deterministic fault-injection script (src/fault): probe
 * timeouts, lost/corrupted measurements, node crashes, and
 * checkpoint-write failures, all replayed bit-identically too.
 * --shards K >= 1 routes the trace through the sharded fleet driver
 * (src/shard): K matching domains stepped concurrently plus a
 * budgeted cross-shard rebalance pass per epoch; --shards 1
 * reproduces the flat driver bit-for-bit.
 *
 * `epoch` drives profile -> predict -> match -> assess -> dispatch in
 * one process (plus a sampled-Shapley attribution step) and is the
 * entry point for the observability layer: --metrics-out and
 * --trace-out install a collector session around the whole pipeline.
 * Bare flags route to it, so
 *   cooper_cli --policy SMR --metrics-out m.json --trace-out t.json
 * emits a metrics JSON and a Chrome-trace JSON (load the latter in
 * chrome://tracing or https://ui.perfetto.dev).
 *
 * A full round trip:
 *   cooper_cli profile --ratio 0.25 --out profiles.txt
 *   cooper_cli predict --in profiles.txt --out dense.txt
 *   cooper_cli match --profiles dense.txt --agents 100 --policy SMR \
 *       --out matching.txt
 *   cooper_cli assess --profiles dense.txt --matching matching.txt \
 *       --alpha 0.02
 */

#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cf/item_knn.hh"
#include "net/server.hh"
#include "net/service_plane.hh"
#include "core/experiment.hh"
#include "core/framework.hh"
#include "core/instance.hh"
#include "core/policies.hh"
#include "fault/plan.hh"
#include "game/shapley.hh"
#include "io/serialize.hh"
#include "matching/blocking.hh"
#include "obs/obs.hh"
#include "online/driver.hh"
#include "shard/sharded_driver.hh"
#include "sim/profiler.hh"
#include "util/cli.hh"
#include "util/error.hh"
#include "util/table.hh"
#include "workload/population.hh"

namespace {

using namespace cooper;

std::string
usageText()
{
    return "Usage: cooper_cli <profile|predict|match|assess|epoch|serve> "
           "[flags]\n"
           "  profile  --ratio R --seed S --out FILE\n"
           "  predict  --in FILE --iterations N --threads T --out FILE\n"
           "  match    --profiles FILE --agents N --mix M --policy P\n"
           "           --seed S --threads T --out FILE\n"
           "  assess   --profiles FILE --agents N --mix M --seed S\n"
           "           --matching FILE --alpha A --threads T\n"
           "  epoch    --agents N --mix M --policy P --ratio R --seed S\n"
           "           --alpha A --threads T --shapley-samples K\n"
           "           --metrics-out FILE --trace-out FILE\n"
           "  serve    --trace FILE --policy P --alpha A --seed S\n"
           "           --group-size G (with --policy coalition)\n"
           "           --epoch-ticks T --admit N --queue-depth N\n"
           "           --probes N --budget N --rematch-threshold N\n"
           "           --threads T --out FILE\n"
           "           --checkpoint FILE --restore FILE\n"
           "           --fault-plan FILE --probe-retries N\n"
           "           --probe-budget N --quarantine-after N\n"
           "           --quarantine-epochs N --checkpoint-every N\n"
           "           --shards K --rebalance-budget N\n"
           "           --listen --port P --port-file FILE\n"
           "           --runs N --max-pending N --idle-timeout-ms T\n"
           "Bare flags (cooper_cli --policy SMR ...) route to epoch.\n"
           "serve --listen accepts the churn trace over TCP instead of\n"
           "--trace: clients (tools/load_gen) stream framed events and\n"
           "receive the same byte-identical summary the in-process\n"
           "replay writes (see DESIGN.md, \"Service plane\"). --runs N\n"
           "hosts N independent replays (run r uses seed+r; summaries\n"
           "land at --out.run<r>) behind one epoll loop.\n"
           "--metrics-out / --trace-out enable the observability layer\n"
           "(off by default; see DESIGN.md, \"Observability\").\n"
           "--threads 0 uses all hardware threads, 1 runs serially;\n"
           "results are identical either way (see DESIGN.md,\n"
           "\"Parallelism & determinism\").\n"
           "Run a subcommand with --help for its flags.\n";
}

/** The --threads flag, shared by the parallel subcommands. */
void
declareThreads(CliFlags &flags)
{
    flags.declare("threads", "0",
                  "worker threads (0 = all hardware, 1 = serial)");
}

std::size_t
threadsFromFlags(const CliFlags &flags)
{
    return flags.getCount("threads");
}

/** Dense believed matrix from a (possibly sparse) profiles file. */
PenaltyMatrix
believedFromFile(const Catalog &catalog, const std::string &path,
                 std::size_t threads)
{
    const SparseMatrix profiles = loadProfiles(path);
    fatalIf(profiles.rows() != catalog.size() ||
                profiles.cols() != catalog.size(),
            "profiles file is ", profiles.rows(), "x", profiles.cols(),
            ", expected ", catalog.size(), "x", catalog.size());
    // Fill any unknowns through the predictor; a dense file passes
    // through unchanged.
    ItemKnnConfig knn_config;
    knn_config.threads = threads;
    const Prediction prediction =
        ItemKnnPredictor(knn_config).predict(profiles);
    PenaltyMatrix believed(catalog.size());
    for (std::size_t i = 0; i < catalog.size(); ++i)
        for (std::size_t j = 0; j < catalog.size(); ++j)
            believed(i, j) = prediction.dense[i][j];
    return believed;
}

/** Population sampled exactly as `match` would for these flags. */
std::vector<JobTypeId>
populationFromFlags(const Catalog &catalog, const CliFlags &flags)
{
    MixKind mix = MixKind::Uniform;
    for (MixKind candidate : allMixes())
        if (mixName(candidate) == flags.get("mix"))
            mix = candidate;
    Rng rng(static_cast<std::uint64_t>(flags.getInt("seed")));
    return samplePopulation(
        catalog, flags.getCount("agents"), mix, rng);
}

int
cmdProfile(int argc, const char *const *argv)
{
    CliFlags flags;
    flags.declare("ratio", "0.25", "fraction of colocations to profile");
    flags.declare("repeats", "3", "measurements per colocation");
    flags.declare("seed", "1", "profiler noise seed");
    flags.declare("out", "profiles.txt", "output profiles file");
    if (!flags.parse(argc, argv))
        return 0;

    const Catalog catalog = Catalog::paperTableI();
    const InterferenceModel model(catalog);
    SystemProfiler profiler(
        model, NoiseConfig{},
        static_cast<std::uint64_t>(flags.getInt("seed")));
    const SparseMatrix profiles = profiler.sampleProfiles(
        flags.getDouble("ratio"), 2,
        flags.getCount("repeats"));
    saveProfiles(flags.get("out"), profiles);
    std::cout << "profiled " << profiles.knownCount() << " of "
              << catalog.size() * catalog.size() << " colocations ("
              << profiler.database().totalSamples()
              << " measurements) -> " << flags.get("out") << "\n";
    return 0;
}

int
cmdPredict(int argc, const char *const *argv)
{
    CliFlags flags;
    flags.declare("in", "profiles.txt", "sparse profiles file");
    flags.declare("iterations", "2", "predictor iterations");
    declareThreads(flags);
    flags.declare("out", "dense.txt", "output dense profiles file");
    if (!flags.parse(argc, argv))
        return 0;

    const SparseMatrix sparse = loadProfiles(flags.get("in"));
    ItemKnnConfig config;
    config.iterations = flags.getCount("iterations");
    config.threads = threadsFromFlags(flags);
    const Prediction prediction =
        ItemKnnPredictor(config).predict(sparse);

    SparseMatrix dense(sparse.rows(), sparse.cols());
    for (std::size_t r = 0; r < sparse.rows(); ++r)
        for (std::size_t c = 0; c < sparse.cols(); ++c)
            dense.set(r, c, prediction.dense[r][c]);
    saveProfiles(flags.get("out"), dense);
    std::cout << "predicted "
              << dense.knownCount() - sparse.knownCount()
              << " unobserved colocations in " << prediction.iterations
              << " iteration(s) -> " << flags.get("out") << "\n";
    return 0;
}

int
cmdMatch(int argc, const char *const *argv)
{
    CliFlags flags;
    flags.declare("profiles", "dense.txt", "believed profiles file");
    flags.declare("agents", "100", "population size");
    flags.declare("mix", "Uniform",
                  "Uniform|Beta-Low|Gaussian|Beta-High");
    flags.declare("policy", "SMR", "GR|CO|SMP|SMR|SR|TH");
    flags.declare("seed", "1", "population / policy seed");
    declareThreads(flags);
    flags.declare("out", "matching.txt", "output matching file");
    if (!flags.parse(argc, argv))
        return 0;

    const Catalog catalog = Catalog::paperTableI();
    const InterferenceModel model(catalog);
    PenaltyMatrix believed = believedFromFile(
        catalog, flags.get("profiles"), threadsFromFlags(flags));
    ColocationInstance instance(catalog,
                                populationFromFlags(catalog, flags),
                                model.penaltyMatrix(),
                                std::move(believed));

    Rng rng(static_cast<std::uint64_t>(flags.getInt("seed")) + 7);
    const auto policy = makePolicy(flags.get("policy"));
    const Matching matching = policy->assign(instance, rng);
    saveMatching(flags.get("out"), matching);
    std::cout << "matched " << matching.pairCount() << " pairs with "
              << policy->name() << "; mean true penalty "
              << Table::num(instance.meanTruePenalty(matching), 4)
              << " -> " << flags.get("out") << "\n";
    return 0;
}

int
cmdAssess(int argc, const char *const *argv)
{
    CliFlags flags;
    flags.declare("profiles", "dense.txt", "believed profiles file");
    flags.declare("agents", "100", "population size (as for match)");
    flags.declare("mix", "Uniform", "mix used for match");
    flags.declare("seed", "1", "seed used for match");
    flags.declare("matching", "matching.txt", "matching file");
    flags.declare("alpha", "0.02", "minimum gain to break away");
    declareThreads(flags);
    if (!flags.parse(argc, argv))
        return 0;

    const std::size_t threads = threadsFromFlags(flags);
    const Catalog catalog = Catalog::paperTableI();
    const InterferenceModel model(catalog);
    PenaltyMatrix believed =
        believedFromFile(catalog, flags.get("profiles"), threads);
    ColocationInstance instance(catalog,
                                populationFromFlags(catalog, flags),
                                model.penaltyMatrix(),
                                std::move(believed));

    const Matching matching = loadMatching(flags.get("matching"));
    fatalIf(matching.size() != instance.agents(),
            "matching covers ", matching.size(), " agents, population "
            "has ", instance.agents());

    const DisutilityTable truth(
        instance.agents(), instance.agents(),
        [&](AgentId a, AgentId b) {
            return instance.trueDisutility(a, b);
        },
        threads);
    const auto pairs = findBlockingPairs(
        matching, truth, flags.getDouble("alpha"), threads);
    std::vector<std::uint8_t> blocked(matching.size(), 0);
    for (const auto &pair : pairs) {
        blocked[pair.a] = 1;
        blocked[pair.b] = 1;
    }
    std::size_t agents_blocked = 0;
    for (std::uint8_t b : blocked)
        agents_blocked += b;

    std::cout << "mean true penalty: "
              << Table::num(instance.meanTruePenalty(matching), 4)
              << "\nblocking pairs (alpha "
              << flags.getDouble("alpha") << "): " << pairs.size()
              << "\nagents recommending break-away: " << agents_blocked
              << " of " << matching.size() << "\n";
    return 0;
}

int
cmdEpoch(int argc, const char *const *argv)
{
    CliFlags flags;
    flags.declare("agents", "60", "population size");
    flags.declare("mix", "Uniform",
                  "Uniform|Beta-Low|Gaussian|Beta-High");
    flags.declare("policy", "SMR", "GR|CO|SMP|SMR|SR|TH");
    flags.declare("ratio", "0.25", "fraction of colocations to profile");
    flags.declare("alpha", "0.02", "minimum gain to break away");
    flags.declare("seed", "1", "population / noise / policy seed");
    flags.declare("shapley-samples", "64",
                  "permutations for the attribution step (0 = skip)");
    declareThreads(flags);
    flags.declare("metrics-out", "",
                  "write metrics JSON here (enables metrics)");
    flags.declare("trace-out", "",
                  "write Chrome-trace JSON here (enables tracing)");
    if (!flags.parse(argc, argv))
        return 0;

    const std::size_t threads = threadsFromFlags(flags);
    const auto seed = static_cast<std::uint64_t>(flags.getInt("seed"));

    ObsConfig obs;
    obs.metricsOut = flags.get("metrics-out");
    obs.traceOut = flags.get("trace-out");
    obs.metrics = !obs.metricsOut.empty();
    obs.tracing = !obs.traceOut.empty();

    FrameworkConfig config;
    config.policy = flags.get("policy");
    config.sampleRatio = flags.getDouble("ratio");
    config.alpha = flags.getDouble("alpha");
    config.execution.threads = threads;

    const Catalog catalog = Catalog::paperTableI();
    const InterferenceModel model(catalog);

    // The CLI owns the session so the epoch and the post-matching
    // attribution step feed one registry and one trace; the
    // framework's own ObsScope then stays passive.
    const ObsScope scope(obs);
    CooperFramework framework(catalog, model, config, seed);
    const std::vector<JobTypeId> population =
        populationFromFlags(catalog, flags);
    EpochReport report;
    {
        const TraceSpan span("cli.epoch", "cli");
        report = framework.runEpoch(population);
    }

    // Cross-check the agents' message-exchange discovery with a
    // direct blocking-pair scan over true disutilities.
    ColocationInstance instance = framework.buildInstance(population);
    const DisutilityTable truth(
        instance.agents(), instance.agents(),
        [&](AgentId a, AgentId b) {
            return instance.trueDisutility(a, b);
        },
        threads);
    const auto blocking =
        findBlockingPairs(report.matching, truth, config.alpha, threads);

    std::cout << "epoch with " << config.policy << ": mean true penalty "
              << Table::num(report.meanPenalty, 4) << ", "
              << report.blockingPairs << " blocking pair(s) via "
              "messages (" << blocking.size() << " by direct scan), "
              << report.breakAwayAgents
              << " break-away recommendation(s), dispatched "
              << report.dispatch.completions.size() << " pair(s)\n";

    // Attribute the matched agents' total interference with a sampled
    // Shapley value (the game tier's hot path). CoalitionMask bounds
    // the coalition, so attribute across the most-penalized agents.
    const auto samples = flags.getCount("shapley-samples");
    if (samples > 0) {
        std::vector<double> penalties = report.penalties;
        std::sort(penalties.begin(), penalties.end(),
                  std::greater<double>());
        constexpr std::size_t kMaxCoalition = 12;
        if (penalties.size() > kMaxCoalition)
            penalties.resize(kMaxCoalition);
        if (penalties.size() >= 2) {
            Rng rng(seed + 11);
            const std::vector<double> phi = shapleySampled(
                penalties.size(), interferenceGame(penalties), samples,
                rng, threads);
            double attributed = 0.0;
            for (double p : phi)
                attributed += p;
            std::cout << "shapley attribution over the "
                      << penalties.size() << " most penalized agents ("
                      << samples << " permutations): total "
                      << Table::num(attributed, 4) << ", max share "
                      << Table::num(
                             *std::max_element(phi.begin(), phi.end()),
                             4)
                      << "\n";
        }
    }

    if (ObsSession *session = scope.session()) {
        if (MetricsRegistry *metrics = session->metrics())
            std::cout << "\n" << metrics->toTable().toText();
    }
    if (!obs.metricsOut.empty())
        std::cout << "metrics -> " << obs.metricsOut << "\n";
    if (!obs.traceOut.empty())
        std::cout << "trace -> " << obs.traceOut << "\n";
    return 0;
}

int
cmdServe(int argc, const char *const *argv)
{
    CliFlags flags;
    flags.declare("trace", "trace.txt", "churn trace file (see trace_gen)");
    flags.declare("policy", "SMR", "GR|CO|SMP|SMR|SR|TH|coalition");
    flags.declare("group-size", "2",
                  "jobs per CMP under --policy coalition (2..20)");
    flags.declare("alpha", "0.02", "minimum gain to break away");
    flags.declare("seed", "1", "probe-noise / policy seed");
    flags.declare("epoch-ticks", "100", "virtual-clock ticks per epoch");
    flags.declare("admit", "8", "arrivals admitted per epoch");
    flags.declare("queue-depth", "64",
                  "admission backpressure bound (0 = unbounded)");
    flags.declare("probes", "4",
                  "probe colocations per admitted arrival");
    flags.declare("repeats", "3", "measurements averaged per probe");
    flags.declare("refresh", "0", "profile refresh probes per epoch");
    flags.declare("budget", "8", "kept pairs breakable per epoch");
    flags.declare("rematch-threshold", "32",
                  "blocking pairs that force a full re-match");
    flags.declare("full-predict", "0",
                  "1 = re-predict from scratch every epoch (results "
                  "are identical, only slower)");
    flags.declare("fault-plan", "",
                  "JSON fault-injection script (cooper.faultplan.v1); "
                  "empty = no faults");
    flags.declare("probe-retries", "3",
                  "probe retries per cell before it fails");
    flags.declare("probe-budget", "0",
                  "probe attempts per epoch (0 = unbounded; exhausted "
                  "cells fall back to CF prediction)");
    flags.declare("quarantine-after", "2",
                  "failed probe cells that quarantine an arrival "
                  "(0 = never quarantine)");
    flags.declare("quarantine-epochs", "2",
                  "epochs a quarantined job sits out");
    flags.declare("checkpoint-every", "0",
                  "write --checkpoint every N epochs too (0 = only at "
                  "the end)");
    flags.declare("shards", "0",
                  "matching domains for the sharded fleet driver "
                  "(0 = flat unsharded driver; clamped to the catalog)");
    flags.declare("rebalance-budget", "4",
                  "cross-shard migrations per epoch when sharded "
                  "(0 = no rebalancing)");
    flags.declare("listen", "false",
                  "serve the trace over TCP: accept framed events from "
                  "load_gen clients instead of reading --trace");
    flags.declare("port", "0",
                  "TCP listen port for --listen (0 = ephemeral)");
    flags.declare("port-file", "",
                  "write the bound port here once listening (lets "
                  "scripts find an ephemeral port)");
    flags.declare("runs", "1",
                  "independent replays served concurrently under "
                  "--listen; run r uses seed+r and writes "
                  "--out.run<r> (plain --out when 1)");
    flags.declare("max-pending", "4096",
                  "parked out-of-order events per connection before "
                  "the server answers Busy (0 = unbounded)");
    flags.declare("idle-timeout-ms", "0",
                  "reap connections silent this long under --listen "
                  "(0 = never)");
    declareThreads(flags);
    flags.declare("out", "online.json",
                  "deterministic run-summary JSON");
    flags.declare("checkpoint", "",
                  "write the final driver state here");
    flags.declare("restore", "", "resume from this checkpoint file");
    flags.declare("metrics-out", "",
                  "write metrics JSON here (enables metrics)");
    flags.declare("trace-out", "",
                  "write Chrome-trace JSON here (enables tracing)");
    if (!flags.parse(argc, argv))
        return 0;

    ObsConfig obs;
    obs.metricsOut = flags.get("metrics-out");
    obs.traceOut = flags.get("trace-out");
    obs.metrics = !obs.metricsOut.empty();
    obs.tracing = !obs.traceOut.empty();

    FrameworkConfig config;
    config.policy = flags.get("policy");
    config.alpha = flags.getDouble("alpha");
    config.execution.threads = threadsFromFlags(flags);
    OnlineConfig &online = config.execution.online;
    online.epochTicks = flags.getCount("epoch-ticks");
    online.admitPerEpoch = flags.getCount("admit");
    online.maxQueueDepth = flags.getCount("queue-depth");
    online.probesPerArrival = flags.getCount("probes");
    online.profileRepeats = flags.getCount("repeats");
    online.refreshProbesPerEpoch = flags.getCount("refresh");
    online.migrationBudget = flags.getCount("budget");
    online.fullRematchBlockingPairs = flags.getCount("rematch-threshold");
    online.incremental = flags.getInt("full-predict") == 0;
    online.probeMaxRetries = flags.getCount("probe-retries");
    online.probeBudgetPerEpoch = flags.getCount("probe-budget");
    online.quarantineAfterFailures = flags.getCount("quarantine-after");
    online.quarantineEpochs = flags.getCount("quarantine-epochs");
    online.checkpointEveryEpochs = flags.getCount("checkpoint-every");
    online.groupSize = flags.getCount("group-size");
    const auto shardCount = flags.getCount("shards");
    if (shardCount > 0)
        online.shards = shardCount;
    online.rebalanceBudgetPerEpoch = flags.getCount("rebalance-budget");

    // Fail fast on a bad policy/group/shard combination — before any
    // trace is loaded or socket bound.
    validateServeOptions(config.policy, online.groupSize, shardCount);

    const Catalog catalog = Catalog::paperTableI();
    const InterferenceModel model(catalog);

    // The CLI owns the session so every epoch feeds one registry and
    // one trace; the driver's own ObsScope then stays passive.
    const ObsScope scope(obs);
    const auto seed = static_cast<std::uint64_t>(flags.getInt("seed"));

    if (flags.getBool("listen")) {
        // Network mode: the trace arrives as framed events over TCP
        // (tools/load_gen); the ServicePlane restores canonical order
        // so the summary is byte-identical to the --trace replay.
        // --runs N hosts N independent replays (run r seeded seed+r)
        // behind the same epoll loop.
        const auto runs = flags.getCount("runs");
        fatalIf(runs == 0, "serve: --runs must be >= 1");
        fatalIf(runs > 1 && !flags.get("restore").empty(),
                "serve: --restore only applies to a single run "
                "(--runs 1); each run seeds its own fresh driver");
        const auto runPath = [runs](const std::string &base,
                                    std::uint64_t r) {
            return runs > 1 ? formatMessage(base, ".run", r) : base;
        };

        std::vector<std::unique_ptr<OnlineDriver>> flats;
        std::vector<std::unique_ptr<ShardedDriver>> shardeds;
        std::vector<std::unique_ptr<net::ServicePlane>> planes;
        const std::string checkpointPath = flags.get("checkpoint");
        for (std::uint64_t r = 0; r < runs; ++r) {
            const std::uint64_t runSeed = seed + r;
            const std::string runCheckpoint =
                checkpointPath.empty()
                    ? std::string()
                    : runPath(checkpointPath, r);
            std::unique_ptr<net::ServicePlane> plane;
            if (shardCount > 0) {
                auto sharded = std::make_unique<ShardedDriver>(
                    catalog, model, config, runSeed);
                if (!flags.get("fault-plan").empty())
                    sharded->setFaultPlan(loadFaultPlan(
                        flags.get("fault-plan"), runSeed));
                if (online.checkpointEveryEpochs > 0 &&
                    !runCheckpoint.empty())
                    sharded->setCheckpointSink(
                        [runCheckpoint](const ShardedState &state) {
                            saveShardedState(runCheckpoint, state);
                            return true;
                        });
                if (!flags.get("restore").empty())
                    sharded->restore(
                        loadShardedState(flags.get("restore")));
                plane = std::make_unique<net::ServicePlane>(
                    catalog, *sharded);
                if (!runCheckpoint.empty())
                    plane->setCheckpointHook(
                        [&driver = *sharded, runCheckpoint]() {
                            saveShardedState(runCheckpoint,
                                             driver.snapshot());
                            return true;
                        });
                shardeds.push_back(std::move(sharded));
            } else {
                auto flat = std::make_unique<OnlineDriver>(
                    catalog, model, config, runSeed);
                if (!flags.get("fault-plan").empty())
                    flat->setFaultPlan(loadFaultPlan(
                        flags.get("fault-plan"), runSeed));
                if (online.checkpointEveryEpochs > 0 &&
                    !runCheckpoint.empty())
                    flat->setCheckpointSink(
                        [runCheckpoint](const OnlineState &state) {
                            saveOnlineState(runCheckpoint, state);
                            return true;
                        });
                if (!flags.get("restore").empty())
                    flat->restore(
                        loadOnlineState(flags.get("restore")));
                plane = std::make_unique<net::ServicePlane>(catalog,
                                                            *flat);
                if (!runCheckpoint.empty())
                    plane->setCheckpointHook(
                        [&driver = *flat, runCheckpoint]() {
                            saveOnlineState(runCheckpoint,
                                            driver.snapshot());
                            return true;
                        });
                flats.push_back(std::move(flat));
            }
            planes.push_back(std::move(plane));
        }

        net::ServerConfig server_config;
        server_config.port =
            static_cast<std::uint16_t>(flags.getCount("port", 65535));
        server_config.maxPendingPerConn = flags.getCount("max-pending");
        server_config.idleTimeoutMs = static_cast<std::uint32_t>(
            flags.getCount("idle-timeout-ms", UINT32_MAX));
        net::EpollServer server(server_config);
        for (std::uint64_t r = 0; r < runs; ++r)
            server.addRun(r, *planes[r]);
        if (!flags.get("port-file").empty()) {
            std::ofstream pf(flags.get("port-file"),
                             std::ios::trunc);
            fatalIf(!pf, "serve: cannot write --port-file ",
                    flags.get("port-file"));
            pf << server.port() << "\n";
        }
        std::cout << "listening on " << server_config.host << ":"
                  << server.port() << ", " << runs << " run(s)"
                  << std::endl;

        const bool served = server.runUntilServed();

        // Surviving runs deliver their summaries even when a sibling
        // died; only their files are written.
        std::uint64_t written = 0;
        std::uint64_t eventsTotal = 0;
        std::uint64_t epochsTotal = 0;
        for (std::uint64_t r = 0; r < runs; ++r) {
            if (!planes[r]->finished())
                continue;
            const std::string outPath = runPath(flags.get("out"), r);
            std::ofstream os(outPath,
                             std::ios::binary | std::ios::trunc);
            fatalIf(!os, "serve: cannot write ", outPath);
            os << planes[r]->summary();
            os.flush();
            fatalIf(!os.good(), "serve: write failed for ", outPath);
            ++written;
            eventsTotal += planes[r]->eventsIngested();
            epochsTotal += planes[r]->epochsCommitted();
            if (!checkpointPath.empty()) {
                const std::string cp = runPath(checkpointPath, r);
                if (shardCount > 0)
                    saveShardedState(cp, shardeds[r]->snapshot());
                else
                    saveOnlineState(cp, flats[r]->snapshot());
            }
        }
        if (!served) {
            std::cerr << "cooper_cli serve: run aborted: "
                      << server.lastError() << "\n";
            for (std::uint64_t r = 0; r < runs; ++r)
                if (!server.runServed(r))
                    std::cerr << "  run " << r << ": "
                              << server.runError(r) << "\n";
            return 1;
        }
        std::cout << "served " << eventsTotal
                  << " event(s) over tcp, " << epochsTotal
                  << " epoch(s) across " << written << " run(s) -> "
                  << flags.get("out")
                  << (runs > 1 ? ".run<r>" : "") << "\n";
        if (!checkpointPath.empty())
            std::cout << "checkpoint -> " << checkpointPath
                      << (runs > 1 ? ".run<r>" : "") << "\n";
        if (!obs.metricsOut.empty())
            std::cout << "metrics -> " << obs.metricsOut << "\n";
        if (!obs.traceOut.empty())
            std::cout << "trace -> " << obs.traceOut << "\n";
        return 0;
    }

    if (shardCount > 0) {
        ShardedDriver driver(catalog, model, config, seed);
        if (!flags.get("fault-plan").empty())
            driver.setFaultPlan(
                loadFaultPlan(flags.get("fault-plan"), seed));
        if (online.checkpointEveryEpochs > 0 &&
            !flags.get("checkpoint").empty()) {
            const std::string path = flags.get("checkpoint");
            driver.setCheckpointSink([path](const ShardedState &state) {
                saveShardedState(path, state);
                return true;
            });
        }
        ChurnTrace trace = loadTrace(flags.get("trace"));
        if (!flags.get("restore").empty()) {
            driver.restore(loadShardedState(flags.get("restore")));
            trace = trace.suffix(driver.clockTick());
        }
        const ShardedReport report = driver.run(trace);
        saveShardedSummary(flags.get("out"), report);
        if (!flags.get("checkpoint").empty())
            saveShardedState(flags.get("checkpoint"), driver.snapshot());

        std::size_t admitted = 0;
        std::size_t rejected = 0;
        for (const OnlineReport &shard : report.perShard) {
            admitted += shard.totalAdmitted;
            rejected += shard.totalRejected;
        }
        std::cout << "served " << report.epochs.size()
                  << " epoch(s) on " << report.shards
                  << " shard(s) with " << report.policy << ": "
                  << admitted << " admitted, " << rejected
                  << " rejected, " << report.totalCrossMigrations
                  << " cross-shard migration(s) over "
                  << report.totalRebalanceEpochs
                  << " epoch(s); final population "
                  << report.finalPopulation
                  << ", egalitarian objective "
                  << Table::num(report.finalObjective, 4) << " -> "
                  << flags.get("out") << "\n";
        if (!flags.get("checkpoint").empty())
            std::cout << "checkpoint -> " << flags.get("checkpoint")
                      << "\n";
        if (!obs.metricsOut.empty())
            std::cout << "metrics -> " << obs.metricsOut << "\n";
        if (!obs.traceOut.empty())
            std::cout << "trace -> " << obs.traceOut << "\n";
        return 0;
    }

    OnlineDriver driver(catalog, model, config, seed);
    if (!flags.get("fault-plan").empty())
        driver.setFaultPlan(loadFaultPlan(flags.get("fault-plan"), seed));
    if (online.checkpointEveryEpochs > 0 &&
        !flags.get("checkpoint").empty()) {
        const std::string path = flags.get("checkpoint");
        driver.setCheckpointSink([path](const OnlineState &state) {
            saveOnlineState(path, state);
            return true;
        });
    }
    ChurnTrace trace = loadTrace(flags.get("trace"));
    if (!flags.get("restore").empty()) {
        driver.restore(loadOnlineState(flags.get("restore")));
        trace = trace.suffix(driver.clockTick());
    }
    const OnlineReport report = driver.run(trace);
    saveOnlineSummary(flags.get("out"), report);
    if (!flags.get("checkpoint").empty())
        saveOnlineState(flags.get("checkpoint"), driver.snapshot());

    std::cout << "served " << report.epochs.size() << " epoch(s) with "
              << report.policy << ": " << report.totalAdmitted
              << " admitted, " << report.totalRejected << " rejected, "
              << report.totalMigrations << " migration(s), "
              << report.totalFullRematches
              << " full re-match(es); final population "
              << report.finalPopulation << ", mean true penalty "
              << Table::num(report.finalMeanPenalty, 4) << " -> "
              << flags.get("out") << "\n";
    if (driver.faultPlan().enabled())
        std::cout << "faults: " << report.totalFaultsInjected
                  << " injected, " << report.totalRetries
                  << " retry(ies), " << report.totalQuarantined
                  << " quarantined (" << report.totalQuarantineReleased
                  << " released, " << report.totalAbandoned
                  << " abandoned), " << report.totalCrashes
                  << " crash(es), " << report.totalCfFallbacks
                  << " CF fallback(s), " << report.totalCheckpointFailures
                  << " checkpoint failure(s)\n";
    if (!flags.get("checkpoint").empty())
        std::cout << "checkpoint -> " << flags.get("checkpoint") << "\n";
    if (!obs.metricsOut.empty())
        std::cout << "metrics -> " << obs.metricsOut << "\n";
    if (!obs.traceOut.empty())
        std::cout << "trace -> " << obs.traceOut << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliCommands commands("cooper_cli");
    commands.declare("profile", cmdProfile);
    commands.declare("predict", cmdPredict);
    commands.declare("match", cmdMatch);
    commands.declare("assess", cmdAssess);
    commands.declare("epoch", cmdEpoch);
    commands.declare("serve", cmdServe);
    // Bare flags route to the full-pipeline subcommand, so
    // `cooper_cli --policy SMR --metrics-out m.json` just works.
    commands.routeBareFlagsTo("epoch");
    commands.setUsageText(usageText());
    return commands.run(argc,
                        const_cast<const char *const *>(argv));
}
