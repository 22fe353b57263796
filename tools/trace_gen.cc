/**
 * @file
 * trace_gen — synthesize churn traces for `cooper_cli serve`.
 *
 * Emits the line-oriented "cooper-trace 1" format (src/online/events):
 * an initial population arriving at tick 0, then exponential
 * interarrival gaps and exponential lifetimes, with job types drawn
 * from one of the Figure 11 mix densities. A (flags, seed) pair fully
 * determines the trace.
 *
 *   trace_gen --arrivals 1000 --initial 24 --mean-gap 12 \
 *       --mean-life 600 --mix Uniform --seed 7 --out trace.txt
 */

#include <iostream>
#include <string>

#include "online/churn.hh"
#include "util/cli.hh"
#include "util/error.hh"
#include "workload/catalog.hh"

int
main(int argc, char **argv)
{
    using namespace cooper;

    CliFlags flags;
    flags.declare("arrivals", "200", "arrivals after the initial jobs");
    flags.declare("initial", "24", "jobs present at tick 0");
    flags.declare("mean-gap", "12", "mean interarrival gap, in ticks");
    flags.declare("mean-life", "600", "mean job lifetime, in ticks");
    flags.declare("mix", "Uniform", "Uniform|Beta-Low|Gaussian|Beta-High");
    flags.declare("open-ended", "0",
                  "1 = drop departures past the last arrival");
    flags.declare("seed", "1", "trace seed");
    flags.declare("out", "trace.txt", "output trace file");
    try {
        if (!flags.parse(argc, argv))
            return 0;

        ChurnConfig config;
        config.arrivals = flags.getCount("arrivals");
        config.initialJobs = flags.getCount("initial");
        config.meanInterarrivalTicks = flags.getDouble("mean-gap");
        config.meanLifetimeTicks = flags.getDouble("mean-life");
        config.openEnded = flags.getInt("open-ended") != 0;
        config.mix = MixKind::Uniform;
        bool known_mix = false;
        for (MixKind candidate : allMixes()) {
            if (mixName(candidate) == flags.get("mix")) {
                config.mix = candidate;
                known_mix = true;
            }
        }
        fatalIf(!known_mix, "trace_gen: unknown mix '", flags.get("mix"),
                "'");

        const Catalog catalog = Catalog::paperTableI();
        Rng rng(static_cast<std::uint64_t>(flags.getInt("seed")));
        const ChurnTrace trace =
            generateChurnTrace(catalog, config, rng);
        saveTrace(flags.get("out"), trace);

        std::size_t arrivals = 0;
        for (const ChurnEvent &event : trace.events())
            if (event.kind == EventKind::Arrival)
                ++arrivals;
        std::cout << "generated " << trace.size() << " event(s) ("
                  << arrivals << " arrivals, "
                  << trace.size() - arrivals << " departures) over "
                  << trace.lastTick() << " tick(s) -> "
                  << flags.get("out") << "\n";
    } catch (const std::exception &err) {
        std::cerr << "trace_gen: " << err.what() << "\n";
        return 1;
    }
    return 0;
}
