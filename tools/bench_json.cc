/**
 * @file
 * bench_json — python-free validation of the bench documents.
 *
 * Every in-process bench harness writes one shape, schema
 * "cooper.bench.v2" (bench/bench_doc.hh):
 *
 *   { "schema": "cooper.bench.v2", "bench": "shard",
 *     "workload": {"events": 184, ..., "tiny": true},
 *     "phases": {"scale2": {"baseline": 0.01, "optimized": 0.02,
 *                           "ratio": 0.5, "equal": true}},
 *     "values": {"k1.shards": 1, "k2.efficiency": 0.25, ...} }
 *
 * One walker checks every document against its bench's row of one
 * gate table (kBenches):
 *
 *  - the row's workload sizes are numbers and `tiny` is a boolean;
 *  - the row's phases are present, every phase has non-negative
 *    baseline and optimized seconds and `equal` true, and a phase with
 *    a baseline has a positive ratio;
 *  - every gated value is present and inside its bound. A gate named
 *    "*.<field>" applies to each row of the bench's row family —
 *    shard counts k<K>, group sizes g<G> — and the document must hold
 *    at least the row's minimum number of rows.
 *
 * Empty, truncated, or otherwise corrupt documents are hard failures
 * (exit 1) — a bench run that crashed mid-write must not validate.
 *
 * Floors: --min and --max take comma-separated field=bound pairs. A
 * field is a value's name or <phase>.<baseline|optimized|ratio>:
 *
 *   bench_json --file BENCH_kernels.json \
 *       --min similarity.ratio=3,blocking.ratio=2
 *   bench_json --file BENCH_shard.json --min k2.efficiency=0.5
 *   bench_json --file BENCH_coalition.json \
 *       --max g3.blocking_ratio=1,g4.blocking_ratio=1
 *
 * Every floor is checked before the verdict: a failing run reports
 * all offenders, each with its measured value against the bound, so
 * one fix-and-rerun cycle sees the whole damage. A floor naming a
 * field the document lacks fails too.
 */

#include <cstdlib>
#include <iostream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "util/cli.hh"
#include "util/error.hh"

namespace {

using namespace cooper;

constexpr const char *kSchema = "cooper.bench.v2";

/** One value's bound: lo <= v <= hi (lo excluded when `above`), or a
 *  boolean verdict that must be true. */
struct Gate
{
    const char *field;
    double lo = 0.0;
    bool above = false;
    double hi = std::numeric_limits<double>::infinity();
    bool verdict = false;
};

constexpr Gate
atLeast(const char *field, double lo = 0.0)
{
    return {field, lo};
}

constexpr Gate
positive(const char *field)
{
    return {field, 0.0, true};
}

constexpr Gate
correlation(const char *field)
{
    return {field, -1.0, false, 1.0};
}

constexpr Gate
isTrue(const char *field)
{
    return {field, 0.0, false, 0.0, true};
}

/** What one bench's document must hold. */
struct BenchGates
{
    const char *bench;
    std::vector<const char *> workload;
    std::vector<const char *> phases;
    const char *rowPrefix; //!< row family of "*." gates, "" for none
    std::size_t minRows;
    std::vector<Gate> values;
};

const BenchGates kBenches[] = {
    {"kernels",
     {"matrix", "population", "samples", "shapley_agents", "alpha",
      "density", "reps", "threads"},
     {"similarity", "simd_similarity", "predict", "matching", "blocking",
      "blocking_incremental", "shapley"},
     "", 0, {}},
    {"online",
     {"events", "epochs", "types", "arrivals", "threads"},
     {"predict", "epoch"},
     "", 0,
     {atLeast("online.migrations"), atLeast("online.pairs_broken"),
      atLeast("online.full_rematches"),
      atLeast("online.predict_cache_hits"),
      atLeast("online.recomputed_pairs")}},
    // A faults document that injected nothing measured nothing: the
    // degraded phase would silently equal the clean one.
    {"faults",
     {"events", "epochs", "types", "arrivals", "threads"},
     {"clean", "degraded"},
     "", 0,
     {positive("faults.injected"), atLeast("faults.retries"),
      atLeast("faults.quarantined"),
      atLeast("faults.quarantine_released"), atLeast("faults.abandoned"),
      atLeast("faults.crashes"), atLeast("faults.cf_fallbacks"),
      atLeast("faults.checkpoint_failures"),
      atLeast("faults.clean_blocking"),
      atLeast("faults.degraded_blocking"),
      atLeast("faults.blocking_ratio"),
      positive("faults.throughput_ratio")}},
    // Fewer than two shard counts measured no scaling.
    {"shard",
     {"events", "arrivals", "types", "threads", "rebalance_budget"},
     {},
     "k", 2,
     {atLeast("*.shards", 1.0), atLeast("*.wall_seconds"),
      atLeast("*.speedup"), positive("*.efficiency"),
      atLeast("*.egalitarian_final"), atLeast("*.egalitarian_mean"),
      atLeast("*.migrations"), atLeast("*.epochs")}},
    // A serve document with no sustained rate served nothing: the
    // latency tails would all be vacuous zeros.
    {"serve",
     {"events", "epochs", "types", "arrivals", "runs", "connections",
      "threads"},
     {"serve", "runs_per_server"},
     "", 0,
     {positive("latency.arrivals_per_sec"), atLeast("latency.rtt_p50_ms"),
      atLeast("latency.rtt_p99_ms"), atLeast("latency.rtt_p999_ms"),
      atLeast("latency.epoch_p50_ms"), atLeast("latency.epoch_p99_ms"),
      atLeast("latency.epoch_p999_ms")}},
    {"coalition",
     {"agents", "trials", "types", "threads", "shapley_samples"},
     {},
     "g", 1,
     {atLeast("*.group_size", 2.0), atLeast("*.machines"),
      atLeast("*.trials"), atLeast("*.core_stable_trials"),
      atLeast("*.rounds_mean"), atLeast("*.blocking_coalition"),
      atLeast("*.blocking_sr"), atLeast("*.blocking_smr"),
      atLeast("*.blocking_ratio"), atLeast("*.mean_penalty_coalition"),
      atLeast("*.mean_penalty_sr"), atLeast("*.mean_penalty_smr"),
      atLeast("*.egalitarian_coalition"), atLeast("*.egalitarian_sr"),
      atLeast("*.egalitarian_smr"), correlation("*.fairness_coalition"),
      correlation("*.fairness_sr"), correlation("*.fairness_smr"),
      isTrue("*.identical_across_threads")}},
};

const JsonValue &
member(const JsonValue &object, const std::string &key,
       const std::string &where)
{
    const JsonValue *value = object.find(key);
    fatalIf(value == nullptr, "bench_json: ", where, " lacks \"", key,
            "\"");
    return *value;
}

const JsonValue &
objectField(const JsonValue &root, const std::string &key)
{
    const JsonValue &value = member(root, key, "the document");
    fatalIf(!value.isObject(), "bench_json: ", key, " is not an object");
    return value;
}

double
numberField(const JsonValue &object, const std::string &key,
            const std::string &where)
{
    const JsonValue &value = member(object, key, where);
    fatalIf(!value.isNumber(), "bench_json: ", where, ".", key,
            " is not a number");
    return value.number;
}

void
checkPhase(const std::string &name, const JsonValue &phase)
{
    const std::string where = "phases." + name;
    fatalIf(!phase.isObject(), "bench_json: ", where,
            " is not an object");
    const double baseline = numberField(phase, "baseline", where);
    fatalIf(baseline < 0.0, "bench_json: ", where,
            ".baseline is negative");
    fatalIf(numberField(phase, "optimized", where) < 0.0, "bench_json: ",
            where, ".optimized is negative");
    const double ratio = numberField(phase, "ratio", where);
    const JsonValue &equal = member(phase, "equal", where);
    fatalIf(equal.kind != JsonValue::Kind::Bool, "bench_json: ", where,
            ".equal is not a boolean");
    fatalIf(!equal.boolean, "bench_json: ", where,
            ".equal is false: the phase's outputs differ");
    fatalIf(baseline > 0.0 && ratio <= 0.0, "bench_json: ", where,
            ".ratio is not positive for a phase with a baseline");
}

void
checkValue(const JsonValue &values, const std::string &name,
           const Gate &gate)
{
    const JsonValue &value = member(values, name, "values");
    if (gate.verdict) {
        fatalIf(value.kind != JsonValue::Kind::Bool || !value.boolean,
                "bench_json: values.", name, " is not true");
        return;
    }
    fatalIf(!value.isNumber(), "bench_json: values.", name,
            " is not a number");
    const double v = value.number;
    const bool low = gate.above ? v <= gate.lo : v < gate.lo;
    if (!low && v <= gate.hi)
        return;
    std::ostringstream want;
    want << (gate.above ? "> " : ">= ") << gate.lo;
    if (gate.hi < std::numeric_limits<double>::infinity())
        want << " and <= " << gate.hi;
    fatal("bench_json: values.", name, " is ", v, "; want ", want.str());
}

/** The rows of a "*." family: distinct <prefix><digits> heads of the
 *  value names. */
std::set<std::string>
rowsOf(const JsonValue &values, const std::string &prefix)
{
    std::set<std::string> rows;
    for (const auto &[name, value] : values.members) {
        const std::string head = name.substr(0, name.find('.'));
        if (head.size() > prefix.size() && head.rfind(prefix, 0) == 0 &&
            head.find_first_not_of("0123456789", prefix.size()) ==
                std::string::npos)
            rows.insert(head);
    }
    return rows;
}

void
validate(const JsonValue &root, const BenchGates &gates)
{
    const JsonValue &workload = objectField(root, "workload");
    for (const char *field : gates.workload)
        numberField(workload, field, "workload");
    fatalIf(member(workload, "tiny", "workload").kind !=
                JsonValue::Kind::Bool,
            "bench_json: workload.tiny is not a boolean");

    const JsonValue &phases = objectField(root, "phases");
    for (const char *name : gates.phases)
        member(phases, name, "phases");
    for (const auto &[name, phase] : phases.members)
        checkPhase(name, phase);

    const JsonValue &values = objectField(root, "values");
    const std::set<std::string> rows = rowsOf(values, gates.rowPrefix);
    fatalIf(rows.size() < gates.minRows, "bench_json: values hold ",
            rows.size(), " ", gates.rowPrefix, "<N> row(s); bench ",
            gates.bench, " needs at least ", gates.minRows);
    for (const Gate &gate : gates.values) {
        const std::string field = gate.field;
        if (field.rfind("*.", 0) != 0) {
            checkValue(values, field, gate);
            continue;
        }
        for (const std::string &row : rows)
            checkValue(values, row + field.substr(1), gate);
    }
}

/** The number a floor names: a value, or <phase>.<field>. */
const JsonValue *
floorField(const JsonValue &root, const std::string &field)
{
    if (const JsonValue *value = root.find("values")->find(field))
        return value;
    const std::size_t dot = field.rfind('.');
    if (dot == std::string::npos)
        return nullptr;
    const JsonValue *phase =
        root.find("phases")->find(field.substr(0, dot));
    return phase == nullptr ? nullptr : phase->find(field.substr(dot + 1));
}

/**
 * Check every "field=bound" pair of `csv` — lower bounds when `floor`,
 * upper bounds otherwise — appending each violation.
 */
void
checkBounds(const JsonValue &root, const std::string &csv, bool floor,
            std::vector<std::string> &violations)
{
    std::istringstream items(csv);
    std::string item;
    while (std::getline(items, item, ',')) {
        const std::size_t eq = item.find('=');
        const std::string field = item.substr(0, eq);
        const std::string text =
            eq == std::string::npos ? "" : item.substr(eq + 1);
        char *end = nullptr;
        const double bound = std::strtod(text.c_str(), &end);
        fatalIf(field.empty() || text.empty() || *end != '\0',
                "bench_json: bad ", floor ? "--min" : "--max",
                " entry \"", item, "\"; want field=number");
        const JsonValue *value = floorField(root, field);
        std::ostringstream os;
        if (value == nullptr || !value->isNumber()) {
            os << "bench_json: " << field
               << ": the document has no such number";
            violations.push_back(os.str());
            continue;
        }
        const double v = value->number;
        if (floor ? v < bound : v > bound) {
            os << "bench_json: " << field << ": measured " << v
               << (floor ? " is below the required "
                         : " exceeds the allowed ")
               << bound;
            violations.push_back(os.str());
            continue;
        }
        std::cout << field << ": " << v << (floor ? " >= " : " <= ")
                  << bound << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    CliFlags flags;
    flags.declare("file", "BENCH_kernels.json",
                  "cooper.bench.v2 document to validate");
    flags.declare("min", "",
                  "comma-separated field=value lower bounds, e.g. "
                  "similarity.ratio=3,k2.efficiency=0.5");
    flags.declare("max", "",
                  "comma-separated field=value upper bounds, e.g. "
                  "g3.blocking_ratio=1");
    try {
        if (!flags.parse(argc, argv))
            return 0;
        const std::string path = flags.get("file");
        const JsonValue root = parseJsonFile(path);
        fatalIf(!root.isObject(), "bench_json: ", path,
                " is not a JSON object");

        const JsonValue &schema = member(root, "schema", path);
        fatalIf(!schema.isString() || schema.text != kSchema,
                "bench_json: ", path, " has schema ",
                schema.isString() ? "\"" + schema.text + "\"" : "?",
                ", not \"", kSchema, "\"");
        const JsonValue &bench = member(root, "bench", path);
        const BenchGates *gates = nullptr;
        for (const BenchGates &row : kBenches)
            if (bench.isString() && bench.text == row.bench)
                gates = &row;
        fatalIf(gates == nullptr, "bench_json: ", path,
                " names an unknown bench \"", bench.text, "\"");
        validate(root, *gates);

        std::vector<std::string> violations;
        checkBounds(root, flags.get("min"), true, violations);
        checkBounds(root, flags.get("max"), false, violations);
        if (!violations.empty()) {
            for (const std::string &violation : violations)
                std::cerr << violation << "\n";
            std::cerr << "bench_json: " << path << ": "
                      << violations.size() << " floor(s) not met\n";
            return 1;
        }
        std::cout << "bench_json: " << path << " OK\n";
    } catch (const std::exception &err) {
        std::cerr << err.what() << "\n";
        return 1;
    }
    return 0;
}
