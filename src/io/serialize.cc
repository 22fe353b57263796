#include "serialize.hh"

#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>

#include "util/error.hh"

namespace cooper {

namespace {

constexpr const char *kProfilesHeader = "cooper-profiles";
constexpr const char *kMatchingHeader = "cooper-matching";
constexpr const char *kOnlineStateHeader = "cooper-online-state";

// Formats version independently: v2 of the online state added the
// fault-plane sections (quarantine, probe rounds, fault counters, and
// the fault plan) without touching the other two formats. v3 is the
// *sharded* container — same magic, one embedded per-shard block per
// shard — so a flat reader fails fast on a sharded file and vice
// versa. v4 (flat) adds the coalition groups section after the pairs;
// v5 is the sharded container embedding v4 blocks. Odd versions
// shard, even versions don't — the parity rule keeps the two families
// distinguishable as both grow.
constexpr int kProfilesVersion = 1;
constexpr int kMatchingVersion = 1;
constexpr int kOnlineStateVersion = 4;
constexpr int kShardedStateVersion = 5;

void
expectHeader(std::istream &is, const char *magic, int expected_version,
             std::string &line)
{
    fatalIf(!std::getline(is, line), "serialize: empty input");
    std::istringstream header(line);
    std::string word;
    int version = 0;
    header >> word >> version;
    fatalIf(word != magic, "serialize: expected '", magic,
            "' header, got '", word, "'");
    fatalIf(version != expected_version,
            "serialize: unsupported '", magic, "' version ", version,
            " (expected ", expected_version, ")");
}

} // namespace

void
writeProfiles(std::ostream &os, const SparseMatrix &profiles)
{
    os << kProfilesHeader << " " << kProfilesVersion << " "
       << profiles.rows() << " " << profiles.cols() << "\n";
    os << std::setprecision(17);
    for (const auto &entry : profiles.entries())
        os << entry.row << " " << entry.col << " " << entry.value
           << "\n";
}

SparseMatrix
readProfiles(std::istream &is)
{
    std::string line;
    expectHeader(is, kProfilesHeader, kProfilesVersion, line);
    std::istringstream header(line);
    std::string word;
    int version = 0;
    std::size_t rows = 0, cols = 0;
    header >> word >> version >> rows >> cols;
    fatalIf(rows == 0 || cols == 0,
            "readProfiles: bad shape ", rows, "x", cols);

    SparseMatrix out(rows, cols);
    std::size_t lineno = 1;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        std::istringstream cells(line);
        std::size_t r = 0, c = 0;
        double value = 0.0;
        fatalIf(!(cells >> r >> c >> value),
                "readProfiles: malformed line ", lineno, ": '", line,
                "'");
        fatalIf(r >= rows || c >= cols,
                "readProfiles: cell (", r, ", ", c,
                ") outside declared shape on line ", lineno);
        out.set(r, c, value);
    }
    return out;
}

void
writeMatching(std::ostream &os, const Matching &matching)
{
    os << kMatchingHeader << " " << kMatchingVersion << " "
       << matching.size() << "\n";
    for (const auto &[a, b] : matching.pairs())
        os << a << " " << b << "\n";
}

Matching
readMatching(std::istream &is)
{
    std::string line;
    expectHeader(is, kMatchingHeader, kMatchingVersion, line);
    std::istringstream header(line);
    std::string word;
    int version = 0;
    std::size_t n = 0;
    header >> word >> version >> n;
    fatalIf(n == 0, "readMatching: empty matching declared");

    Matching out(n);
    std::size_t lineno = 1;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        std::istringstream cells(line);
        std::size_t a = 0, b = 0;
        fatalIf(!(cells >> a >> b),
                "readMatching: malformed line ", lineno, ": '", line,
                "'");
        fatalIf(a >= n || b >= n,
                "readMatching: agent out of range on line ", lineno);
        fatalIf(out.isMatched(a) || out.isMatched(b),
                "readMatching: agent repeated on line ", lineno);
        out.pair(a, b);
    }
    return out;
}

void
writeOnlineState(std::ostream &os, const OnlineState &state)
{
    os << kOnlineStateHeader << " " << kOnlineStateVersion << "\n";
    os << "seed " << state.seed << "\n";
    os << "epoch " << state.epoch << "\n";
    os << "tick " << state.clockTick << "\n";
    const OnlineCounts &totals = state.totals;
    os << "totals " << totals.arrivals << " " << totals.departures << " "
       << totals.admitted << " " << totals.probes << " "
       << totals.migrations << " " << totals.pairsBroken << " "
       << totals.fullRematch << "\n";
    os << std::setprecision(17);
    os << "penalty " << state.lastMeanPenalty << "\n";
    os << "live " << state.live.size() << "\n";
    for (const LiveJob &job : state.live)
        os << job.uid << " " << job.type << "\n";
    os << "pairs " << state.pairs.size() << "\n";
    for (const auto &[a, b] : state.pairs)
        os << a << " " << b << "\n";
    os << "groups " << state.groups.size() << "\n";
    for (const auto &group : state.groups) {
        os << group.size();
        for (const JobUid uid : group)
            os << " " << uid;
        os << "\n";
    }
    os << "queue " << state.pending.size() << " " << state.rejected << " "
       << state.queueHighWater << "\n";
    for (const PendingArrival &arrival : state.pending)
        os << arrival.uid << " " << arrival.type << " "
           << arrival.arrivalTick << "\n";
    os << "ratings " << state.ratings.rows() << " " << state.ratings.cols()
       << " " << state.ratings.knownCount() << "\n";
    for (const auto &entry : state.ratings.entries())
        os << entry.row << " " << entry.col << " " << entry.value << "\n";
    os << "faults " << totals.faultsInjected << " " << totals.retries
       << " " << totals.quarantined << " " << totals.quarantineReleased
       << " " << totals.abandoned << " " << totals.crashes << " "
       << totals.cfFallbacks << " " << totals.checkpointFailures << "\n";
    os << "quarantine " << state.quarantine.size() << "\n";
    for (const QuarantinedJob &job : state.quarantine)
        os << job.uid << " " << job.type << " " << job.failures << " "
           << job.untilEpoch << " " << job.rounds << "\n";
    os << "rounds " << state.probeRounds.size() << "\n";
    for (const auto &[uid, served] : state.probeRounds)
        os << uid << " " << served << "\n";
    const FaultSpec &spec = state.faultPlan.spec();
    os << "plan " << spec.seed << " " << spec.probeTimeoutRate << " "
       << spec.measurementDropRate << " " << spec.measurementCorruptRate
       << " " << spec.corruptSigma << " " << spec.crashRatePerEpoch
       << " " << spec.checkpointFailRate << " "
       << state.faultPlan.script().size() << "\n";
    for (const ScriptedFault &event : state.faultPlan.script())
        os << event.epoch << " " << faultKindName(event.kind) << " "
           << (event.hasUid ? 1 : 0) << " " << event.uid << " "
           << event.magnitude << "\n";
}

namespace {

/** Read one line and parse it under a required leading keyword. */
std::istringstream
sectionLine(std::istream &is, const char *keyword)
{
    std::string line;
    fatalIf(!std::getline(is, line),
            "readOnlineState: truncated input, expected '", keyword,
            "' section");
    std::istringstream fields(line);
    std::string word;
    fatalIf(!(fields >> word) || word != keyword,
            "readOnlineState: expected '", keyword, "' section, got '",
            line, "'");
    return fields;
}

/** Read one body line of `section` and parse its fields. */
std::istringstream
bodyLine(std::istream &is, const char *section)
{
    std::string line;
    fatalIf(!std::getline(is, line),
            "readOnlineState: truncated '", section, "' section");
    return std::istringstream(line);
}

} // namespace

OnlineState
readOnlineState(std::istream &is)
{
    std::string line;
    expectHeader(is, kOnlineStateHeader, kOnlineStateVersion, line);

    OnlineState state;
    OnlineCounts &totals = state.totals;
    {
        auto fields = sectionLine(is, "seed");
        fatalIf(!(fields >> state.seed),
                "readOnlineState: malformed seed");
    }
    {
        auto fields = sectionLine(is, "epoch");
        fatalIf(!(fields >> state.epoch),
                "readOnlineState: malformed epoch");
    }
    {
        auto fields = sectionLine(is, "tick");
        fatalIf(!(fields >> state.clockTick),
                "readOnlineState: malformed tick");
    }
    {
        auto fields = sectionLine(is, "totals");
        fatalIf(!(fields >> totals.arrivals >> totals.departures >>
                  totals.admitted >> totals.probes >> totals.migrations >>
                  totals.pairsBroken >> totals.fullRematch),
                "readOnlineState: malformed totals");
    }
    {
        auto fields = sectionLine(is, "penalty");
        fatalIf(!(fields >> state.lastMeanPenalty),
                "readOnlineState: malformed penalty");
    }

    std::size_t count = 0;
    {
        auto fields = sectionLine(is, "live");
        fatalIf(!(fields >> count),
                "readOnlineState: malformed live count");
    }
    state.live.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        auto fields = bodyLine(is, "live");
        LiveJob job;
        fatalIf(!(fields >> job.uid >> job.type),
                "readOnlineState: malformed live entry ", i);
        state.live.push_back(job);
    }

    {
        auto fields = sectionLine(is, "pairs");
        fatalIf(!(fields >> count),
                "readOnlineState: malformed pairs count");
    }
    state.pairs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        auto fields = bodyLine(is, "pairs");
        JobUid a = 0, b = 0;
        fatalIf(!(fields >> a >> b),
                "readOnlineState: malformed pair ", i);
        fatalIf(a >= b, "readOnlineState: pair ", i,
                " not strictly ordered");
        state.pairs.emplace_back(a, b);
    }

    {
        auto fields = sectionLine(is, "groups");
        fatalIf(!(fields >> count),
                "readOnlineState: malformed groups count");
    }
    state.groups.reserve(count);
    {
        std::set<JobUid> grouped;
        for (std::size_t i = 0; i < count; ++i) {
            auto fields = bodyLine(is, "groups");
            std::size_t size = 0;
            fatalIf(!(fields >> size),
                    "readOnlineState: malformed group ", i);
            fatalIf(size < 2, "readOnlineState: group ", i, " has ",
                    size, " members (minimum is 2)");
            std::vector<JobUid> group;
            group.reserve(size);
            for (std::size_t j = 0; j < size; ++j) {
                JobUid uid = 0;
                fatalIf(!(fields >> uid),
                        "readOnlineState: truncated group ", i,
                        " (declared ", size, " members)");
                fatalIf(!group.empty() && group.back() >= uid,
                        "readOnlineState: group ", i,
                        " members not strictly ascending");
                fatalIf(!grouped.insert(uid).second,
                        "readOnlineState: uid ", uid,
                        " appears in two groups");
                group.push_back(uid);
            }
            fatalIf(!state.groups.empty() &&
                        state.groups.back().front() >= group.front(),
                    "readOnlineState: groups not ordered by first "
                    "member");
            state.groups.push_back(std::move(group));
        }
    }

    {
        auto fields = sectionLine(is, "queue");
        fatalIf(!(fields >> count >> state.rejected >>
                  state.queueHighWater),
                "readOnlineState: malformed queue counts");
    }
    state.pending.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        auto fields = bodyLine(is, "queue");
        PendingArrival arrival;
        fatalIf(!(fields >> arrival.uid >> arrival.type >>
                  arrival.arrivalTick),
                "readOnlineState: malformed queue entry ", i);
        state.pending.push_back(arrival);
    }

    std::size_t rows = 0, cols = 0, known = 0;
    {
        auto fields = sectionLine(is, "ratings");
        fatalIf(!(fields >> rows >> cols >> known),
                "readOnlineState: malformed ratings shape");
    }
    state.ratings = SparseMatrix(rows, cols);
    for (std::size_t i = 0; i < known; ++i) {
        auto fields = bodyLine(is, "ratings");
        std::size_t r = 0, c = 0;
        double value = 0.0;
        fatalIf(!(fields >> r >> c >> value),
                "readOnlineState: malformed ratings entry ", i);
        fatalIf(r >= rows || c >= cols, "readOnlineState: ratings cell (",
                r, ", ", c, ") outside declared shape");
        state.ratings.set(r, c, value);
    }
    fatalIf(state.ratings.knownCount() != known,
            "readOnlineState: duplicate ratings cells");

    {
        auto fields = sectionLine(is, "faults");
        fatalIf(!(fields >> totals.faultsInjected >> totals.retries >>
                  totals.quarantined >> totals.quarantineReleased >>
                  totals.abandoned >> totals.crashes >>
                  totals.cfFallbacks >> totals.checkpointFailures),
                "readOnlineState: malformed faults counters");
    }

    {
        auto fields = sectionLine(is, "quarantine");
        fatalIf(!(fields >> count),
                "readOnlineState: malformed quarantine count");
    }
    state.quarantine.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        auto fields = bodyLine(is, "quarantine");
        QuarantinedJob job;
        fatalIf(!(fields >> job.uid >> job.type >> job.failures >>
                  job.untilEpoch >> job.rounds),
                "readOnlineState: malformed quarantine entry ", i);
        fatalIf(!state.quarantine.empty() &&
                    state.quarantine.back().uid >= job.uid,
                "readOnlineState: quarantine entries not ascending");
        state.quarantine.push_back(job);
    }

    {
        auto fields = sectionLine(is, "rounds");
        fatalIf(!(fields >> count),
                "readOnlineState: malformed rounds count");
    }
    state.probeRounds.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        auto fields = bodyLine(is, "rounds");
        std::uint64_t uid = 0, served = 0;
        fatalIf(!(fields >> uid >> served),
                "readOnlineState: malformed rounds entry ", i);
        state.probeRounds.emplace_back(uid, served);
    }

    FaultSpec spec;
    std::size_t script_count = 0;
    {
        auto fields = sectionLine(is, "plan");
        fatalIf(!(fields >> spec.seed >> spec.probeTimeoutRate >>
                  spec.measurementDropRate >>
                  spec.measurementCorruptRate >> spec.corruptSigma >>
                  spec.crashRatePerEpoch >> spec.checkpointFailRate >>
                  script_count),
                "readOnlineState: malformed plan section");
    }
    std::vector<ScriptedFault> script;
    script.reserve(script_count);
    for (std::size_t i = 0; i < script_count; ++i) {
        auto fields = bodyLine(is, "plan");
        ScriptedFault event;
        std::string kind;
        int has_uid = 0;
        fatalIf(!(fields >> event.epoch >> kind >> has_uid >>
                  event.uid >> event.magnitude),
                "readOnlineState: malformed plan event ", i);
        event.kind = faultKindFromName(kind);
        event.hasUid = has_uid != 0;
        script.push_back(event);
    }
    state.faultPlan = FaultPlan(spec, std::move(script));
    return state;
}

void
writeShardedState(std::ostream &os, const ShardedState &state)
{
    os << kOnlineStateHeader << " " << kShardedStateVersion << "\n";
    os << "sharded " << state.perShard.size() << " " << state.seed
       << " " << state.epoch << "\n";
    os << "router " << state.typeShard.size() << "\n";
    for (std::size_t t = 0; t < state.typeShard.size(); ++t)
        os << t << " " << state.typeShard[t] << "\n";
    os << "uids " << state.uidShard.size() << "\n";
    for (const auto &[uid, shard] : state.uidShard)
        os << uid << " " << shard << "\n";
    os << std::setprecision(17);
    os << "rebalance " << state.totalCrossMigrations << " "
       << state.totalRebalanceEpochs << " " << state.lastObjective
       << "\n";
    for (std::size_t s = 0; s < state.perShard.size(); ++s) {
        os << "shard " << s << "\n";
        writeOnlineState(os, state.perShard[s]);
    }
}

ShardedState
readShardedState(std::istream &is)
{
    std::string line;
    expectHeader(is, kOnlineStateHeader, kShardedStateVersion, line);

    ShardedState state;
    std::size_t shards = 0;
    {
        auto fields = sectionLine(is, "sharded");
        fatalIf(!(fields >> shards >> state.seed >> state.epoch),
                "readShardedState: malformed sharded section");
        fatalIf(shards == 0, "readShardedState: zero shards declared");
    }

    std::size_t count = 0;
    {
        auto fields = sectionLine(is, "router");
        fatalIf(!(fields >> count),
                "readShardedState: malformed router count");
    }
    state.typeShard.assign(count, 0);
    for (std::size_t i = 0; i < count; ++i) {
        auto fields = bodyLine(is, "router");
        std::size_t type = 0, shard = 0;
        fatalIf(!(fields >> type >> shard),
                "readShardedState: malformed router entry ", i);
        fatalIf(type != i, "readShardedState: router entry ", i,
                " names type ", type);
        fatalIf(shard >= shards, "readShardedState: type ", type,
                " maps to shard ", shard, ", only ", shards,
                " declared");
        state.typeShard[i] = shard;
    }

    {
        auto fields = sectionLine(is, "uids");
        fatalIf(!(fields >> count),
                "readShardedState: malformed uids count");
    }
    state.uidShard.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        auto fields = bodyLine(is, "uids");
        JobUid uid = 0;
        std::size_t shard = 0;
        fatalIf(!(fields >> uid >> shard),
                "readShardedState: malformed uid entry ", i);
        fatalIf(shard >= shards, "readShardedState: uid ", uid,
                " maps to shard ", shard, ", only ", shards,
                " declared");
        fatalIf(!state.uidShard.empty() &&
                    state.uidShard.back().first >= uid,
                "readShardedState: uid entries not ascending");
        state.uidShard.emplace_back(uid, shard);
    }

    {
        auto fields = sectionLine(is, "rebalance");
        fatalIf(!(fields >> state.totalCrossMigrations >>
                  state.totalRebalanceEpochs >> state.lastObjective),
                "readShardedState: malformed rebalance section");
    }

    state.perShard.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        auto fields = sectionLine(is, "shard");
        std::size_t index = 0;
        fatalIf(!(fields >> index) || index != s,
                "readShardedState: expected shard ", s,
                " block (a truncated or shard-count-mismatched "
                "checkpoint)");
        state.perShard.push_back(readOnlineState(is));
        fatalIf(state.perShard.back().epoch != state.epoch,
                "readShardedState: shard ", s, " is at epoch ",
                state.perShard.back().epoch, ", fleet epoch is ",
                state.epoch);
    }
    return state;
}

void
saveProfiles(const std::string &path, const SparseMatrix &profiles)
{
    std::ofstream out(path);
    fatalIf(!out, "saveProfiles: cannot open '", path, "'");
    writeProfiles(out, profiles);
    fatalIf(!out, "saveProfiles: write to '", path, "' failed");
}

SparseMatrix
loadProfiles(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in, "loadProfiles: cannot open '", path, "'");
    return readProfiles(in);
}

void
saveMatching(const std::string &path, const Matching &matching)
{
    std::ofstream out(path);
    fatalIf(!out, "saveMatching: cannot open '", path, "'");
    writeMatching(out, matching);
    fatalIf(!out, "saveMatching: write to '", path, "' failed");
}

Matching
loadMatching(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in, "loadMatching: cannot open '", path, "'");
    return readMatching(in);
}

void
saveOnlineState(const std::string &path, const OnlineState &state)
{
    std::ofstream out(path);
    fatalIf(!out, "saveOnlineState: cannot open '", path, "'");
    writeOnlineState(out, state);
    fatalIf(!out, "saveOnlineState: write to '", path, "' failed");
}

OnlineState
loadOnlineState(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in, "loadOnlineState: cannot open '", path, "'");
    return readOnlineState(in);
}

void
saveShardedState(const std::string &path, const ShardedState &state)
{
    std::ofstream out(path);
    fatalIf(!out, "saveShardedState: cannot open '", path, "'");
    writeShardedState(out, state);
    fatalIf(!out, "saveShardedState: write to '", path, "' failed");
}

ShardedState
loadShardedState(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in, "loadShardedState: cannot open '", path, "'");
    return readShardedState(in);
}

} // namespace cooper
