#include "driver.hh"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "coalition/formation.hh"
#include "obs/obs.hh"
#include "sim/profiler.hh"
#include "util/error.hh"

namespace cooper {

namespace {

// Substream purposes. Every random decision is drawn from
// base.substream(tag).substream(key), so nothing depends on how many
// draws earlier epochs made.
constexpr std::uint64_t kPolicyStream = 0xA1;
constexpr std::uint64_t kProbeStream = 0xA2;
constexpr std::uint64_t kRefreshStream = 0xA3;

/**
 * Policy name handed to the embedded pair repairer. Coalition mode
 * repairs groups itself, but RepairingPolicy eagerly validates its
 * policy name, so it gets the SR fallback (never invoked).
 */
std::string
repairPolicyName(const FrameworkConfig &config)
{
    return config.policy == "coalition" ? std::string("SR")
                                        : config.policy;
}

ItemKnnConfig
effectivePredictorConfig(const FrameworkConfig &config)
{
    // Same inheritance rule as CooperFramework: the predictor uses
    // the execution-wide thread knob unless it sets its own.
    ItemKnnConfig out = config.predictor;
    if (out.threads == 1)
        out.threads = config.execution.threads;
    return out;
}

/** Mean of `repeats` measurements of `self` colocated with `other`. */
double
meanMeasurement(SystemProfiler &profiler, JobTypeId self, JobTypeId other,
                std::size_t repeats)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < repeats; ++i)
        sum += profiler.measure(self, other);
    return sum / static_cast<double>(repeats);
}

std::string
jsonNum(double value)
{
    std::ostringstream os;
    os << std::setprecision(17) << value;
    return os.str();
}

} // namespace

OnlineDriver::OnlineDriver(const Catalog &catalog,
                           const InterferenceModel &model,
                           FrameworkConfig config, std::uint64_t seed)
    : catalog_(&catalog), model_(&model), config_(std::move(config)),
      seed_(seed), base_(seed),
      predictor_(catalog.size(), effectivePredictorConfig(config_)),
      repairer_(repairPolicyName(config_), config_.alpha,
                config_.execution.online.migrationBudget,
                config_.execution.online.fullRematchBlockingPairs),
      admission_(config_.execution.online.maxQueueDepth)
{
    const OnlineConfig &online = config_.execution.online;
    fatalIf(online.epochTicks == 0,
            "OnlineDriver: epochTicks must be positive");
    fatalIf(coalitionMode() &&
                (online.groupSize < 2 || online.groupSize > 20),
            "OnlineDriver: coalition groupSize must be in [2, 20], "
            "got ",
            online.groupSize);
    fatalIf(online.admitPerEpoch == 0,
            "OnlineDriver: admitPerEpoch must be positive (the queue "
            "could never drain)");
    fatalIf(online.profileRepeats == 0,
            "OnlineDriver: profileRepeats must be positive");
}

Tick
OnlineDriver::clockTick() const
{
    return epoch_ * config_.execution.online.epochTicks;
}

OnlineDriver::ProbeRound
OnlineDriver::probeArrival(JobUid uid, JobTypeId type,
                           ProbeBudget &budget)
{
    const OnlineConfig &online = config_.execution.online;
    Rng pick = base_.substream(kProbeStream).substream(uid);
    SystemProfiler profiler(*model_, config_.noise, pick());
    ProbeRound round;

    // How one directed cell fared.
    enum class Cell { Landed, Failed, Skipped };

    // Attempt ladder for one directed cell: the first try plus up to
    // probeMaxRetries retries, each waiting probeBackoffTicks << (k-1)
    // virtual ticks, until the cumulative wait passes the deadline.
    // Pure integer arithmetic keyed by (epoch, uid, cell, attempt), so
    // the schedule replays bit-identically at any thread count and
    // across a checkpoint/restore split.
    std::uint64_t cell_seq = 0;
    const auto attemptCell = [&](JobTypeId self, JobTypeId other,
                                 double &value) -> Cell {
        const std::uint64_t cell = cell_seq++;
        std::uint64_t waited = 0;
        for (std::uint64_t k = 0;; ++k) {
            if (k > 0) {
                waited += online.probeBackoffTicks << (k - 1);
                if (k > online.probeMaxRetries ||
                    waited > online.probeDeadlineTicks) {
                    ++round.failedCells;
                    return Cell::Failed;
                }
                ++round.retries;
            }
            if (budget.exhausted()) {
                ++round.cfFallbacks;
                return Cell::Skipped; // predictor's CF fill covers it
            }
            budget.spend();

            const std::uint64_t key =
                cell * (online.probeMaxRetries + 1) + k;
            ProbeFault fault = ProbeFault::None;
            if (plan_.probeTimesOut(epoch_, uid, key))
                fault = ProbeFault::Timeout;
            else if (plan_.measurementDrops(epoch_, uid, key))
                fault = ProbeFault::Drop;
            const double delta = fault == ProbeFault::None
                                     ? plan_.corruption(epoch_, uid, key)
                                     : 0.0;
            if (fault != ProbeFault::None || delta != 0.0)
                ++round.faults;

            const ProbeResult got = profiler.probe(
                self, other, online.profileRepeats, fault, delta);
            if (got.ok) {
                value = got.value;
                return Cell::Landed;
            }
            // Timed out or lost in transit: the coordinator saw no
            // result either way, so both back off and retry.
        }
    };

    // The self colocation is always attempted first: it anchors the
    // row even when the population is empty (the first admissions).
    double measured = 0.0;
    if (attemptCell(type, type, measured) == Cell::Landed) {
        predictor_.observe(type, type, measured);
        ++round.probes;
    }

    // Probe against up to probesPerArrival distinct types present in
    // the running population, chosen by the arrival's substream. One
    // colocation run yields both directions' penalties, but each
    // direction's delivery can fail independently.
    std::vector<JobTypeId> candidates;
    for (const LiveJob &job : live_)
        if (job.type != type)
            candidates.push_back(job.type);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    pick.shuffle(candidates);
    if (candidates.size() > online.probesPerArrival)
        candidates.resize(online.probesPerArrival);

    for (JobTypeId other : candidates) {
        const std::size_t failed_before = round.failedCells;
        bool landed = false;
        if (attemptCell(type, other, measured) == Cell::Landed) {
            predictor_.observe(type, other, measured);
            landed = true;
        }
        if (attemptCell(other, type, measured) == Cell::Landed) {
            predictor_.observe(other, type, measured);
            landed = true;
        }
        if (landed)
            ++round.probes;
        // Quarantine counts whole colocations lost, not directions:
        // a half-landed probe still characterized the pair.
        if (round.failedCells == failed_before + 2)
            round.failedCells -= 1;
        else if (round.failedCells > failed_before && landed)
            round.failedCells = failed_before;
    }
    return round;
}

std::size_t
OnlineDriver::refreshProfiles(ProbeBudget &budget)
{
    const OnlineConfig &online = config_.execution.online;
    if (online.refreshProbesPerEpoch == 0)
        return 0;
    const auto entries = predictor_.ratings().entries();
    if (entries.empty())
        return 0;

    Rng pick = base_.substream(kRefreshStream).substream(epoch_);
    SystemProfiler profiler(*model_, config_.noise, pick());
    std::size_t refreshed = 0;
    for (std::size_t i = 0; i < online.refreshProbesPerEpoch; ++i) {
        if (budget.exhausted())
            break; // arrival probing drained the epoch's budget
        budget.spend();
        const auto &cell = entries[pick.uniformInt(entries.size())];
        predictor_.observe(cell.row, cell.col,
                           meanMeasurement(profiler, cell.row, cell.col,
                                           online.profileRepeats));
        ++refreshed;
    }
    return refreshed;
}

bool
OnlineDriver::departLive(JobUid uid)
{
    const auto it =
        std::find_if(live_.begin(), live_.end(),
                     [uid](const LiveJob &job) { return job.uid == uid; });
    if (it == live_.end())
        return false;
    const auto link = partner_.find(uid);
    if (link != partner_.end()) {
        const JobUid other = link->second;
        partner_.erase(link);
        partner_.erase(other);
    }
    ungroup(uid);
    live_.erase(it);
    return true;
}

void
OnlineDriver::ungroup(JobUid uid)
{
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        auto &group = groups_[g];
        const auto member =
            std::find(group.begin(), group.end(), uid);
        if (member == group.end())
            continue;
        group.erase(member);
        // A group of one is no colocation; the survivor runs alone
        // until the next formation epoch re-packs it.
        if (group.size() < 2)
            groups_.erase(groups_.begin() + g);
        return;
    }
}

CoalitionStructure
OnlineDriver::carriedStructure() const
{
    std::map<JobUid, AgentId> index;
    for (AgentId i = 0; i < live_.size(); ++i)
        index.emplace(live_[i].uid, i);

    CoalitionStructure carried(live_.size());
    for (const auto &group : groups_) {
        std::vector<AgentId> members;
        members.reserve(group.size());
        for (const JobUid uid : group) {
            const auto it = index.find(uid);
            panicIf(it == index.end(),
                    "OnlineDriver: grouped uid not live");
            members.push_back(it->second);
        }
        carried.addCoalition(std::move(members));
    }
    carried.canonicalize();
    return carried;
}

void
OnlineDriver::formEpoch(const DisutilityTable &believed, const Rng &rng,
                        OnlineEpochStats &stats)
{
    const OnlineConfig &online = config_.execution.online;
    const std::size_t threads = config_.execution.threads;

    std::vector<JobTypeId> types;
    types.reserve(live_.size());
    for (const LiveJob &job : live_)
        types.push_back(job.type);

    const CoalitionStructure carried = carriedStructure();

    FormationConfig formation;
    formation.groupSize = online.groupSize;
    formation.alpha = config_.alpha;
    formation.threads = threads;
    // Per-epoch Shapley attribution is a diagnostic the decision path
    // never reads; the bench and tests exercise it instead.
    formation.shapleySamples = 0;
    const FormationResult result = formCoalitions(
        types, believed, *model_, formation, rng, &carried);

    stats.blockingBefore = result.blockingBefore;
    stats.blockingAfter = result.blockingAfter;

    // Map the formed structure back to uids, canonical order.
    std::vector<std::vector<JobUid>> formed;
    formed.reserve(result.structure.coalitions().size());
    for (const auto &coalition : result.structure.coalitions()) {
        std::vector<JobUid> group;
        group.reserve(coalition.size());
        for (const AgentId a : coalition)
            group.push_back(live_[a].uid);
        std::sort(group.begin(), group.end());
        formed.push_back(std::move(group));
    }
    std::sort(formed.begin(), formed.end());

    // Churn accounting mirrors the pair path: a carried group that
    // did not survive intact counts as broken, and every previously
    // grouped job whose co-runner set changed counts as a migration.
    std::map<JobUid, std::vector<JobUid>> before;
    for (const auto &group : groups_)
        for (const JobUid uid : group)
            before.emplace(uid, group);
    std::map<JobUid, std::vector<JobUid>> after;
    for (const auto &group : formed)
        for (const JobUid uid : group)
            after.emplace(uid, group);
    for (const auto &group : groups_) {
        const auto it = after.find(group.front());
        if (it == after.end() || it->second != group)
            ++stats.pairsBroken;
    }
    for (const auto &[uid, group] : before) {
        const auto it = after.find(uid);
        if (it == after.end() || it->second != group)
            ++stats.migrations;
    }

    groups_ = std::move(formed);

    // Mean true penalty over grouped agents (ungrouped jobs run alone
    // at zero penalty, as unmatched agents do in the pair path).
    double sum = 0.0;
    std::size_t grouped = 0;
    for (AgentId a = 0; a < live_.size(); ++a) {
        if (result.structure.coalitionOf(a) == kNoCoalition)
            continue;
        sum += result.truePenalties[a];
        ++grouped;
    }
    stats.meanPenalty =
        grouped == 0 ? 0.0 : sum / static_cast<double>(grouped);

    if (MetricsRegistry *metrics = obsMetrics()) {
        metrics->counter("online.formation_rounds").add(result.rounds);
        metrics->gauge("online.coalitions")
            .set(static_cast<double>(groups_.size()));
    }
}

bool
OnlineDriver::refreshBelievedTable(const ColocationInstance &instance,
                                   std::vector<AgentId> &dirty)
{
    const std::size_t threads = config_.execution.threads;
    const std::size_t n = live_.size();
    const std::size_t ntypes = catalog_->size();
    const PenaltyMatrix &believed = instance.believed();

    // Diff against the previous epoch. A believed-disutility entry
    // d(a, b) is believed(type_a, type_b) plus a jitter that depends
    // only on the indices (a, b), so row a of the table changes only
    // when slot a holds a different job or the believed row of a's
    // type was re-predicted. A changed slot b also perturbs every
    // other row's b-th column — the pairs touching b, which the
    // bounds rescan via b's own dirtiness — so the cached table can
    // only be refreshed row-wise when no slot moved.
    const bool same_population = lastUids_.size() == n &&
                                 believedTable_.agents() == n &&
                                 lastBelieved_.size() == ntypes;
    dirty.clear();
    bool any_slot_changed = false;
    if (same_population) {
        std::vector<std::uint8_t> type_row_changed(ntypes, 0);
        for (std::size_t t1 = 0; t1 < ntypes; ++t1)
            for (std::size_t t2 = 0; t2 < ntypes; ++t2)
                if (believed(t1, t2) != lastBelieved_(t1, t2)) {
                    type_row_changed[t1] = 1;
                    break;
                }
        for (AgentId i = 0; i < n; ++i) {
            if (live_[i].uid != lastUids_[i]) {
                dirty.push_back(i);
                any_slot_changed = true;
            } else if (type_row_changed[live_[i].type]) {
                dirty.push_back(i);
            }
        }
    }

    if (!same_population || any_slot_changed) {
        believedTable_ = instance.believedTable(threads);
    } else if (!dirty.empty()) {
        believedTable_.refreshRows(
            dirty,
            [&instance](AgentId a, double *row) {
                instance.believedRow(a, row);
            },
            threads);
    }

    lastUids_.resize(n);
    for (AgentId i = 0; i < n; ++i)
        lastUids_[i] = live_[i].uid;
    lastBelieved_ = believed;
    return !same_population;
}

Matching
OnlineDriver::carriedMatching() const
{
    std::map<JobUid, AgentId> index;
    for (AgentId i = 0; i < live_.size(); ++i)
        index.emplace(live_[i].uid, i);

    Matching prev(live_.size());
    for (const auto &[uid, other] : partner_) {
        if (uid >= other)
            continue;
        const auto a = index.find(uid);
        const auto b = index.find(other);
        panicIf(a == index.end() || b == index.end(),
                "OnlineDriver: matched uid not live");
        prev.pair(a->second, b->second);
    }
    return prev;
}

std::vector<std::pair<JobUid, JobUid>>
OnlineDriver::pairsSnapshot() const
{
    std::vector<std::pair<JobUid, JobUid>> pairs;
    for (const auto &[uid, other] : partner_)
        if (uid < other)
            pairs.emplace_back(uid, other);
    return pairs; // map iteration order: already ascending
}

std::vector<std::vector<JobUid>>
OnlineDriver::groupsSnapshot() const
{
    return groups_; // maintained canonical by formEpoch / ungroup
}

void
OnlineDriver::faultBoundary(OnlineEpochStats &stats)
{
    // Re-admissions in offer order: crash evictees first (they were
    // running), then released quarantine jobs, both ascending by uid.
    std::vector<PendingArrival> urgent;

    // 1. Node crashes. A node hosts one colocated pair, so a crash
    // evicts the victim and its partner; both re-enter through the
    // admission FIFO and are re-probed when admitted. Victims are
    // drawn from the post-departure population, before this epoch's
    // admissions.
    if (plan_.enabled() && !live_.empty()) {
        std::vector<std::uint64_t> uids;
        uids.reserve(live_.size());
        for (const LiveJob &job : live_)
            uids.push_back(job.uid);
        std::sort(uids.begin(), uids.end());
        const auto victims = plan_.crashVictims(epoch_, uids);
        if (!victims.empty()) {
            const TraceSpan span("fault.crash", "fault");
            for (const std::uint64_t victim : victims) {
                const auto it = std::find_if(
                    live_.begin(), live_.end(),
                    [victim](const LiveJob &job) {
                        return job.uid == victim;
                    });
                if (it == live_.end())
                    continue; // already evicted as a partner
                std::vector<LiveJob> evicted{*it};
                // A node hosts one colocation — a pair under the
                // pairwise policies, a coalition in coalition mode —
                // so a crash takes down every co-runner with it.
                std::vector<JobUid> corunners;
                const auto link = partner_.find(victim);
                if (link != partner_.end())
                    corunners.push_back(link->second);
                for (const auto &group : groups_) {
                    if (std::find(group.begin(), group.end(), victim) ==
                        group.end())
                        continue;
                    for (const JobUid uid : group)
                        if (uid != victim)
                            corunners.push_back(uid);
                    break;
                }
                for (const JobUid other : corunners) {
                    const auto po = std::find_if(
                        live_.begin(), live_.end(),
                        [other](const LiveJob &job) {
                            return job.uid == other;
                        });
                    panicIf(po == live_.end(),
                            "OnlineDriver: matched uid not live");
                    evicted.push_back(*po);
                }
                departLive(victim);
                for (std::size_t e = 1; e < evicted.size(); ++e)
                    departLive(evicted[e].uid);
                ++stats.crashes;
                ++stats.faultsInjected;
                for (const LiveJob &job : evicted)
                    urgent.push_back(PendingArrival{job.uid, job.type,
                                                    clockTick()});
            }
        }
    }

    // 2. Quarantine releases: jobs whose sit-out ended re-enter the
    // FIFO for a fresh probe round; their round count survives in
    // rounds_ so abandonment still triggers across the gap.
    const auto released = quarantine_.releaseDue(epoch_);
    if (!released.empty()) {
        const TraceSpan span("fault.release", "fault");
        for (const QuarantinedJob &job : released) {
            rounds_[job.uid] = job.rounds;
            ++stats.quarantineReleased;
            urgent.push_back(PendingArrival{
                job.uid, static_cast<JobTypeId>(job.type), clockTick()});
        }
    }

    // Push in reverse so the queue front ends up in `urgent` order.
    // Backpressure still applies: a rejected re-admission is counted
    // like any other rejection and forgotten.
    for (auto it = urgent.rbegin(); it != urgent.rend(); ++it)
        if (!admission_.offerUrgent(*it))
            rounds_.erase(it->uid);
}

void
OnlineDriver::maybeCheckpoint(OnlineEpochStats &stats)
{
    const OnlineConfig &online = config_.execution.online;
    if (online.checkpointEveryEpochs == 0 || !sink_ ||
        epoch_ % online.checkpointEveryEpochs != 0)
        return;
    const TraceSpan span("fault.checkpoint", "fault");
    // Counted after the snapshot, so a checkpoint never holds its own
    // outcome; the epoch's record is already in totals_.
    OnlineCounts outcome;
    if (plan_.checkpointFails(epoch_)) {
        // The write never starts; the last good checkpoint stands and
        // the epoch has already committed.
        ++outcome.faultsInjected;
        ++outcome.checkpointFailures;
    } else if (!sink_(snapshot())) {
        ++outcome.checkpointFailures; // real write failure, same degradation
    }
    stats += outcome;
    totals_ += outcome;
}

void
OnlineDriver::stepEpoch(EventQueue &queue, OnlineReport &report)
{
    const TraceSpan span("online.epoch", "online");
    const ScopedTimer timer("online.epoch_seconds");
    const OnlineConfig &online = config_.execution.online;
    const Tick boundary = (epoch_ + 1) * online.epochTicks;

    OnlineEpochStats stats;
    stats.epoch = epoch_;
    stats.tick = boundary;

    // 1. Drain this epoch's events. Arrivals wait for admission;
    // departures take effect immediately (the job is gone whether or
    // not the coordinator has re-matched yet).
    //
    // Each stage re-emplaces `stage`, which closes the previous
    // stage's timer; the stages are disjoint and cost nothing with
    // metrics off.
    std::optional<ScopedTimer> stage(std::in_place,
                                     "online.stage.drain_seconds");
    while (!queue.empty() && queue.nextTick() < boundary) {
        const ChurnEvent event = queue.pop();
        if (event.kind == EventKind::Arrival) {
            fatalIf(event.type >= catalog_->size(),
                    "OnlineDriver: trace type ", event.type,
                    " outside the catalog (", catalog_->size(),
                    " types)");
            ++stats.arrivals;
            admission_.offer(PendingArrival{event.uid, event.type,
                                            event.tick});
        } else {
            ++stats.departures;
            if (admission_.withdraw(event.uid)) {
                rounds_.erase(event.uid);
                continue; // gave up waiting in the queue
            }
            if (quarantine_.remove(event.uid)) {
                rounds_.erase(event.uid);
                continue; // departed while sitting out
            }
            departLive(event.uid); // false: its arrival was rejected
        }
    }
    // 1b. Epoch-boundary faults: node crashes evict colocated pairs,
    // due quarantine entries re-enter the FIFO.
    stage.emplace("online.stage.fault_seconds");
    faultBoundary(stats);
    stats.rejectedTotal = admission_.rejected();

    // 2. Admit up to the profiling capacity; probe each admission
    // before it joins the population. An arrival whose probes fail
    // outright on enough cells is quarantined instead of admitted —
    // pairing an uncharacterized job would be guesswork.
    stage.emplace("online.stage.admit_seconds");
    ProbeBudget budget{online.probeBudgetPerEpoch > 0,
                       online.probeBudgetPerEpoch};
    const auto admitted = admission_.admit(online.admitPerEpoch);
    for (const PendingArrival &arrival : admitted) {
        const ProbeRound round =
            probeArrival(arrival.uid, arrival.type, budget);
        stats.probes += round.probes;
        stats.retries += round.retries;
        stats.cfFallbacks += round.cfFallbacks;
        stats.faultsInjected += round.faults;

        if (online.quarantineAfterFailures > 0 &&
            round.failedCells >= online.quarantineAfterFailures) {
            const auto it = rounds_.find(arrival.uid);
            const std::uint64_t served =
                it == rounds_.end() ? 0 : it->second;
            if (served + 1 > online.maxQuarantineRounds) {
                // Permanently unreachable: give up for good (counted,
                // never silently dropped).
                ++stats.abandoned;
                rounds_.erase(arrival.uid);
            } else {
                // The table keeps the round count while the job sits
                // out; rounds_ only tracks jobs back in the FIFO.
                rounds_.erase(arrival.uid);
                quarantine_.add(QuarantinedJob{
                    arrival.uid, arrival.type, round.failedCells,
                    epoch_ + 1 + online.quarantineEpochs, served + 1});
                ++stats.quarantined;
            }
            continue;
        }
        ++stats.admitted;
        rounds_.erase(arrival.uid); // recovered: a clean round resets
        live_.push_back(LiveJob{arrival.uid, arrival.type});
    }
    stats.probes += refreshProfiles(budget);
    stats.queueDepth = admission_.depth();
    stage.reset();

    // 3. Predict, build the epoch's instance and believed table,
    // repair the carried-over matching.
    if (live_.size() >= 2) {
        const std::size_t n = catalog_->size();
        PenaltyMatrix believed(n);
        if (predictor_.ratings().knownCount() == 0) {
            // Bottom rung of the degradation ladder: every probe so
            // far failed, so there is nothing to learn from. Pair on
            // an all-zero believed matrix (pure guesswork, but the
            // epoch still commits) rather than crash the service.
            stats.cfFallbacks += n * n;
        } else {
            const Prediction *prediction = nullptr;
            Prediction full;
            {
                // Both modes feed the same histogram so bench_online
                // can compare warm-started against from-scratch
                // prediction.
                const ScopedTimer predict_timer("online.predict_seconds");
                if (online.incremental) {
                    prediction = &predictor_.predict();
                    const IncrementalStats &ps = predictor_.lastStats();
                    stats.dirtyCells = ps.dirtyCells;
                    stats.recomputedPairs = ps.recomputedPairs;
                    stats.predictCacheHit = ps.cacheHit;
                    stats.predictIncremental = ps.incremental;
                } else {
                    const ItemKnnPredictor cold(
                        effectivePredictorConfig(config_));
                    full = cold.predict(predictor_.ratings());
                    prediction = &full;
                }
            }
            for (std::size_t i = 0; i < n; ++i)
                for (std::size_t j = 0; j < n; ++j)
                    believed(i, j) = prediction->dense[i][j];
        }

        stage.emplace("online.stage.instance_seconds");
        std::vector<JobTypeId> types;
        types.reserve(live_.size());
        for (const LiveJob &job : live_)
            types.push_back(job.type);
        const ColocationInstance instance(*catalog_, std::move(types),
                                          model_->penaltyMatrix(),
                                          std::move(believed),
                                          config_.jitter);

        // The believed table: kept across epochs and refreshed
        // row-wise under incremental blocking, else built fresh.
        stage.emplace("online.stage.believed_seconds");
        const std::size_t threads = config_.execution.threads;
        const bool incremental =
            !coalitionMode() && online.incrementalBlocking;
        DisutilityTable fresh;
        std::vector<AgentId> dirty;
        bool rebuild_bounds = false;
        if (incremental)
            rebuild_bounds = refreshBelievedTable(instance, dirty);
        else
            fresh = instance.believedTable(threads);
        const DisutilityTable &table = incremental ? believedTable_ : fresh;

        stage.emplace("online.stage.match_seconds");
        Rng rng = base_.substream(kPolicyStream).substream(epoch_);
        if (coalitionMode()) {
            formEpoch(table, rng, stats);
        } else {
            const Matching prev = carriedMatching();
            const RepairOutcome out =
                incremental
                    ? repairer_.repair(instance, prev, rng, threads, table,
                                       bounds_, dirty, rebuild_bounds)
                    : repairer_.repair(instance, prev, rng, threads,
                                       table);

            stats.blockingBefore = out.blockingBefore;
            stats.blockingAfter = out.blockingAfter;
            stats.pairsBroken = out.pairsBroken;
            stats.fullRematch = out.fullRematch;
            for (const auto &[a, b] : prev.pairs())
                if (out.matching.partnerOf(a) != b)
                    stats.migrations += 2;

            partner_.clear();
            for (const auto &[a, b] : out.matching.pairs()) {
                partner_[live_[a].uid] = live_[b].uid;
                partner_[live_[b].uid] = live_[a].uid;
            }
            stats.meanPenalty = instance.meanTruePenalty(out.matching);
        }
    } else {
        // Nobody to pair. A lone survivor of a departed pair was
        // already widowed by departLive.
        partner_.clear();
        groups_.clear();
        // The population collapsed; any cached blocking state is for
        // a vanished agent set.
        lastUids_.clear();
        bounds_.invalidate();
    }

    stage.emplace("online.stage.commit_seconds");
    stats.population = live_.size();
    lastMeanPenalty_ = stats.meanPenalty;

    // The epoch commits now — whatever probing failed above, the
    // matching shipped. Its counts join the lifetime totals, and the
    // periodic checkpoint (and its injected failures) happens on the
    // committed state.
    totals_ += stats;
    ++epoch_;
    maybeCheckpoint(stats);
    stats.quarantineSize = quarantine_.size();

    if (MetricsRegistry *metrics = obsMetrics()) {
        metrics->counter("online.epochs").add(1);
        for (const OnlineCountField &field : kOnlineCountFields)
            metrics->counter(field.metric).add(stats.*field.member);
        metrics->gauge("online.population")
            .set(static_cast<double>(stats.population));
        metrics->gauge("online.queue_depth")
            .set(static_cast<double>(stats.queueDepth));
        metrics->gauge("online.quarantine_size")
            .set(static_cast<double>(stats.quarantineSize));
        metrics->gauge("online.mean_penalty").set(stats.meanPenalty);
    }

    report.epochs.push_back(stats);
}

OnlineReport
OnlineDriver::run(const ChurnTrace &trace)
{
    // Honor the framework-level observability knob (passive when an
    // outer session, e.g. the CLI's, is already installed).
    const ObsScope obs_scope(config_.execution.obs);
    const TraceSpan span("online.run", "online");

    EventQueue queue;
    queue.push(trace);
    if (!queue.empty() && queue.nextTick() < clockTick())
        fatal("OnlineDriver::run: trace begins at tick ",
              queue.nextTick(), ", before the clock (", clockTick(),
              "); resume with trace.suffix(clockTick())");

    OnlineReport report = beginReport();
    while (!idle(queue))
        stepEpoch(queue, report);
    finalizeReport(report);
    return report;
}

OnlineReport
OnlineDriver::beginReport() const
{
    OnlineReport report;
    report.policy = config_.policy;
    report.seed = seed_;
    report.startEpoch = epoch_;
    return report;
}

bool
OnlineDriver::idle(const EventQueue &queue) const
{
    return queue.empty() && admission_.depth() == 0 &&
           quarantine_.empty();
}

void
OnlineDriver::finalizeReport(OnlineReport &report) const
{
    report.totalArrivals = totals_.arrivals;
    report.totalDepartures = totals_.departures;
    report.totalAdmitted = totals_.admitted;
    report.totalRejected = admission_.rejected();
    report.totalProbes = totals_.probes;
    report.totalMigrations = totals_.migrations;
    report.totalPairsBroken = totals_.pairsBroken;
    report.totalFullRematches = totals_.fullRematch;
    report.totalFaultsInjected = totals_.faultsInjected;
    report.totalRetries = totals_.retries;
    report.totalQuarantined = totals_.quarantined;
    report.totalQuarantineReleased = totals_.quarantineReleased;
    report.totalAbandoned = totals_.abandoned;
    report.totalCrashes = totals_.crashes;
    report.totalCfFallbacks = totals_.cfFallbacks;
    report.totalCheckpointFailures = totals_.checkpointFailures;
    report.finalPopulation = live_.size();
    report.finalQuarantine = quarantine_.size();
    report.finalMeanPenalty = lastMeanPenalty_;
    report.finalPairs = pairsSnapshot();
    report.finalGroups = groupsSnapshot();
}

std::optional<LiveJob>
OnlineDriver::extractLive(JobUid uid)
{
    const auto it =
        std::find_if(live_.begin(), live_.end(),
                     [uid](const LiveJob &job) { return job.uid == uid; });
    if (it == live_.end())
        return std::nullopt;
    const LiveJob job = *it;
    departLive(uid);
    return job;
}

bool
OnlineDriver::acceptMigrant(const LiveJob &job)
{
    return admission_.offerUrgent(
        PendingArrival{job.uid, job.type, clockTick()});
}

std::size_t
OnlineDriver::admissionRoom() const
{
    if (admission_.maxDepth() == 0)
        return std::numeric_limits<std::size_t>::max();
    return admission_.maxDepth() > admission_.depth()
               ? admission_.maxDepth() - admission_.depth()
               : 0;
}

OnlineState
OnlineDriver::snapshot() const
{
    OnlineState state;
    state.seed = seed_;
    state.epoch = epoch_;
    state.clockTick = clockTick();
    state.live = live_;
    state.pairs = pairsSnapshot();
    state.groups = groupsSnapshot();
    state.pending = admission_.snapshot();
    state.rejected = admission_.rejected();
    state.queueHighWater = admission_.highWater();
    state.totals = totals_;
    state.lastMeanPenalty = lastMeanPenalty_;
    state.quarantine = quarantine_.snapshot();
    for (const auto &[uid, served] : rounds_)
        state.probeRounds.emplace_back(uid, served);
    state.faultPlan = plan_;
    state.ratings = predictor_.ratings();
    return state;
}

void
OnlineDriver::restore(const OnlineState &state)
{
    fatalIf(state.seed != seed_,
            "OnlineDriver::restore: checkpoint seed ", state.seed,
            " does not match the driver seed ", seed_);
    fatalIf(state.ratings.rows() != catalog_->size() ||
                state.ratings.cols() != catalog_->size(),
            "OnlineDriver::restore: ratings matrix is ",
            state.ratings.rows(), "x", state.ratings.cols(),
            ", catalog has ", catalog_->size(), " types");

    live_ = state.live;
    partner_.clear();
    for (const auto &[a, b] : state.pairs) {
        fatalIf(a >= b, "OnlineDriver::restore: unordered pair");
        const auto isLive = [this](JobUid uid) {
            return std::find_if(live_.begin(), live_.end(),
                                [uid](const LiveJob &job) {
                                    return job.uid == uid;
                                }) != live_.end();
        };
        fatalIf(!isLive(a) || !isLive(b),
                "OnlineDriver::restore: matched uid not in the live "
                "population");
        fatalIf(partner_.count(a) != 0 || partner_.count(b) != 0,
                "OnlineDriver::restore: uid matched twice");
        partner_[a] = b;
        partner_[b] = a;
    }
    groups_.clear();
    {
        const std::size_t cap = config_.execution.online.groupSize;
        std::map<JobUid, std::uint8_t> grouped;
        for (const auto &group : state.groups) {
            fatalIf(group.size() < 2,
                    "OnlineDriver::restore: coalition of ",
                    group.size(), " members (minimum is 2)");
            fatalIf(coalitionMode() && group.size() > cap,
                    "OnlineDriver::restore: coalition of ",
                    group.size(), " members exceeds groupSize ", cap);
            fatalIf(!std::is_sorted(group.begin(), group.end()),
                    "OnlineDriver::restore: coalition members not "
                    "ascending");
            for (const JobUid uid : group) {
                fatalIf(std::find_if(live_.begin(), live_.end(),
                                     [uid](const LiveJob &job) {
                                         return job.uid == uid;
                                     }) == live_.end(),
                        "OnlineDriver::restore: grouped uid ", uid,
                        " not in the live population");
                fatalIf(!grouped.emplace(uid, 1).second,
                        "OnlineDriver::restore: uid ", uid,
                        " appears in two coalitions");
                fatalIf(partner_.count(uid) != 0,
                        "OnlineDriver::restore: uid ", uid,
                        " both paired and grouped");
            }
        }
        groups_ = state.groups;
    }
    admission_.restore(state.pending, state.rejected,
                       state.queueHighWater);
    epoch_ = state.epoch;
    fatalIf(state.clockTick != clockTick(),
            "OnlineDriver::restore: checkpoint tick ", state.clockTick,
            " does not match epoch ", epoch_, " * epochTicks");
    totals_ = state.totals;
    lastMeanPenalty_ = state.lastMeanPenalty;

    fatalIf(!(state.faultPlan == plan_),
            "OnlineDriver::restore: checkpoint fault plan does not "
            "match the driver's (a checkpoint only replays under its "
            "own fault schedule)");
    quarantine_.restore(state.quarantine);
    rounds_.clear();
    for (const auto &[uid, served] : state.probeRounds) {
        fatalIf(quarantine_.contains(uid),
                "OnlineDriver::restore: uid ", uid,
                " both quarantined and round-tracked");
        rounds_[uid] = served;
    }
    predictor_.reset(state.ratings);

    // The cached blocking state belongs to the pre-restore timeline;
    // the first epoch after a restore rebuilds it.
    lastUids_.clear();
    lastBelieved_ = PenaltyMatrix(0);
    believedTable_ = DisutilityTable();
    bounds_.invalidate();
}

void
validateServeOptions(const std::string &policy, std::size_t groupSize,
                     std::size_t shards)
{
    static constexpr const char *kKnown[] = {"GR",  "CO", "SMP",
                                             "SMR", "SR", "TH",
                                             "coalition"};
    bool known = false;
    for (const char *name : kKnown)
        known = known || policy == name;
    fatalIf(!known, "serve: unknown --policy '", policy,
            "' (expected GR, CO, SMP, SMR, SR, TH, or coalition)");
    if (policy != "coalition")
        return;
    fatalIf(groupSize < 2 || groupSize > 20,
            "serve: --group-size must be in [2, 20], got ", groupSize);
    fatalIf(shards > 1,
            "serve: --policy coalition does not support --shards > 1 "
            "(the cross-shard rebalancer migrates pairs); run the "
            "flat driver");
}

void
writeOnlineSummary(std::ostream &os, const OnlineReport &report)
{
    // Only decision-path quantities go here. Predictor diagnostics
    // (dirty cells, recomputed pairs, cache hits) describe execution
    // strategy and legitimately differ between incremental and
    // full-predict runs whose decisions are identical; they are
    // exposed through obs metrics and BENCH_online.json instead.
    os << "{\n";
    os << "  \"schema\": \"cooper.online.v3\",\n";
    os << "  \"policy\": \"" << report.policy << "\",\n";
    os << "  \"seed\": " << report.seed << ",\n";
    os << "  \"start_epoch\": " << report.startEpoch << ",\n";
    os << "  \"epochs\": [";
    for (std::size_t i = 0; i < report.epochs.size(); ++i) {
        const OnlineEpochStats &e = report.epochs[i];
        os << (i == 0 ? "\n" : ",\n");
        os << "    {\"epoch\": " << e.epoch
           << ", \"tick\": " << e.tick
           << ", \"population\": " << e.population
           << ", \"arrivals\": " << e.arrivals
           << ", \"departures\": " << e.departures
           << ", \"admitted\": " << e.admitted
           << ", \"queue_depth\": " << e.queueDepth
           << ", \"rejected_total\": " << e.rejectedTotal
           << ", \"probes\": " << e.probes
           << ", \"blocking_before\": " << e.blockingBefore
           << ", \"blocking_after\": " << e.blockingAfter
           << ", \"pairs_broken\": " << e.pairsBroken
           << ", \"full_rematch\": " << (e.fullRematch ? "true" : "false")
           << ", \"migrations\": " << e.migrations
           << ", \"faults\": " << e.faultsInjected
           << ", \"retries\": " << e.retries
           << ", \"crashes\": " << e.crashes
           << ", \"quarantined\": " << e.quarantined
           << ", \"quarantine_size\": " << e.quarantineSize
           << ", \"cf_fallbacks\": " << e.cfFallbacks
           << ", \"mean_penalty\": " << jsonNum(e.meanPenalty) << "}";
    }
    os << "\n  ],\n";
    os << "  \"totals\": {\n";
    os << "    \"arrivals\": " << report.totalArrivals << ",\n";
    os << "    \"departures\": " << report.totalDepartures << ",\n";
    os << "    \"admitted\": " << report.totalAdmitted << ",\n";
    os << "    \"rejected\": " << report.totalRejected << ",\n";
    os << "    \"probes\": " << report.totalProbes << ",\n";
    os << "    \"migrations\": " << report.totalMigrations << ",\n";
    os << "    \"pairs_broken\": " << report.totalPairsBroken << ",\n";
    os << "    \"full_rematches\": " << report.totalFullRematches << ",\n";
    os << "    \"faults_injected\": " << report.totalFaultsInjected
       << ",\n";
    os << "    \"retries\": " << report.totalRetries << ",\n";
    os << "    \"quarantined\": " << report.totalQuarantined << ",\n";
    os << "    \"quarantine_released\": "
       << report.totalQuarantineReleased << ",\n";
    os << "    \"abandoned\": " << report.totalAbandoned << ",\n";
    os << "    \"crashes\": " << report.totalCrashes << ",\n";
    os << "    \"cf_fallbacks\": " << report.totalCfFallbacks << ",\n";
    os << "    \"checkpoint_failures\": "
       << report.totalCheckpointFailures << "\n";
    os << "  },\n";
    os << "  \"final\": {\n";
    os << "    \"population\": " << report.finalPopulation << ",\n";
    os << "    \"quarantine\": " << report.finalQuarantine << ",\n";
    os << "    \"mean_penalty\": " << jsonNum(report.finalMeanPenalty)
       << ",\n";
    os << "    \"pairs\": [";
    for (std::size_t i = 0; i < report.finalPairs.size(); ++i) {
        os << (i == 0 ? "" : ", ");
        os << "[" << report.finalPairs[i].first << ", "
           << report.finalPairs[i].second << "]";
    }
    os << "],\n";
    os << "    \"groups\": [";
    for (std::size_t i = 0; i < report.finalGroups.size(); ++i) {
        os << (i == 0 ? "" : ", ");
        os << "[";
        for (std::size_t j = 0; j < report.finalGroups[i].size(); ++j)
            os << (j == 0 ? "" : ", ") << report.finalGroups[i][j];
        os << "]";
    }
    os << "]\n";
    os << "  }\n";
    os << "}\n";
}

void
saveOnlineSummary(const std::string &path, const OnlineReport &report)
{
    std::ofstream out(path);
    fatalIf(!out, "saveOnlineSummary: cannot open ", path);
    writeOnlineSummary(out, report);
    fatalIf(!out, "saveOnlineSummary: write to ", path, " failed");
}

} // namespace cooper
