#include "net/service_plane.hh"

#include <algorithm>
#include <sstream>

#include "obs/obs.hh"
#include "util/error.hh"

namespace cooper::net {

namespace {

void
countMetric(const char *name)
{
    if (MetricsRegistry *metrics = obsMetrics())
        metrics->counter(name).add(1);
}

} // namespace

ServicePlane::ServicePlane(const Catalog &catalog, OnlineDriver &driver)
    : catalog_(&catalog), flat_(&driver)
{
    flatReport_ = flat_->beginReport();
}

ServicePlane::ServicePlane(const Catalog &catalog, ShardedDriver &driver)
    : catalog_(&catalog), sharded_(&driver)
{
    shardedReport_ = sharded_->beginReport();
}

void
ServicePlane::setCheckpointHook(CheckpointHook hook)
{
    checkpointHook_ = std::move(hook);
}

HelloAckMsg
ServicePlane::helloAck() const
{
    HelloAckMsg ack;
    if (flat_) {
        ack.seed = flat_->seed();
        ack.epochTicks = flat_->config().execution.online.epochTicks;
        ack.shards = 0;
    } else {
        ack.seed = sharded_->seed();
        ack.epochTicks =
            sharded_->config().execution.online.epochTicks;
        ack.shards = sharded_->shards();
    }
    ack.catalogTypes = catalog_->size();
    return ack;
}

std::uint64_t
ServicePlane::epochsCommitted() const
{
    return flat_ ? flat_->epoch() : sharded_->epoch();
}

Tick
ServicePlane::driverClock() const
{
    return flat_ ? flat_->clockTick() : sharded_->clockTick();
}

Tick
ServicePlane::epochBoundary() const
{
    const std::uint64_t ticks =
        flat_ ? flat_->config().execution.online.epochTicks
              : sharded_->config().execution.online.epochTicks;
    return (epochsCommitted() + 1) * ticks;
}

bool
ServicePlane::driverIdle() const
{
    return flat_ ? flat_->idle(queue_) : sharded_->idle(queue_);
}

void
ServicePlane::setFlowControl(std::uint64_t maxPendingPerSource)
{
    maxPendingPerSource_ = maxPendingPerSource;
}

PlaneOutcome
ServicePlane::ingest(const EventMsg &event)
{
    // Unattributed ingest: one anonymous source. With the default
    // unlimited bound this can never come back Busy, so the outcome
    // alone describes the verdict.
    return ingest(event, 0).outcome;
}

IngestResult
ServicePlane::ingest(const EventMsg &event, std::uint64_t source)
{
    if (poisoned_)
        return {IngestStatus::Failed, poison_};
    if (finished_) {
        poison_ = PlaneOutcome::fail(
            PlaneError::AfterFinish,
            formatMessage("event seq ", event.seq,
                          " arrived after the run completed"));
        poisoned_ = true;
        return {IngestStatus::Failed, poison_};
    }
    if (event.seq < nextSeq_ || pending_.count(event.seq) != 0) {
        poison_ = PlaneOutcome::fail(
            PlaneError::DuplicateSeq,
            formatMessage("duplicate or replayed event seq ",
                          event.seq, " (frontier ", nextSeq_, ")"));
        poisoned_ = true;
        return {IngestStatus::Failed, poison_};
    }
    if (event.seq - nextSeq_ >= kMaxPendingEvents) {
        poison_ = PlaneOutcome::fail(
            PlaneError::SeqWindow,
            formatMessage("event seq ", event.seq, " is ",
                          event.seq - nextSeq_,
                          " ahead of the frontier (window ",
                          kMaxPendingEvents, ")"));
        poisoned_ = true;
        return {IngestStatus::Failed, poison_};
    }
    if (event.seq != nextSeq_ && maxPendingPerSource_ > 0) {
        // Soft refusal: the frontier event itself is always taken
        // (progress), but a source at its parked bound must wait for
        // the gap to fill before adding more out-of-order events.
        const auto it = parkedBySource_.find(source);
        if (it != parkedBySource_.end() &&
            it->second >= maxPendingPerSource_) {
            countMetric("net.events_busy");
            return {IngestStatus::Busy, {}};
        }
    }

    pending_.emplace(event.seq, Parked{event, source});
    ++parkedBySource_[source];
    while (!pending_.empty() &&
           pending_.begin()->first == nextSeq_) {
        const Parked next = pending_.begin()->second;
        pending_.erase(pending_.begin());
        auto parked = parkedBySource_.find(next.source);
        if (parked != parkedBySource_.end() && --parked->second == 0)
            parkedBySource_.erase(parked);
        const PlaneOutcome outcome = deliver(next.event);
        if (!outcome.ok) {
            poison_ = outcome;
            poisoned_ = true;
            return {IngestStatus::Failed, poison_};
        }
    }
    stepReadyEpochs();
    countMetric("net.events_ingested");
    return {IngestStatus::Accepted, {}};
}

PlaneOutcome
ServicePlane::deliver(const EventMsg &event)
{
    if (anyDelivered_ && event.tick < lastDeliveredTick_)
        return PlaneOutcome::fail(
            PlaneError::TickRegression,
            formatMessage("event seq ", event.seq, " tick ",
                          event.tick, " regresses below tick ",
                          lastDeliveredTick_));
    if (event.tick < driverClock())
        return PlaneOutcome::fail(
            PlaneError::BeforeClock,
            formatMessage("event seq ", event.seq, " tick ",
                          event.tick,
                          " predates the service clock (tick ",
                          driverClock(), ")"));

    ChurnEvent churn;
    churn.tick = event.tick;
    churn.uid = event.uid;
    if (event.kind == 0) {
        if (event.type >= catalog_->size())
            return PlaneOutcome::fail(
                PlaneError::BadType,
                formatMessage("arrival uid ", event.uid,
                              " names job type ", event.type,
                              " outside the catalog (",
                              catalog_->size(), " types)"));
        if (!seenUids_.insert(event.uid).second)
            return PlaneOutcome::fail(
                PlaneError::UidReuse,
                formatMessage("arrival reuses uid ", event.uid));
        activeUids_.insert(event.uid);
        churn.kind = EventKind::Arrival;
        churn.type = event.type;
    } else {
        if (activeUids_.erase(event.uid) == 0)
            return PlaneOutcome::fail(
                PlaneError::UnknownUid,
                formatMessage("departure of unknown or already-"
                              "departed uid ",
                              event.uid));
        churn.kind = EventKind::Departure;
    }

    queue_.push(churn);
    lastDeliveredTick_ = event.tick;
    anyDelivered_ = true;
    ++nextSeq_;
    ++eventsIngested_;
    return {};
}

void
ServicePlane::stepReadyEpochs()
{
    // An epoch may commit once its boundary is at or behind the
    // delivered frontier: every undelivered event has tick >=
    // lastDeliveredTick_ >= boundary, so none of them belongs to it.
    // The frontier event itself (tick >= boundary) is still queued,
    // so run() would have stepped here too — never an extra epoch.
    while (anyDelivered_ && epochBoundary() <= lastDeliveredTick_)
        stepOne();
}

void
ServicePlane::stepOne()
{
    const TraceSpan span("net.plane_epoch", "net");
    if (flat_)
        flat_->stepEpoch(queue_, flatReport_);
    else
        sharded_->stepEpoch(queue_, shardedReport_);
    outputs_.push_back(makeOutput());
    countMetric("net.epochs_served");
}

EpochOutput
ServicePlane::makeOutput() const
{
    EpochOutput out;
    OnlineCounts counts;
    if (flat_) {
        const OnlineEpochStats &stats = flatReport_.epochs.back();
        counts = stats;
        out.complete = {stats.epoch, stats.tick, stats.population, 0};
        out.assignment.pairs = flat_->pairsSnapshot();
    } else {
        const ShardEpochStats &stats = shardedReport_.epochs.back();
        out.complete = {stats.epoch, stats.tick, stats.population, 0};
        for (std::size_t s = 0; s < sharded_->shards(); ++s) {
            counts += shardedReport_.perShard[s].epochs.back();
            const auto pairs = sharded_->shard(s).pairsSnapshot();
            out.assignment.pairs.insert(out.assignment.pairs.end(),
                                        pairs.begin(), pairs.end());
        }
        std::sort(out.assignment.pairs.begin(),
                  out.assignment.pairs.end());
    }
    out.complete.admitted = counts.admitted;
    out.probes = {out.complete.epoch, counts.probes, counts.retries,
                  counts.cfFallbacks, counts.faultsInjected};
    out.assignment.epoch = out.complete.epoch;
    return out;
}

void
ServicePlane::declareFinished(std::uint64_t eventsSent)
{
    declaredTotal_ += eventsSent;
}

PlaneOutcome
ServicePlane::completeRun()
{
    if (poisoned_)
        return poison_;
    if (finished_)
        return {};
    if (!pending_.empty()) {
        poison_ = PlaneOutcome::fail(
            PlaneError::MissingEvents,
            formatMessage("run finished with ", pending_.size(),
                          " events stranded past a gap at seq ",
                          nextSeq_));
        poisoned_ = true;
        return poison_;
    }
    if (declaredTotal_ != eventsIngested_) {
        poison_ = PlaneOutcome::fail(
            PlaneError::CountMismatch,
            formatMessage("clients declared ", declaredTotal_,
                          " events but ", eventsIngested_,
                          " were ingested"));
        poisoned_ = true;
        return poison_;
    }

    // The tail of run(): epochs advance until the queue, admission
    // backlog, and quarantine are all drained.
    while (!driverIdle())
        stepOne();

    std::ostringstream os;
    if (flat_) {
        flat_->finalizeReport(flatReport_);
        writeOnlineSummary(os, flatReport_);
    } else {
        sharded_->finalizeReport(shardedReport_);
        writeShardedSummary(os, shardedReport_);
    }
    summary_ = os.str();
    finished_ = true;
    return {};
}

CheckpointAckMsg
ServicePlane::checkpointNow()
{
    CheckpointAckMsg ack;
    ack.epoch = epochsCommitted();
    ack.ok = checkpointHook_ && checkpointHook_() ? 1 : 0;
    return ack;
}

std::vector<EpochOutput>
ServicePlane::takeOutputs()
{
    std::vector<EpochOutput> out;
    out.swap(outputs_);
    return out;
}

const std::string &
ServicePlane::summary() const
{
    fatalIf(!finished_,
            "ServicePlane: summary requested before the run completed");
    return summary_;
}

} // namespace cooper::net
