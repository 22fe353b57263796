/**
 * @file
 * Closed-form pairwise interference model.
 *
 * Maps a (job, co-runner) pair of catalog types to the job's
 * ground-truth throughput penalty (the paper's disutility
 * d = 1 - Throughput_colocation / Throughput_standalone). The model
 * composes a bandwidth term (the co-runner's bandwidth appetite,
 * amplified once combined demand saturates the memory channels) and a
 * cache term (LLC overflow felt in proportion to the job's cache
 * sensitivity), plus a small deterministic per-pair idiosyncrasy so
 * that preference lists are rich rather than purely one-dimensional.
 *
 * The closed form is evaluated once per ordered type pair, when the
 * model is built; penalty() and penaltyMatrix() then read that table,
 * so every epoch's truth matrix and every probe measurement is a
 * lookup.
 */

#ifndef COOPER_SIM_INTERFERENCE_HH
#define COOPER_SIM_INTERFERENCE_HH

#include <span>
#include <vector>

#include "sim/config.hh"
#include "workload/catalog.hh"

namespace cooper {

/** Dense matrix of type-level penalties: entry (i, j) is d_i(j). */
class PenaltyMatrix
{
  public:
    PenaltyMatrix(std::size_t n, double fill = 0.0)
        : n_(n), cells_(n * n, fill)
    {}

    std::size_t size() const { return n_; }

    double operator()(std::size_t i, std::size_t j) const
    {
        return cells_[i * n_ + j];
    }

    double &operator()(std::size_t i, std::size_t j)
    {
        return cells_[i * n_ + j];
    }

  private:
    std::size_t n_;
    std::vector<double> cells_;
};

/**
 * Ground-truth penalty model over a job catalog.
 */
class InterferenceModel
{
  public:
    /**
     * @param catalog Job-type catalog.
     * @param config Memory-subsystem parameters.
     */
    InterferenceModel(const Catalog &catalog, ServerConfig config = {});

    const Catalog &catalog() const { return *catalog_; }
    const ServerConfig &config() const { return config_; }

    /**
     * Ground-truth penalty of job type `self` when sharing a CMP with
     * job type `other`. Raises FatalError on a type outside the
     * catalog.
     */
    double penalty(JobTypeId self, JobTypeId other) const;

    /** Dense matrix of all type-level penalties, built with the model. */
    const PenaltyMatrix &penaltyMatrix() const { return penalties_; }

    /**
     * Colocated completion time of `self` when running against
     * `other`: standalone time inflated by the throughput penalty.
     */
    double colocatedSeconds(JobTypeId self, JobTypeId other) const;

    /**
     * Ground-truth penalty of `self` when sharing a CMP with several
     * co-runners at once (the paper's future-work setting of more
     * than two co-runners, Section VIII). Reduces exactly to
     * penalty() when `others` has one element.
     *
     * @param self Job whose penalty is evaluated.
     * @param others Co-runner types sharing the CMP (at least one).
     */
    double groupPenalty(JobTypeId self,
                        std::span<const JobTypeId> others) const;

    /**
     * Memory pressure `other` exerts on `self`'s bandwidth term,
     * before sensitivity scaling (exposed for tests and ablations).
     */
    double bandwidthPressure(JobTypeId self, JobTypeId other) const;

    /** LLC overflow fraction for the pair (0 when the sets fit). */
    double cacheOverflow(JobTypeId self, JobTypeId other) const;

  private:
    /** Deterministic idiosyncrasy factor in [1-a, 1+a]. */
    double idiosyncrasyFactor(JobTypeId self, JobTypeId other) const;

    /** The closed form behind penalty(), evaluated at construction. */
    double closedForm(JobTypeId self, JobTypeId other) const;

    const Catalog *catalog_;
    ServerConfig config_;
    PenaltyMatrix penalties_;
};

} // namespace cooper

#endif // COOPER_SIM_INTERFERENCE_HH
