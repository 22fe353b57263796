#include "disutility.hh"

#include <algorithm>
#include <utility>

#include "util/error.hh"
#include "util/thread_pool.hh"

namespace cooper {

namespace {

/** The per-cell oracle `fn` as a row writer over `candidates`. */
DisutilityTable::RowFill
cellwise(DisutilityFn fn, std::size_t candidates)
{
    return [fn = std::move(fn), candidates](AgentId a, double *row) {
        for (std::size_t b = 0; b < candidates; ++b)
            row[b] = fn(a, b);
    };
}

} // namespace

DisutilityTable::DisutilityTable(std::size_t agents,
                                 std::size_t candidates,
                                 const RowFill &fill, std::size_t threads)
    : agents_(agents), candidates_(candidates),
      data_(agents * candidates, 0.0), rowMin_(agents, 0.0)
{
    fatalIf(agents == 0 || candidates == 0,
            "DisutilityTable: empty shape ", agents, "x", candidates);
    fillRows(nullptr, agents_, fill, threads);
}

DisutilityTable::DisutilityTable(std::size_t agents,
                                 std::size_t candidates,
                                 const DisutilityFn &fn,
                                 std::size_t threads)
    : DisutilityTable(agents, candidates, cellwise(fn, candidates),
                      threads)
{}

void
DisutilityTable::fillRows(const AgentId *rows, std::size_t count,
                          const RowFill &fill, std::size_t threads)
{
    parallelFor(0, count, threads, [&](std::size_t k) {
        const AgentId a = rows == nullptr ? k : rows[k];
        double *row = data_.data() + a * candidates_;
        fill(a, row);
        rowMin_[a] = *std::min_element(row, row + candidates_);
    });
}

void
DisutilityTable::refreshRows(const std::vector<AgentId> &rows,
                             const RowFill &fill, std::size_t threads)
{
    fatalIf(empty(), "DisutilityTable::refreshRows: table not built");
    // Deduplicate so a row is written by exactly one iteration.
    std::vector<AgentId> todo(rows);
    std::sort(todo.begin(), todo.end());
    todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
    fatalIf(!todo.empty() && todo.back() >= agents_,
            "DisutilityTable::refreshRows: row ", todo.back(),
            " out of range (", agents_, " agents)");
    fillRows(todo.data(), todo.size(), fill, threads);
}

void
DisutilityTable::refreshRows(const std::vector<AgentId> &rows,
                             const DisutilityFn &fn, std::size_t threads)
{
    refreshRows(rows, cellwise(fn, candidates_), threads);
}

DisutilityFn
DisutilityTable::fn() const
{
    return [this](AgentId a, AgentId b) { return (*this)(a, b); };
}

} // namespace cooper
