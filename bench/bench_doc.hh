/**
 * @file
 * The one document every in-process bench harness writes, schema
 * "cooper.bench.v2", which tools/bench_json validates:
 *
 *   { "schema": "cooper.bench.v2", "bench": "online",
 *     "workload": {"events": 136, ..., "tiny": true},
 *     "phases": {"predict": {"baseline": 0.004, "optimized": 0.001,
 *                            "ratio": 4, "equal": true}, ...},
 *     "values": {"online.migrations": 3, ...} }
 *
 * A phase is one comparison of baseline against optimized seconds;
 * ratio is baseline / optimized, and `equal` is the verdict of the
 * check the harness ran on the two sides' outputs. A phase timed
 * without a baseline writes baseline 0 and ratio 0; its `equal` is
 * false only when a check the harness ran on its output failed. Every
 * other result is a value: a number or a boolean verdict under a flat
 * dotted name.
 */

#ifndef COOPER_BENCH_DOC_HH
#define COOPER_BENCH_DOC_HH

#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/table.hh"

namespace cooper::bench {

/** Full-precision JSON number. */
inline std::string
jsonNum(double value)
{
    std::ostringstream out;
    out << std::setprecision(17) << value;
    return out.str();
}

/** One comparison: baseline against optimized seconds. */
struct Phase
{
    std::string name;
    double baseline = 0.0; //!< 0 when timed without a baseline
    double optimized = 0.0;
    bool equal = true; //!< the harness's check of both sides' outputs

    double ratio() const
    {
        return baseline > 0.0 ? baseline / optimized : 0.0;
    }
};

/** One cooper.bench.v2 document, filled in by a harness. */
class BenchDoc
{
  public:
    BenchDoc(std::string bench, bool tiny)
        : bench_(std::move(bench)), tiny_(tiny)
    {}

    /** One workload size. */
    void workload(const std::string &name, double value)
    {
        workload_.emplace_back(name, jsonNum(value));
    }

    void phase(Phase p) { phases_.push_back(std::move(p)); }

    /** One numeric result under a dotted name. */
    void value(const std::string &name, double number)
    {
        values_.emplace_back(name, jsonNum(number));
    }

    /** One boolean check result under a dotted name. */
    void verdict(const std::string &name, bool holds)
    {
        values_.emplace_back(name, holds ? "true" : "false");
    }

    const std::vector<Phase> &phases() const { return phases_; }

    /** Print the phases as a baseline/optimized/ratio/equal table. */
    void printPhases() const
    {
        Table table({"phase", "baseline", "optimized", "ratio", "equal"});
        for (const Phase &p : phases_) {
            const bool compared = p.baseline > 0.0;
            table.addRow(
                {p.name,
                 compared ? Table::num(p.baseline * 1e3, 2) + " ms"
                          : std::string("-"),
                 Table::num(p.optimized * 1e3, 2) + " ms",
                 compared ? Table::num(p.ratio(), 2) : std::string("-"),
                 p.equal ? "yes" : "NO"});
        }
        table.print(std::cout);
    }

    /** Write the document to `path`; throws on an I/O failure. */
    void write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            throw std::runtime_error("cannot write " + path);
        out << "{\n  \"schema\": \"cooper.bench.v2\",\n"
            << "  \"bench\": \"" << bench_ << "\",\n  \"workload\": {";
        for (const auto &[name, number] : workload_)
            out << "\"" << name << "\": " << number << ", ";
        out << "\"tiny\": " << (tiny_ ? "true" : "false")
            << "},\n  \"phases\": {";
        for (std::size_t i = 0; i < phases_.size(); ++i) {
            const Phase &p = phases_[i];
            out << (i ? ",\n" : "\n") << "    \"" << p.name << "\": {"
                << "\"baseline\": " << jsonNum(p.baseline)
                << ", \"optimized\": " << jsonNum(p.optimized)
                << ", \"ratio\": " << jsonNum(p.ratio())
                << ", \"equal\": " << (p.equal ? "true" : "false") << "}";
        }
        out << (phases_.empty() ? "" : "\n  ") << "},\n  \"values\": {";
        for (std::size_t i = 0; i < values_.size(); ++i)
            out << (i ? ",\n" : "\n") << "    \"" << values_[i].first
                << "\": " << values_[i].second;
        out << (values_.empty() ? "" : "\n  ") << "}\n}\n";
        if (!out.flush())
            throw std::runtime_error("failed writing " + path);
        std::cout << "\nwrote " << path << " (cooper.bench.v2, bench "
                  << bench_ << ")\n";
    }

  private:
    std::string bench_;
    bool tiny_;
    std::vector<std::pair<std::string, std::string>> workload_;
    std::vector<Phase> phases_;
    std::vector<std::pair<std::string, std::string>> values_;
};

} // namespace cooper::bench

#endif // COOPER_BENCH_DOC_HH
