/**
 * @file
 * Minimal command-line flag parsing for the bench and example binaries.
 *
 * Flags take the form --name=value or --name value; bare --name sets a
 * boolean flag. Unknown flags are fatal so typos do not silently change
 * an experiment.
 */

#ifndef COOPER_UTIL_CLI_HH
#define COOPER_UTIL_CLI_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace cooper {

/**
 * Declared-flag command-line parser.
 */
class CliFlags
{
  public:
    /** Declare a flag with a default value and help text. */
    void declare(const std::string &name, const std::string &default_value,
                 const std::string &help);

    /**
     * Parse argv; raises FatalError on unknown or malformed flags.
     * Recognizes --help by printing usage and returning false.
     *
     * @return true if execution should continue.
     */
    bool parse(int argc, const char *const *argv);

    std::string get(const std::string &name) const;
    std::int64_t getInt(const std::string &name) const;

    /**
     * A non-negative count (or port, or id): like getInt(), but a
     * negative value, or one above `max`, raises FatalError naming the
     * flag instead of wrapping to a huge unsigned value.
     */
    std::uint64_t getCount(const std::string &name,
                           std::uint64_t max = UINT64_MAX) const;

    double getDouble(const std::string &name) const;
    bool getBool(const std::string &name) const;

    /** Usage text generated from declarations. */
    std::string usage(const std::string &program) const;

  private:
    struct Flag
    {
        std::string value;
        std::string help;
    };

    const Flag &lookup(const std::string &name) const;

    std::map<std::string, Flag> flags_;
    std::vector<std::string> order_;
};

/**
 * Subcommand dispatcher for the multi-tool binaries (cooper_cli).
 *
 * Routes argv[1] to a declared handler; an unrecognized subcommand is
 * a hard failure that names the offender and prints the usage text
 * (exit 2) instead of being silently ignored, and a FatalError thrown
 * by a handler (CliFlags rejects unknown flags the same way) is
 * reported with a per-subcommand --help hint. Streams are injectable
 * so tests can assert on the exact messages.
 */
class CliCommands
{
  public:
    using Handler = std::function<int(int, const char *const *)>;

    explicit CliCommands(std::string program)
        : program_(std::move(program))
    {}

    /** Register a subcommand; duplicate names are fatal. */
    void declare(const std::string &name, Handler handler);

    /** Route bare flags (argv[1] starting with --) to this declared
     *  subcommand, keeping argv intact for its parser. */
    void routeBareFlagsTo(const std::string &name);

    /** Usage block printed on dispatch failures and empty argv. */
    void setUsageText(std::string text) { usage_ = std::move(text); }

    /**
     * Dispatch. Returns the handler's exit code; 2 on a missing or
     * unknown subcommand (usage goes to `err`, or `out` when invoked
     * with no arguments at all) and on a FatalError escaping the
     * handler.
     */
    int run(int argc, const char *const *argv,
            std::ostream &out, std::ostream &err) const;

    /** Convenience overload on std::cout / std::cerr. */
    int run(int argc, const char *const *argv) const;

  private:
    std::string program_;
    std::string usage_;
    std::string bareFlagTarget_;
    std::map<std::string, Handler> handlers_;
    std::vector<std::string> order_;
};

} // namespace cooper

#endif // COOPER_UTIL_CLI_HH
