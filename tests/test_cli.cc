/**
 * @file
 * Unit tests for command-line flag parsing and subcommand dispatch:
 * unknown flags and subcommands are hard failures that name the
 * offender, never silent no-ops.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "online/churn.hh"
#include "online/driver.hh"
#include "online/events.hh"
#include "util/cli.hh"
#include "util/error.hh"
#include "util/rng.hh"

namespace cooper {
namespace {

TEST(CliFlags, DefaultsApply)
{
    CliFlags flags;
    flags.declare("agents", "1000", "population size");
    const char *argv[] = {"prog"};
    EXPECT_TRUE(flags.parse(1, argv));
    EXPECT_EQ(flags.getInt("agents"), 1000);
}

TEST(CliFlags, EqualsSyntax)
{
    CliFlags flags;
    flags.declare("agents", "1000", "population size");
    const char *argv[] = {"prog", "--agents=64"};
    EXPECT_TRUE(flags.parse(2, argv));
    EXPECT_EQ(flags.getInt("agents"), 64);
}

TEST(CliFlags, SpaceSyntax)
{
    CliFlags flags;
    flags.declare("ratio", "0.25", "sampling ratio");
    const char *argv[] = {"prog", "--ratio", "0.5"};
    EXPECT_TRUE(flags.parse(3, argv));
    EXPECT_DOUBLE_EQ(flags.getDouble("ratio"), 0.5);
}

TEST(CliFlags, BareBooleanFlag)
{
    CliFlags flags;
    flags.declare("verbose", "false", "chatty output");
    const char *argv[] = {"prog", "--verbose"};
    EXPECT_TRUE(flags.parse(2, argv));
    EXPECT_TRUE(flags.getBool("verbose"));
}

TEST(CliFlags, UnknownFlagFatal)
{
    CliFlags flags;
    flags.declare("x", "1", "x");
    const char *argv[] = {"prog", "--y=2"};
    EXPECT_THROW(flags.parse(2, argv), FatalError);
}

TEST(CliFlags, MalformedValueFatal)
{
    CliFlags flags;
    flags.declare("n", "1", "n");
    const char *argv[] = {"prog", "--n=abc"};
    EXPECT_TRUE(flags.parse(2, argv));
    EXPECT_THROW(flags.getInt("n"), FatalError);
}

TEST(CliFlags, CountRejectsNegativeAndOutOfRangeValues)
{
    CliFlags flags;
    flags.declare("admit", "8", "admissions per epoch");
    flags.declare("port", "0", "listen port");
    flags.declare("zero", "0", "a zero count");
    const char *argv[] = {"prog", "--admit", "-1", "--port=70000"};
    EXPECT_TRUE(flags.parse(4, argv));

    EXPECT_EQ(flags.getCount("zero"), 0u);
    EXPECT_EQ(flags.getCount("port"), 70000u); // no bound asked for
    EXPECT_EQ(flags.getCount("port", 70000), 70000u);
    try {
        flags.getCount("admit");
        ADD_FAILURE() << "a negative count was accepted";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("--admit"),
                  std::string::npos)
            << error.what();
    }
    try {
        flags.getCount("port", 65535);
        ADD_FAILURE() << "a port above 65535 was accepted";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("--port"),
                  std::string::npos)
            << error.what();
    }
}

TEST(CliFlags, HelpShortCircuits)
{
    CliFlags flags;
    flags.declare("n", "1", "n");
    const char *argv[] = {"prog", "--help"};
    EXPECT_FALSE(flags.parse(2, argv));
}

TEST(CliFlags, DuplicateDeclarationFatal)
{
    CliFlags flags;
    flags.declare("n", "1", "n");
    EXPECT_THROW(flags.declare("n", "2", "again"), FatalError);
}

TEST(CliFlags, MissingValueFatal)
{
    CliFlags flags;
    flags.declare("n", "1", "n");
    const char *argv[] = {"prog", "--n"};
    EXPECT_THROW(flags.parse(2, argv), FatalError);
}

TEST(CliFlags, UsageListsFlags)
{
    CliFlags flags;
    flags.declare("agents", "1000", "population size");
    const std::string usage = flags.usage("prog");
    EXPECT_NE(usage.find("--agents"), std::string::npos);
    EXPECT_NE(usage.find("population size"), std::string::npos);
}

TEST(CliCommands, DispatchesToTheNamedSubcommand)
{
    CliCommands commands("tool");
    int seen_argc = 0;
    std::string seen_first;
    commands.declare("go", [&](int argc, const char *const *argv) {
        seen_argc = argc;
        seen_first = argv[0];
        return 0;
    });

    const char *argv[] = {"tool", "go", "--n=1"};
    std::ostringstream out, err;
    EXPECT_EQ(commands.run(3, argv, out, err), 0);
    // The handler sees argv shifted so CliFlags parses its own flags.
    EXPECT_EQ(seen_argc, 2);
    EXPECT_EQ(seen_first, "go");
}

TEST(CliCommands, UnknownSubcommandNamesTheOffenderAndFails)
{
    CliCommands commands("tool");
    commands.declare("go",
                     [](int, const char *const *) { return 0; });
    commands.setUsageText("Usage: tool <go> [flags]\n");

    const char *argv[] = {"tool", "frobnicate"};
    std::ostringstream out, err;
    EXPECT_EQ(commands.run(2, argv, out, err), 2);
    EXPECT_NE(err.str().find("unknown subcommand 'frobnicate'"),
              std::string::npos);
    EXPECT_NE(err.str().find("Usage: tool"), std::string::npos);
}

TEST(CliCommands, NoArgumentsPrintsUsageAndFails)
{
    CliCommands commands("tool");
    commands.declare("go",
                     [](int, const char *const *) { return 0; });
    commands.setUsageText("Usage: tool <go> [flags]\n");

    const char *argv[] = {"tool"};
    std::ostringstream out, err;
    EXPECT_EQ(commands.run(1, argv, out, err), 2);
    EXPECT_NE(out.str().find("Usage: tool"), std::string::npos);
}

TEST(CliCommands, BareFlagsRouteToTheDefaultSubcommand)
{
    CliCommands commands("tool");
    int seen_argc = 0;
    std::string seen_flag;
    commands.declare("go", [&](int argc, const char *const *argv) {
        seen_argc = argc;
        seen_flag = argv[1];
        return 0;
    });
    commands.routeBareFlagsTo("go");

    // Legacy spelling: flags with no subcommand keep argv intact.
    const char *argv[] = {"tool", "--n=1"};
    std::ostringstream out, err;
    EXPECT_EQ(commands.run(2, argv, out, err), 0);
    EXPECT_EQ(seen_argc, 2);
    EXPECT_EQ(seen_flag, "--n=1");
}

TEST(CliCommands, UnknownFlagFailureNamesTheSubcommand)
{
    // A handler whose CliFlags rejects an unrecognized flag must
    // surface that as a hard dispatch failure with a --help hint, not
    // a crash and not a silently ignored argument.
    CliCommands commands("tool");
    commands.declare("go", [](int argc, const char *const *argv) {
        CliFlags flags;
        flags.declare("n", "1", "n");
        flags.parse(argc, argv);
        return 0;
    });

    const char *argv[] = {"tool", "go", "--bogus=1"};
    std::ostringstream out, err;
    EXPECT_EQ(commands.run(3, argv, out, err), 2);
    EXPECT_NE(err.str().find("tool go:"), std::string::npos);
    EXPECT_NE(err.str().find("unknown flag --bogus"),
              std::string::npos);
    EXPECT_NE(err.str().find("tool go --help"), std::string::npos);
}

TEST(CliCommands, HandlerExitCodePassesThrough)
{
    CliCommands commands("tool");
    commands.declare("go",
                     [](int, const char *const *) { return 3; });
    const char *argv[] = {"tool", "go"};
    std::ostringstream out, err;
    EXPECT_EQ(commands.run(2, argv, out, err), 3);
}

TEST(CliCommands, DuplicateSubcommandFatal)
{
    CliCommands commands("tool");
    commands.declare("go",
                     [](int, const char *const *) { return 0; });
    EXPECT_THROW(commands.declare(
                     "go", [](int, const char *const *) { return 0; }),
                 FatalError);
}

TEST(CliCommands, BareFlagTargetMustBeDeclared)
{
    CliCommands commands("tool");
    EXPECT_THROW(commands.routeBareFlagsTo("missing"), FatalError);
}

// `cooper_cli serve` flag validation: bad --policy / --group-size /
// --shards combinations must hard-fail before any trace is replayed,
// naming the offender.

TEST(CliCommands, ServeRejectsUnknownPolicy)
{
    EXPECT_THROW(validateServeOptions("SRX", 2, 1), FatalError);
    EXPECT_THROW(validateServeOptions("", 2, 1), FatalError);
    EXPECT_THROW(validateServeOptions("Coalition", 2, 1), FatalError);
    for (const char *policy :
         {"GR", "CO", "SMP", "SMR", "SR", "TH", "coalition"})
        EXPECT_NO_THROW(validateServeOptions(policy, 2, 1));
}

TEST(CliCommands, ServeRejectsGroupSizeOutOfRange)
{
    EXPECT_THROW(validateServeOptions("coalition", 0, 1), FatalError);
    EXPECT_THROW(validateServeOptions("coalition", 1, 1), FatalError);
    EXPECT_THROW(validateServeOptions("coalition", 21, 1), FatalError);
    EXPECT_NO_THROW(validateServeOptions("coalition", 20, 1));
    // The pairwise policies ignore --group-size entirely.
    EXPECT_NO_THROW(validateServeOptions("SR", 0, 1));
}

TEST(CliCommands, ServeRejectsCoalitionWithShards)
{
    EXPECT_THROW(validateServeOptions("coalition", 3, 2), FatalError);
    EXPECT_NO_THROW(validateServeOptions("coalition", 3, 1));
    EXPECT_NO_THROW(validateServeOptions("SR", 2, 4));
}

TEST(CliCommands, ServeGroupSizeMustBeNumeric)
{
    // The CLI reads --group-size through CliFlags::getInt, which
    // rejects non-numeric values before validateServeOptions runs.
    CliFlags flags;
    flags.declare("group-size", "2", "jobs per CMP");
    const char *argv[] = {"prog", "--group-size", "three"};
    EXPECT_TRUE(flags.parse(3, argv));
    EXPECT_THROW(flags.getInt("group-size"), FatalError);
}

// The built cooper_cli rejects a negative count or an out-of-range
// port with exit 2, naming the flag, before it replays or listens.

/** Run cooper_cli with `args` under a time cap; returns its exit code
 *  and leaves stdout and stderr in `output`. */
int
runCli(const std::string &args, std::string &output)
{
    const std::string command =
        std::string("timeout 60 ") + COOPER_CLI_PATH + " " + args + " 2>&1";
    FILE *pipe = popen(command.c_str(), "r");
    if (pipe == nullptr)
        return -1;
    output.clear();
    char buffer[512];
    while (std::fgets(buffer, sizeof buffer, pipe) != nullptr)
        output += buffer;
    const int status = pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** A small churn trace on disk for the serve cases. */
std::string
writeSmallTrace()
{
    ChurnConfig churn;
    churn.arrivals = 40;
    churn.initialJobs = 10;
    Rng rng(3);
    const ChurnTrace trace =
        generateChurnTrace(Catalog::paperTableI(), churn, rng);
    const std::string path = ::testing::TempDir() + "cli_flags_trace.txt";
    saveTrace(path, trace);
    return path;
}

TEST(CliCommands, ServeRejectsANegativeCount)
{
    const std::string trace = writeSmallTrace();
    const std::string out = ::testing::TempDir() + "cli_flags_summary.json";
    std::string output;
    EXPECT_EQ(runCli("serve --trace " + trace + " --out " + out +
                         " --admit -1",
                     output),
              2);
    EXPECT_NE(output.find("--admit"), std::string::npos) << output;
    // The same replay with a valid count succeeds.
    EXPECT_EQ(runCli("serve --trace " + trace + " --out " + out +
                         " --admit 8",
                     output),
              0)
        << output;
}

TEST(CliCommands, ServeRejectsAPortAboveTheRange)
{
    std::string output;
    EXPECT_EQ(runCli("serve --listen --port 70000", output), 2);
    EXPECT_NE(output.find("--port"), std::string::npos) << output;
}

} // namespace
} // namespace cooper
