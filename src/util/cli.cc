#include "cli.hh"

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "error.hh"

namespace cooper {

void
CliFlags::declare(const std::string &name, const std::string &default_value,
                  const std::string &help)
{
    fatalIf(flags_.count(name) != 0, "CliFlags: duplicate flag --", name);
    flags_[name] = Flag{default_value, help};
    order_.push_back(name);
}

bool
CliFlags::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::cout << usage(argv[0]);
            return false;
        }
        fatalIf(arg.rfind("--", 0) != 0,
                "CliFlags: expected --flag, got '", arg, "'");
        arg = arg.substr(2);

        std::string name, value;
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        } else {
            name = arg;
            auto it = flags_.find(name);
            fatalIf(it == flags_.end(), "CliFlags: unknown flag --", name);
            // A boolean flag may appear bare; otherwise consume the next
            // argument as the value.
            const bool is_bool = it->second.value == "true" ||
                                 it->second.value == "false";
            if (is_bool) {
                value = "true";
            } else {
                fatalIf(i + 1 >= argc,
                        "CliFlags: flag --", name, " needs a value");
                value = argv[++i];
            }
        }
        auto it = flags_.find(name);
        fatalIf(it == flags_.end(), "CliFlags: unknown flag --", name);
        it->second.value = value;
    }
    return true;
}

const CliFlags::Flag &
CliFlags::lookup(const std::string &name) const
{
    auto it = flags_.find(name);
    fatalIf(it == flags_.end(), "CliFlags: flag --", name,
            " was never declared");
    return it->second;
}

std::string
CliFlags::get(const std::string &name) const
{
    return lookup(name).value;
}

std::int64_t
CliFlags::getInt(const std::string &name) const
{
    const std::string &v = lookup(name).value;
    char *end = nullptr;
    long long out = std::strtoll(v.c_str(), &end, 10);
    fatalIf(end == v.c_str() || *end != '\0',
            "CliFlags: --", name, "='", v, "' is not an integer");
    return out;
}

std::uint64_t
CliFlags::getCount(const std::string &name, std::uint64_t max) const
{
    const std::int64_t value = getInt(name);
    fatalIf(value < 0, "CliFlags: --", name, "=", value,
            " must be a non-negative count");
    const auto count = static_cast<std::uint64_t>(value);
    fatalIf(count > max, "CliFlags: --", name, "=", value,
            " is above the maximum ", max);
    return count;
}

double
CliFlags::getDouble(const std::string &name) const
{
    const std::string &v = lookup(name).value;
    char *end = nullptr;
    double out = std::strtod(v.c_str(), &end);
    fatalIf(end == v.c_str() || *end != '\0',
            "CliFlags: --", name, "='", v, "' is not a number");
    return out;
}

bool
CliFlags::getBool(const std::string &name) const
{
    const std::string &v = lookup(name).value;
    if (v == "true" || v == "1")
        return true;
    if (v == "false" || v == "0")
        return false;
    fatal("CliFlags: --", name, "='", v, "' is not a boolean");
}

std::string
CliFlags::usage(const std::string &program) const
{
    std::ostringstream os;
    os << "Usage: " << program << " [flags]\n";
    for (const auto &name : order_) {
        const Flag &f = flags_.at(name);
        os << "  --" << name << " (default: " << f.value << ")\n      "
           << f.help << "\n";
    }
    return os.str();
}

void
CliCommands::declare(const std::string &name, Handler handler)
{
    fatalIf(handlers_.count(name) != 0,
            "CliCommands: duplicate subcommand '", name, "'");
    handlers_[name] = std::move(handler);
    order_.push_back(name);
}

void
CliCommands::routeBareFlagsTo(const std::string &name)
{
    fatalIf(handlers_.count(name) == 0,
            "CliCommands: bare-flag target '", name,
            "' was never declared");
    bareFlagTarget_ = name;
}

int
CliCommands::run(int argc, const char *const *argv,
                 std::ostream &out, std::ostream &err) const
{
    if (argc < 2) {
        out << usage_;
        return 2;
    }

    const std::string first = argv[1];
    std::string name;
    int sub_argc = 0;
    const char *const *sub_argv = nullptr;
    if (first.rfind("--", 0) == 0 && !bareFlagTarget_.empty()) {
        // Bare flags keep argv intact so the handler's CliFlags sees
        // them all.
        name = bareFlagTarget_;
        sub_argc = argc;
        sub_argv = argv;
    } else {
        name = first;
        sub_argc = argc - 1;
        sub_argv = argv + 1;
    }

    const auto it = handlers_.find(name);
    if (it == handlers_.end()) {
        err << program_ << ": unknown subcommand '" << name << "'\n"
            << usage_;
        return 2;
    }
    try {
        return it->second(sub_argc, sub_argv);
    } catch (const std::exception &e) {
        err << program_ << " " << name << ": " << e.what() << "\n"
            << "Run '" << program_ << " " << name
            << " --help' to list its flags.\n";
        return 2;
    }
}

int
CliCommands::run(int argc, const char *const *argv) const
{
    return run(argc, argv, std::cout, std::cerr);
}

} // namespace cooper
