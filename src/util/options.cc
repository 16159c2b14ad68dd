#include "util/options.hh"

#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"

namespace pabp {

bool
parseUnsigned(std::string_view text, std::uint64_t max,
              std::uint64_t &out)
{
    // Unlike strtoull, from_chars takes no blanks, sign or base prefix.
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || ec != std::errc() || ptr != end || v > max)
        return false;
    out = v;
    return true;
}

void
Options::declare(const std::string &name, const std::string &default_value,
                 const std::string &help)
{
    pabp_assert(!decls.count(name));
    decls[name] = Decl{default_value, help};
    order.push_back(name);
}

Status
Options::tryParse(int argc, const char *const *argv,
                  bool &help_requested)
{
    help_requested = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp(argv[0]);
            help_requested = true;
            return Status();
        }
        if (arg.rfind("--", 0) != 0)
            return Status(StatusCode::InvalidArgument,
                          "unexpected argument: " + arg);
        arg = arg.substr(2);

        std::string name;
        std::string value = "1"; // a bare flag
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        } else {
            name = arg;
            bool next_is_value = i + 1 < argc &&
                std::string(argv[i + 1]).rfind("--", 0) != 0;
            if (next_is_value && decls.count(name))
                value = argv[++i];
        }
        if (!decls.count(name))
            return Status(StatusCode::InvalidArgument,
                          "unknown option: --" + name);
        values[name] = value;
    }
    return Status();
}

bool
Options::parse(int argc, const char *const *argv)
{
    bool help_requested = false;
    Status status = tryParse(argc, argv, help_requested);
    if (!status.ok())
        pabp_fatal(status.message());
    return !help_requested;
}

std::string
Options::str(const std::string &name) const
{
    auto it = values.find(name);
    if (it != values.end())
        return it->second;
    auto d = decls.find(name);
    if (d == decls.end())
        pabp_fatal("undeclared option queried: " + name);
    return d->second.defaultValue;
}

std::int64_t
Options::integer(const std::string &name) const
{
    const std::string text = str(name);
    const bool negative = !text.empty() && text[0] == '-';
    const std::string_view digits =
        std::string_view(text).substr(negative ? 1 : 0);
    // |INT64_MIN| is one more than INT64_MAX.
    constexpr std::uint64_t maxPositive =
        std::numeric_limits<std::int64_t>::max();
    std::uint64_t magnitude = 0;
    if (!parseUnsigned(digits, maxPositive + (negative ? 1 : 0),
                       magnitude))
        pabp_fatal("bad --" + name + " '" + text +
                   "' (want an integer)");
    return negative ? static_cast<std::int64_t>(0 - magnitude)
                    : static_cast<std::int64_t>(magnitude);
}

std::uint64_t
Options::unsignedUpTo(const std::string &name, std::uint64_t max) const
{
    const std::string text = str(name);
    std::uint64_t value = 0;
    if (!parseUnsigned(text, max, value))
        pabp_fatal("bad --" + name + " '" + text +
                   "' (want an unsigned integer" +
                   (max < std::numeric_limits<std::uint64_t>::max()
                        ? " up to " + std::to_string(max)
                        : std::string()) +
                   ")");
    return value;
}

double
Options::real(const std::string &name) const
{
    return std::strtod(str(name).c_str(), nullptr);
}

bool
Options::flag(const std::string &name) const
{
    std::string v = str(name);
    return v == "1" || v == "true" || v == "yes";
}

void
Options::printHelp(const std::string &program) const
{
    std::printf("usage: %s [--option=value ...]\n\noptions:\n",
                program.c_str());
    for (const auto &name : order) {
        const Decl &d = decls.at(name);
        std::printf("  --%-24s %s (default: %s)\n", name.c_str(),
                    d.help.c_str(), d.defaultValue.c_str());
    }
}

} // namespace pabp
