/**
 * @file
 * Minimal command-line option parser shared by the bench and example
 * binaries. Supports --name=value and --name value, with typed
 * accessors and defaults, plus --help text generation.
 *
 * Integer options are strict: the whole token must be a decimal
 * number in range. A malformed value ("abc", "12x", "-1" for an
 * unsigned option, twenty nines) is fatal and names the option, so a
 * typo never silently runs as 0 or as a wrapped-around huge count.
 */

#ifndef PABP_UTIL_OPTIONS_HH
#define PABP_UTIL_OPTIONS_HH

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hh"

namespace pabp {

/**
 * The one strict unsigned-integer parser behind every numeric option
 * and list: @p text must be decimal digits only - no blanks, sign,
 * base prefix or suffix - and at most @p max. Returns false (leaving
 * @p out untouched) for anything else.
 */
bool parseUnsigned(std::string_view text, std::uint64_t max,
                   std::uint64_t &out);

/** Declarative command-line options with defaults. */
class Options
{
  public:
    /** Declare an option before parsing. */
    void declare(const std::string &name, const std::string &default_value,
                 const std::string &help);

    /**
     * Parse argv. Unknown options and stray arguments come back as
     * an InvalidArgument Status; @p help_requested is set when
     * --help/-h was seen (help text printed to stdout).
     */
    Status tryParse(int argc, const char *const *argv,
                    bool &help_requested);

    /**
     * CLI shim over tryParse: unknown options are fatal. Returns
     * false when --help was requested.
     */
    bool parse(int argc, const char *const *argv);

    std::string str(const std::string &name) const;

    /** Signed integer option: an optional '-' then decimal digits,
     *  within int64. Anything else is fatal. */
    std::int64_t integer(const std::string &name) const;

    /** Unsigned integer option that must fit @p T: decimal digits
     *  only, at most T's maximum. Anything else is fatal. */
    template <typename T = std::uint64_t>
    T
    unsignedInteger(const std::string &name) const
    {
        return static_cast<T>(
            unsignedUpTo(name, std::numeric_limits<T>::max()));
    }

    double real(const std::string &name) const;
    bool flag(const std::string &name) const;

    /** Print declared options and defaults. */
    void printHelp(const std::string &program) const;

  private:
    std::uint64_t unsignedUpTo(const std::string &name,
                               std::uint64_t max) const;

    struct Decl
    {
        std::string defaultValue;
        std::string help;
    };

    std::map<std::string, Decl> decls;
    std::map<std::string, std::string> values;
    std::vector<std::string> order;
};

} // namespace pabp

#endif // PABP_UTIL_OPTIONS_HH
