#include "fuzz/fuzz_case.hh"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/logging.hh"
#include "util/options.hh"

namespace pabp::fuzz {

namespace {

/** Every oracle and its stable name, in mask-bit order. */
constexpr std::pair<Oracle, const char *> oracleNames[] = {
    {Oracle::IfConvert, "ifconvert"}, {Oracle::Pipeline, "pipeline"},
    {Oracle::Replay, "replay"},       {Oracle::Checkpoint, "checkpoint"},
    {Oracle::Trace, "trace"},         {Oracle::Sweep, "sweep"},
    {Oracle::Journal, "journal"},     {Oracle::MultiCtx, "multictx"},
};

std::vector<std::string>
splitList(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream in(text);
    while (std::getline(in, item, sep))
        out.push_back(item);
    return out;
}

} // anonymous namespace

const char *
oracleName(Oracle oracle)
{
    for (const auto &[o, name] : oracleNames) {
        if (o == oracle)
            return name;
    }
    return "unknown";
}

Expected<unsigned>
parseOracleMask(const std::string &text)
{
    if (text == "all")
        return allOracles;
    unsigned mask = 0;
    for (const std::string &token : splitList(text, ',')) {
        const auto *it = std::find_if(
            std::begin(oracleNames), std::end(oracleNames),
            [&token](const auto &o) { return token == o.second; });
        if (it == std::end(oracleNames))
            return statusError(StatusCode::ParseError,
                               "fuzz case: unknown oracle '" + token +
                                   "'");
        mask |= static_cast<unsigned>(it->first);
    }
    if (mask == 0)
        return statusError(StatusCode::ParseError,
                           "fuzz case: empty oracle list");
    return mask;
}

std::string
formatOracleMask(unsigned mask)
{
    if ((mask & allOracles) == allOracles)
        return "all";
    std::string out;
    for (const auto &[o, name] : oracleNames) {
        if (!(mask & static_cast<unsigned>(o)))
            continue;
        if (!out.empty())
            out += ',';
        out += name;
    }
    return out;
}

std::string
engineSpecString(const EngineConfig &cfg)
{
    std::string out;
    auto add = [&out](const char *token) {
        if (!out.empty())
            out += '+';
        out += token;
    };
    if (cfg.useSfpf)
        add("sfpf");
    if (cfg.usePgu)
        add("pgu");
    if (cfg.useSpeculativeSquash)
        add(cfg.specGate == EngineConfig::SpecGate::Jrs ? "jrs"
                                                        : "spec");
    if (cfg.trainOnSquashed)
        add("train");
    if (cfg.conservativeDefTracking)
        add("consdef");
    if (cfg.pgu.value == PguValue::BothWrites)
        add("pguboth");
    if (cfg.pgu.delay != PguConfig{}.delay)
        add(("pgudelay" + std::to_string(cfg.pgu.delay)).c_str());
    return out.empty() ? "base" : out;
}

Expected<EngineConfig>
parseEngineSpec(const std::string &spec)
{
    EngineConfig cfg;
    if (spec == "base")
        return cfg;
    for (const std::string &token : splitList(spec, '+')) {
        if (token == "sfpf") {
            cfg.useSfpf = true;
        } else if (token == "pgu") {
            cfg.usePgu = true;
        } else if (token == "spec") {
            cfg.useSpeculativeSquash = true;
        } else if (token == "jrs") {
            cfg.useSpeculativeSquash = true;
            cfg.specGate = EngineConfig::SpecGate::Jrs;
        } else if (token == "train") {
            cfg.trainOnSquashed = true;
        } else if (token == "consdef") {
            cfg.conservativeDefTracking = true;
        } else if (token == "pguboth") {
            cfg.pgu.value = PguValue::BothWrites;
        } else if (token.starts_with("pgudelay")) {
            std::uint64_t delay = 0;
            if (!parseUnsigned(std::string_view(token).substr(8),
                               std::numeric_limits<unsigned>::max(), delay))
                return statusError(StatusCode::ParseError,
                                   "fuzz case: bad PGU delay in engine "
                                   "token '" + token + "'");
            cfg.pgu.delay = static_cast<unsigned>(delay);
        } else {
            return statusError(StatusCode::ParseError,
                               "fuzz case: unknown engine token '" +
                                   token + "'");
        }
    }
    return cfg;
}

namespace {

/** The storage at member path @p Path of a case: one FuzzCase member,
 *  or a member of its gen or engine. */
template <auto... Path>
CaseField::Ref
at(FuzzCase &c)
{
    return &(c .* ... .* Path);
}

/** A custom reader: the field takes what @p Parse makes of the text. */
template <auto Parse, auto Member>
Status
readParsed(FuzzCase &c, const std::string &value)
{
    auto parsed = Parse(value);
    if (!parsed.ok())
        return parsed.status();
    c.*Member = parsed.value();
    return {};
}

using Gen = FuzzProgramConfig;
constexpr auto gen = &FuzzCase::gen;

/** The case field table: one row per key, in canonical order. */
constexpr CaseField fields[] = {
    {"name", at<&FuzzCase::name>},
    {"seed", at<&FuzzCase::seed>},
    {"predictor", at<&FuzzCase::predictor>},
    {"size_log2", at<&FuzzCase::sizeLog2>},
    {.key = "engine",
     .readCustom = [](FuzzCase &c, const std::string &value) {
         // avail_delay is its own key: the flags leave it alone.
         const unsigned delay = c.engine.availDelay;
         Status st =
             readParsed<parseEngineSpec, &FuzzCase::engine>(c, value);
         c.engine.availDelay = delay;
         return st;
     },
     .writeCustom = [](const FuzzCase &c) {
         return engineSpecString(c.engine);
     }},
    {"avail_delay", at<&FuzzCase::engine, &EngineConfig::availDelay>},
    {.key = "oracles",
     .readCustom = readParsed<parseOracleMask, &FuzzCase::oracles>,
     .writeCustom = [](const FuzzCase &c) {
         return formatOracleMask(c.oracles);
     }},
    {"max_insts", at<&FuzzCase::maxInsts>, 12},
    {"items", at<gen, &Gen::items>, 1},
    {"repeats", at<gen, &Gen::repeats>, 1},
    {"branch_density", at<gen, &Gen::branchDensity>, 0},
    {"pred_nest", at<gen, &Gen::predNestDepth>, 0},
    {"loop_depth", at<gen, &Gen::loopDepth>, 0},
    {"call_depth", at<gen, &Gen::callDepth>, 0},
    {"hb_pressure", at<gen, &Gen::hbPressure>, 0},
    {"div_edges", at<gen, &Gen::divEdgePercent>, 0},
    {"data_branches", at<gen, &Gen::dataBranchPercent>, 0},
    {"empty_ras", at<gen, &Gen::emptyRas>},
    {"data_window", at<gen, &Gen::dataWindow>, 16},
    {"corrupt_flips", at<&FuzzCase::corruptFlips>, 0},
    {"corrupt_seed", at<&FuzzCase::corruptSeed>},
    {"corrupt_truncate", at<&FuzzCase::corruptTruncate>, 0},
    {.key = "contexts", .ref = at<&FuzzCase::contexts>, .shrinkFloor = 1,
     .zeroReadsAsOne = true},
    {.key = "ctx_schedule",
     .readCustom = readParsed<parseScheduleKind, &FuzzCase::ctxSchedule>,
     .writeCustom = [](const FuzzCase &c) -> std::string {
         return scheduleKindName(c.ctxSchedule);
     }},
    {.key = "ctx_quantum", .ref = at<&FuzzCase::ctxQuantum>,
     .zeroReadsAsOne = true},
    {"ctx_seed", at<&FuzzCase::ctxSeed>},
    {"ctx_shared", at<&FuzzCase::ctxShared>},
    {"ctx_tag_bits", at<&FuzzCase::ctxTagBits>, 0},
};

} // anonymous namespace

Status
CaseField::read(FuzzCase &c, const std::string &value) const
{
    if (readCustom)
        return readCustom(c, value);
    const auto bad = [&](const std::string &want) {
        return statusError(StatusCode::ParseError,
                           "fuzz case: bad value for " +
                               std::string(key) + ": '" + value +
                               "' (want " + want + ")");
    };
    return std::visit(
        [&](auto *field) -> Status {
            using T = std::remove_pointer_t<decltype(field)>;
            std::uint64_t v = 0;
            if constexpr (std::is_same_v<T, std::string>) {
                *field = value;
            } else if constexpr (std::is_same_v<T, bool>) {
                if (value != "0" && value != "1" && value != "false" &&
                    value != "true")
                    return bad("0 or 1");
                *field = value == "1" || value == "true";
            } else if (parseUnsigned(value, std::numeric_limits<T>::max(),
                                     v)) {
                *field = static_cast<T>(zeroReadsAsOne && v == 0 ? 1 : v);
            } else {
                return bad("a decimal number up to " +
                           std::to_string(std::numeric_limits<T>::max()));
            }
            return {};
        },
        ref(c));
}

std::string
CaseField::write(const FuzzCase &c) const
{
    if (writeCustom)
        return writeCustom(c);
    return std::visit(
        [](auto *field) -> std::string {
            using T = std::remove_pointer_t<decltype(field)>;
            if constexpr (std::is_same_v<T, std::string>)
                return *field;
            else if constexpr (std::is_same_v<T, bool>)
                return *field ? "1" : "0";
            else
                return std::to_string(*field);
        },
        // ref() takes a mutable case so that one accessor per row
        // serves both directions; this only reads through it.
        ref(const_cast<FuzzCase &>(c)));
}

const CaseField *
findCaseField(std::string_view key)
{
    for (const CaseField &field : fields) {
        if (key == field.key)
            return &field;
    }
    return nullptr;
}

Expected<FuzzCase>
parseCase(const std::string &text)
{
    FuzzCase out;
    bool sawFormat = false;
    std::istringstream in(text);
    std::string line;
    unsigned lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        std::size_t start = line.find_first_not_of(" \t");
        if (start == std::string::npos || line[start] == '#')
            continue;
        const auto lineError = [lineNo](const std::string &what) {
            return statusError(StatusCode::ParseError,
                               "fuzz case line " +
                                   std::to_string(lineNo) + ": " + what);
        };
        std::size_t eq = line.find('=', start);
        if (eq == std::string::npos)
            return lineError("expected key=value");
        std::string key = line.substr(start, eq - start);
        std::string value = line.substr(eq + 1);

        if (key == "format") {
            if (value != "pabp-fuzz-case-v1")
                return statusError(StatusCode::VersionMismatch,
                                   "fuzz case: unsupported format '" +
                                       value + "'");
            sawFormat = true;
            continue;
        }
        const CaseField *field = findCaseField(key);
        if (!field)
            return lineError("unknown key '" + key + "'");
        PABP_TRY(field->read(out, value));
    }
    if (!sawFormat)
        return statusError(StatusCode::BadMagic,
                           "fuzz case: missing format= line");
    clampConfig(out.gen);
    return out;
}

std::string
formatCase(const FuzzCase &fuzz_case)
{
    std::string out = "# pabp fuzz case (docs/FUZZING.md)\n"
                      "format=pabp-fuzz-case-v1\n";
    for (const CaseField &field : fields)
        out += std::string(field.key) + "=" + field.write(fuzz_case) + "\n";
    return out;
}

Expected<FuzzCase>
readCaseFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return statusError(StatusCode::IoError,
                           "fuzz case: cannot open " + path);
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad())
        return statusError(StatusCode::IoError,
                           "fuzz case: read failed for " + path);
    Expected<FuzzCase> parsed = parseCase(text.str());
    if (!parsed.ok())
        return statusError(parsed.status().code(),
                           path + ": " + parsed.status().message());
    return parsed;
}

Status
writeCaseFile(const std::string &path, const FuzzCase &fuzz_case)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return statusError(StatusCode::IoError,
                           "fuzz case: cannot create " + path);
    out << formatCase(fuzz_case);
    out.flush();
    if (!out)
        return statusError(StatusCode::IoError,
                           "fuzz case: write failed for " + path);
    return {};
}

} // namespace pabp::fuzz
