#include "util/metrics.hh"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "util/atomic_file.hh"
#include "util/logging.hh"

namespace pabp {

namespace {

/** Fixed real formatting: enough digits to round-trip a rate, short
 *  enough to stay readable. Part of the byte-stability contract. */
std::string
formatReal(double v)
{
    if (!std::isfinite(v))
        v = 0.0; // JSON has no inf/nan; exporters only feed rates
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

void
writeJsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

} // anonymous namespace

void
MetricsExporter::setInt(const std::string &name, std::uint64_t v)
{
    Value val;
    val.kind = Value::Kind::Int;
    val.i = v;
    metrics[name] = std::move(val);
}

void
MetricsExporter::setReal(const std::string &name, double v)
{
    Value val;
    val.kind = Value::Kind::Real;
    val.d = v;
    metrics[name] = std::move(val);
}

void
MetricsExporter::setText(const std::string &name, const std::string &v)
{
    Value val;
    val.kind = Value::Kind::Text;
    val.s = v;
    metrics[name] = std::move(val);
}

void
MetricsExporter::addGroup(const StatGroup &group, const std::string &prefix)
{
    for (const auto &[name, v] : group.snapshot())
        setInt(prefix + name, v);
}

void
MetricsExporter::addHistogram(const std::string &name, const Histogram &h)
{
    setInt(name + ".count", h.count());
    setInt(name + ".sum", h.sumOfSamples());
    setReal(name + ".mean", h.mean());
    setInt(name + ".bucket_width", h.bucketWidth());
    setInt(name + ".overflow", h.overflowCount());
    for (std::size_t i = 0; i < h.numBuckets(); ++i) {
        char key[32];
        // Zero-padded index so lexicographic key order equals bucket
        // order in the sorted document.
        std::snprintf(key, sizeof(key), ".bucket.%04zu", i);
        setInt(name + key, h.bucketCount(i));
    }
}

void
MetricsExporter::declareTable(const std::string &name,
                              std::vector<std::string> columns)
{
    pabp_assert(!columns.empty());
    TableData &t = tables[name];
    t.columns = std::move(columns);
    t.rows.clear();
}

void
MetricsExporter::addRow(const std::string &name,
                        std::vector<std::uint64_t> row)
{
    auto it = tables.find(name);
    pabp_assert(it != tables.end() &&
                row.size() == it->second.columns.size());
    it->second.rows.push_back(std::move(row));
}

void
MetricsExporter::writeJson(std::ostream &os) const
{
    os << "{\n";
    os << "  \"schema\": ";
    writeJsonString(os, kMetricsSchemaName);
    os << ",\n  \"version\": " << kMetricsSchemaVersion << ",\n";

    os << "  \"metrics\": {";
    bool first = true;
    for (const auto &[name, v] : metrics) {
        os << (first ? "\n" : ",\n") << "    ";
        first = false;
        writeJsonString(os, name);
        os << ": ";
        switch (v.kind) {
          case Value::Kind::Int: os << v.i; break;
          case Value::Kind::Real: os << formatReal(v.d); break;
          case Value::Kind::Text: writeJsonString(os, v.s); break;
        }
    }
    os << (first ? "},\n" : "\n  },\n");

    os << "  \"tables\": {";
    first = true;
    for (const auto &[name, t] : tables) {
        os << (first ? "\n" : ",\n") << "    ";
        first = false;
        writeJsonString(os, name);
        os << ": {\n      \"columns\": [";
        for (std::size_t i = 0; i < t.columns.size(); ++i) {
            if (i)
                os << ", ";
            writeJsonString(os, t.columns[i]);
        }
        os << "],\n      \"rows\": [";
        for (std::size_t r = 0; r < t.rows.size(); ++r) {
            os << (r ? ",\n        " : "\n        ") << "[";
            for (std::size_t c = 0; c < t.rows[r].size(); ++c) {
                if (c)
                    os << ", ";
                os << t.rows[r][c];
            }
            os << "]";
        }
        os << (t.rows.empty() ? "]\n    }" : "\n      ]\n    }");
    }
    os << (first ? "}\n" : "\n  }\n");
    os << "}\n";
}

Status
MetricsExporter::writeJsonFile(const std::string &path) const
{
    return atomicWriteFile(path,
                           [this](std::ostream &os) { writeJson(os); });
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : members)
        if (k == key)
            return &v;
    return nullptr;
}

namespace {

/** Strict recursive-descent parser over the exporter's JSON subset. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : src(text) {}

    Expected<JsonValue>
    parse()
    {
        JsonValue v;
        PABP_TRY(parseValue(v, 0));
        skipWs();
        if (pos != src.size())
            return fail("trailing characters after document");
        return v;
    }

  private:
    static constexpr std::size_t maxDepth = 64;

    const std::string &src;
    std::size_t pos = 0;

    Status
    fail(const std::string &what) const
    {
        return Status(StatusCode::Corrupt,
                      "json parse error at byte " + std::to_string(pos) +
                          ": " + what);
    }

    void
    skipWs()
    {
        while (pos < src.size() &&
               (src[pos] == ' ' || src[pos] == '\t' ||
                src[pos] == '\n' || src[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < src.size() && src[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    Status
    expect(char c)
    {
        if (!consume(c))
            return fail(std::string("expected '") + c + "'");
        return Status();
    }

    Status
    parseLiteral(const char *lit)
    {
        for (const char *p = lit; *p; ++p)
            if (pos >= src.size() || src[pos++] != *p)
                return fail(std::string("bad literal, expected ") + lit);
        return Status();
    }

    Status
    parseString(std::string &out)
    {
        PABP_TRY(expect('"'));
        out.clear();
        while (true) {
            if (pos >= src.size())
                return fail("unterminated string");
            char c = src[pos++];
            if (c == '"')
                return Status();
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos >= src.size())
                return fail("unterminated escape");
            char e = src[pos++];
            switch (e) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'u': {
                if (pos + 4 > src.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = src[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad hex digit in \\u escape");
                }
                // The exporter only escapes control bytes; decode the
                // Latin-1 range and reject the rest as out of scope.
                if (code > 0xff)
                    return fail("\\u escape beyond latin-1 unsupported");
                out.push_back(static_cast<char>(code));
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
    }

    Status
    parseNumber(JsonValue &out)
    {
        std::size_t start = pos;
        if (consume('-')) {}
        while (pos < src.size() &&
               std::isdigit(static_cast<unsigned char>(src[pos])))
            ++pos;
        bool integral = true;
        if (consume('.')) {
            integral = false;
            while (pos < src.size() &&
                   std::isdigit(static_cast<unsigned char>(src[pos])))
                ++pos;
        }
        if (pos < src.size() && (src[pos] == 'e' || src[pos] == 'E')) {
            integral = false;
            ++pos;
            if (pos < src.size() &&
                (src[pos] == '+' || src[pos] == '-'))
                ++pos;
            while (pos < src.size() &&
                   std::isdigit(static_cast<unsigned char>(src[pos])))
                ++pos;
        }
        const std::string token = src.substr(start, pos - start);
        if (token.empty() || token == "-")
            return fail("malformed number");
        out.kind = JsonValue::Kind::Number;
        out.number = std::strtod(token.c_str(), nullptr);
        out.isInt = integral && token[0] != '-';
        if (out.isInt)
            out.intValue = std::strtoull(token.c_str(), nullptr, 10);
        return Status();
    }

    Status
    parseValue(JsonValue &out, std::size_t depth)
    {
        if (depth > maxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos >= src.size())
            return fail("unexpected end of input");
        char c = src[pos];
        if (c == '{') {
            ++pos;
            out.kind = JsonValue::Kind::Object;
            skipWs();
            if (consume('}'))
                return Status();
            while (true) {
                skipWs();
                std::string key;
                PABP_TRY(parseString(key));
                skipWs();
                PABP_TRY(expect(':'));
                JsonValue member;
                PABP_TRY(parseValue(member, depth + 1));
                out.members.emplace_back(std::move(key),
                                         std::move(member));
                skipWs();
                if (consume('}'))
                    return Status();
                PABP_TRY(expect(','));
            }
        }
        if (c == '[') {
            ++pos;
            out.kind = JsonValue::Kind::Array;
            skipWs();
            if (consume(']'))
                return Status();
            while (true) {
                JsonValue item;
                PABP_TRY(parseValue(item, depth + 1));
                out.items.push_back(std::move(item));
                skipWs();
                if (consume(']'))
                    return Status();
                PABP_TRY(expect(','));
            }
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.text);
        }
        if (c == 't') {
            PABP_TRY(parseLiteral("true"));
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return Status();
        }
        if (c == 'f') {
            PABP_TRY(parseLiteral("false"));
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return Status();
        }
        if (c == 'n') {
            PABP_TRY(parseLiteral("null"));
            out.kind = JsonValue::Kind::Null;
            return Status();
        }
        return parseNumber(out);
    }
};

std::string
jsonScalarToString(const JsonValue &v)
{
    switch (v.kind) {
      case JsonValue::Kind::Null: return "null";
      case JsonValue::Kind::Bool: return v.boolean ? "true" : "false";
      case JsonValue::Kind::String: return v.text;
      case JsonValue::Kind::Number:
        if (v.isInt)
            return std::to_string(v.intValue);
        return formatReal(v.number);
      default: return "<composite>";
    }
}

bool
jsonScalarEqual(const JsonValue *a, const JsonValue *b)
{
    // A key absent on one side counts as 0 / "" - a metric that
    // appeared or disappeared is a difference unless it is zero.
    static const JsonValue zero = [] {
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.isInt = true;
        return v;
    }();
    const JsonValue &lhs = a ? *a : zero;
    const JsonValue &rhs = b ? *b : zero;
    if (lhs.kind == JsonValue::Kind::Number &&
        rhs.kind == JsonValue::Kind::Number)
        return lhs.number == rhs.number &&
            lhs.intValue == rhs.intValue && lhs.isInt == rhs.isInt;
    if (lhs.kind != rhs.kind)
        return false;
    return jsonScalarToString(lhs) == jsonScalarToString(rhs);
}

std::string
deltaString(const JsonValue *a, const JsonValue *b)
{
    const bool ints = (!a || (a->kind == JsonValue::Kind::Number &&
                              a->isInt)) &&
        (!b || (b->kind == JsonValue::Kind::Number && b->isInt));
    if (!ints)
        return "";
    const std::int64_t lhs =
        a ? static_cast<std::int64_t>(a->intValue) : 0;
    const std::int64_t rhs =
        b ? static_cast<std::int64_t>(b->intValue) : 0;
    const std::int64_t d = rhs - lhs;
    char buf[32];
    std::snprintf(buf, sizeof(buf), " (%+" PRId64 ")", d);
    return buf;
}

} // anonymous namespace

Expected<JsonValue>
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

std::size_t
diffMetrics(const JsonValue &a, const JsonValue &b, std::ostream &os,
            std::size_t top_k)
{
    std::size_t diffs = 0;

    // Scalar metrics: union of names, sorted.
    const JsonValue *ma = a.find("metrics");
    const JsonValue *mb = b.find("metrics");
    std::map<std::string, std::pair<const JsonValue *, const JsonValue *>>
        names;
    if (ma)
        for (const auto &[k, v] : ma->members)
            names[k].first = &v;
    if (mb)
        for (const auto &[k, v] : mb->members)
            names[k].second = &v;
    for (const auto &[name, pair] : names) {
        if (jsonScalarEqual(pair.first, pair.second))
            continue;
        ++diffs;
        os << name << ": "
           << (pair.first ? jsonScalarToString(*pair.first) : "-")
           << " -> "
           << (pair.second ? jsonScalarToString(*pair.second) : "-")
           << deltaString(pair.first, pair.second) << "\n";
    }

    // Tables: rows keyed by first column, compared per column.
    const JsonValue *ta = a.find("tables");
    const JsonValue *tb = b.find("tables");
    std::map<std::string,
             std::pair<const JsonValue *, const JsonValue *>> tnames;
    if (ta)
        for (const auto &[k, v] : ta->members)
            tnames[k].first = &v;
    if (tb)
        for (const auto &[k, v] : tb->members)
            tnames[k].second = &v;
    for (const auto &[tname, tpair] : tnames) {
        const JsonValue *cols = nullptr;
        for (const JsonValue *t : {tpair.first, tpair.second})
            if (t && t->find("columns"))
                cols = t->find("columns");
        if (!cols || cols->items.empty())
            continue;
        auto rowsByKey = [](const JsonValue *t) {
            std::map<std::uint64_t, const JsonValue *> out;
            const JsonValue *rows = t ? t->find("rows") : nullptr;
            if (!rows)
                return out;
            for (const JsonValue &row : rows->items)
                if (!row.items.empty())
                    out[row.items[0].intValue] = &row;
            return out;
        };
        const auto ra = rowsByKey(tpair.first);
        const auto rb = rowsByKey(tpair.second);
        std::map<std::uint64_t,
                 std::pair<const JsonValue *, const JsonValue *>> keys;
        for (const auto &[k, row] : ra)
            keys[k].first = row;
        for (const auto &[k, row] : rb)
            keys[k].second = row;

        std::size_t printed = 0, suppressed = 0;
        for (const auto &[key, rows] : keys) {
            bool row_differs = false;
            std::string line;
            for (std::size_t c = 1; c < cols->items.size(); ++c) {
                const JsonValue *va = rows.first &&
                        c < rows.first->items.size()
                    ? &rows.first->items[c]
                    : nullptr;
                const JsonValue *vb = rows.second &&
                        c < rows.second->items.size()
                    ? &rows.second->items[c]
                    : nullptr;
                if (jsonScalarEqual(va, vb))
                    continue;
                row_differs = true;
                line += "  " + cols->items[c].text + " " +
                    (va ? jsonScalarToString(*va) : "0") + " -> " +
                    (vb ? jsonScalarToString(*vb) : "0") +
                    deltaString(va, vb) + "\n";
            }
            if (!row_differs)
                continue;
            ++diffs;
            if (top_k && printed >= top_k) {
                ++suppressed;
                continue;
            }
            ++printed;
            os << tname << "[" << cols->items[0].text << "=" << key
               << "]:\n" << line;
        }
        if (suppressed)
            os << tname << ": ... " << suppressed
               << " more differing row(s) suppressed (--top)\n";
    }
    return diffs;
}

} // namespace pabp
