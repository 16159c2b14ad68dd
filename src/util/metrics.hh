/**
 * @file
 * Structured metric export and import.
 *
 * MetricsExporter serialises a run's statistics - StatGroup
 * snapshots, Histograms, free-standing counters and numeric tables -
 * under stable dotted names into a versioned JSON document. The JSON
 * layout is the canonical machine-readable output of every bench
 * binary; its byte-for-byte stability (sorted keys, fixed number
 * formatting) is part of the determinism contract in
 * docs/PARALLEL.md and is pinned by a golden test.
 *
 * Document shape (schema "pabp.metrics", version 1):
 *
 *   {
 *     "schema": "pabp.metrics",
 *     "version": 1,
 *     "metrics": { "<dotted name>": <number or string>, ... },
 *     "tables": {
 *       "<table>": { "columns": [...], "rows": [[...], ...] }
 *     }
 *   }
 *
 * Schema version policy (docs/OBSERVABILITY.md): adding new metric
 * names or tables is backwards-compatible and does NOT bump the
 * version; renaming or re-typing an existing key, or changing the
 * document shape, bumps it. Consumers must ignore names they do not
 * know.
 *
 * parseJson() is the matching reader: a small, strict JSON parser
 * covering the subset this exporter emits (objects, arrays, strings,
 * numbers, booleans, null), used by the pabp-stats diff tool and the
 * round-trip tests.
 */

#ifndef PABP_UTIL_METRICS_HH
#define PABP_UTIL_METRICS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hh"
#include "util/status.hh"

namespace pabp {

inline constexpr char kMetricsSchemaName[] = "pabp.metrics";
inline constexpr std::uint32_t kMetricsSchemaVersion = 1;

/** Builds and writes one versioned metrics document. */
class MetricsExporter
{
  public:
    /** Set a counter-valued metric. */
    void setInt(const std::string &name, std::uint64_t v);

    /** Set a real-valued metric (rates, MPKI). */
    void setReal(const std::string &name, double v);

    /** Set a string-valued metric (workload id, predictor name). */
    void setText(const std::string &name, const std::string &v);

    /** Snapshot every stat in @p group under @p prefix. */
    void addGroup(const StatGroup &group, const std::string &prefix = "");

    /** Export a histogram: count, mean, per-bucket and overflow
     *  counts under "<name>.*". */
    void addHistogram(const std::string &name, const Histogram &h);

    /** Declare a numeric table; rows are appended in insertion
     *  order. Each row must match the column count. */
    void declareTable(const std::string &name,
                      std::vector<std::string> columns);
    void addRow(const std::string &name,
                std::vector<std::uint64_t> row);

    /** Write the JSON document. Byte-stable: keys sorted, fixed
     *  formatting. */
    void writeJson(std::ostream &os) const;

    /** writeJson() to @p path through atomicWriteFile()
     *  (util/atomic_file.hh): a crash cannot leave a torn
     *  half-document behind, and concurrent writers of one path all
     *  succeed. */
    Status writeJsonFile(const std::string &path) const;

    std::size_t numMetrics() const { return metrics.size(); }

  private:
    struct Value
    {
        enum class Kind : std::uint8_t { Int, Real, Text };
        Kind kind = Kind::Int;
        std::uint64_t i = 0;
        double d = 0.0;
        std::string s;
    };

    struct TableData
    {
        std::vector<std::string> columns;
        std::vector<std::vector<std::uint64_t>> rows;
    };

    std::map<std::string, Value> metrics;
    std::map<std::string, TableData> tables;
};

/**
 * A parsed JSON value. Numbers keep both views: integral JSON numbers
 * (no '.', 'e') are exact in @ref intValue up to uint64 range, and
 * every number is available as @ref number.
 */
struct JsonValue
{
    enum class Kind : std::uint8_t
    {
        Null, Bool, Number, String, Array, Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::uint64_t intValue = 0;
    bool isInt = false;
    std::string text;
    std::vector<JsonValue> items;                          ///< Array
    std::vector<std::pair<std::string, JsonValue>> members; ///< Object

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;
};

/** Strict parse of a complete JSON document. */
Expected<JsonValue> parseJson(const std::string &text);

/**
 * Diff two parsed pabp.metrics documents: every metric present in
 * either (missing -> 0 / ""), and every table row keyed by its first
 * column (the branch PC for the "branches" table), counter by
 * counter. Writes a human-readable report to @p os; returns the
 * number of differing entries. @p top_k bounds the per-table rows
 * printed (0 = all); suppressed rows are summarised, never silently
 * dropped.
 */
std::size_t diffMetrics(const JsonValue &a, const JsonValue &b,
                        std::ostream &os, std::size_t top_k = 0);

} // namespace pabp

#endif // PABP_UTIL_METRICS_HH
