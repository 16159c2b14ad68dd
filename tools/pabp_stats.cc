/**
 * @file
 * pabp-stats: query and diff exported metrics - loose JSON documents
 * or sweep journals (util/journal.hh).
 *
 *   pabp-stats [--top N] <a.json> <b.json>      diff two documents
 *   pabp-stats [--top N] <a.pabpj> <b.pabpj>    diff two journals
 *                                               (common cells, by
 *                                               fingerprint)
 *   pabp-stats --list <j.pabpj>                 list journal records
 *   pabp-stats --extract <fp> <j.pabpj>         print one cell's
 *                                               metrics JSON
 *   pabp-stats --pack <dir> <out.pabpj>         pack loose
 *                                               pabp-metrics-*.json
 *                                               files into a journal
 *   pabp-stats --characterize <trace>           predictability metrics
 *                                               (core/predictability.hh)
 *                                               for a recorded
 *                                               (PABPTRC2) trace, as a
 *                                               pabp.metrics document
 *                                               on stdout
 *
 * Journal inputs are detected by magic, so the two-argument diff form
 * accepts either representation (both sides must match). Exit
 * status: 0 = identical, 1 = differences found, 2 = usage or input
 * error - so scripts can use it both as a comparator and as a gate.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/predictability.hh"
#include "sim/trace_io.hh"
#include "util/journal.hh"
#include "util/metrics.hh"

namespace {

using namespace pabp;

int
usage()
{
    std::cerr
        << "usage: pabp-stats [--top N] <a.json|a.pabpj> "
           "<b.json|b.pabpj>\n"
        << "       pabp-stats --list <journal>\n"
        << "       pabp-stats --extract <fingerprint> <journal>\n"
        << "       pabp-stats --pack <metrics-dir> <out-journal>\n"
        << "       pabp-stats --characterize <trace>\n"
        << "  Diffs two pabp.metrics documents or two sweep journals\n"
        << "  (common cells, keyed by spec fingerprint); --top bounds\n"
        << "  the per-table rows printed (0 = all). --characterize\n"
        << "  prints predictability.* metrics (taken/transition\n"
        << "  rates, history-conditioned entropy) for a recorded\n"
        << "  (PABPTRC2) trace.\n";
    return 2;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::cerr << "pabp-stats: cannot open " << path << "\n";
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    out = text.str();
    return true;
}

/** Parse and schema-check one metrics document. */
bool
parseMetrics(const std::string &text, const std::string &what,
             JsonValue &out)
{
    Expected<JsonValue> parsed = parseJson(text);
    if (!parsed.ok()) {
        std::cerr << "pabp-stats: " << what << ": "
                  << parsed.status().toString() << "\n";
        return false;
    }
    out = std::move(parsed.value());
    const JsonValue *schema = out.find("schema");
    if (!schema || schema->kind != JsonValue::Kind::String ||
        schema->text != kMetricsSchemaName) {
        std::cerr << "pabp-stats: " << what
                  << ": not a pabp.metrics document\n";
        return false;
    }
    const JsonValue *version = out.find("version");
    if (!version || !version->isInt ||
        version->intValue > kMetricsSchemaVersion) {
        std::cerr << "pabp-stats: " << what
                  << ": unsupported schema version\n";
        return false;
    }
    return true;
}

bool
isJournalImage(const std::string &bytes)
{
    return bytes.size() >= 8 &&
        std::memcmp(bytes.data(), kJournalMagic, 8) == 0;
}

std::string
fingerprintHex(std::uint64_t fp)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fp));
    return hex;
}

bool
loadJournal(const std::string &path, const std::string &bytes,
            std::vector<JournalRecord> &records)
{
    Expected<std::vector<JournalRecord>> parsed =
        readJournalImage(bytes);
    if (!parsed.ok()) {
        std::cerr << "pabp-stats: " << path << ": "
                  << parsed.status().toString() << "\n";
        return false;
    }
    records = std::move(parsed.value());
    return true;
}

int
listJournal(const std::string &path)
{
    std::string bytes;
    std::vector<JournalRecord> records;
    if (!readFile(path, bytes) || !isJournalImage(bytes) ||
        !loadJournal(path, bytes, records)) {
        if (!bytes.empty() && !isJournalImage(bytes))
            std::cerr << "pabp-stats: " << path
                      << ": not a sweep journal\n";
        return 2;
    }
    for (const JournalRecord &rec : records) {
        std::cout << fingerprintHex(rec.fingerprint) << "  "
                  << (rec.kind == JournalRecord::Kind::Result
                          ? "result    "
                          : "quarantine")
                  << "  attempts=" << rec.attempts << "  status="
                  << statusCodeName(
                         static_cast<StatusCode>(rec.statusCode));
        if (rec.kind == JournalRecord::Kind::Result &&
            rec.columns.size() >= 3) {
            std::cout << "  insts=" << rec.columns[0]
                      << "  branches=" << rec.columns[1]
                      << "  mispredicts=" << rec.columns[2];
        }
        if (rec.kind == JournalRecord::Kind::Quarantine)
            std::cout << "  error=\"" << rec.blob << "\"";
        std::cout << "\n";
    }
    std::cout << records.size() << " record(s)\n";
    return 0;
}

int
extractCell(const std::string &fp_text, const std::string &path)
{
    char *end = nullptr;
    const std::uint64_t fp = std::strtoull(fp_text.c_str(), &end, 16);
    if (!end || *end != '\0') {
        std::cerr << "pabp-stats: bad fingerprint '" << fp_text
                  << "' (want hex)\n";
        return 2;
    }
    std::string bytes;
    std::vector<JournalRecord> records;
    if (!readFile(path, bytes) || !loadJournal(path, bytes, records))
        return 2;
    // Last record wins, matching the service's resume semantics.
    const JournalRecord *found = nullptr;
    for (const JournalRecord &rec : records) {
        if (rec.fingerprint == fp)
            found = &rec;
    }
    if (!found) {
        std::cerr << "pabp-stats: no record for "
                  << fingerprintHex(fp) << " in " << path << "\n";
        return 2;
    }
    if (found->kind == JournalRecord::Kind::Quarantine) {
        std::cerr << "pabp-stats: " << fingerprintHex(fp)
                  << " is quarantined: " << found->blob << "\n";
        return 1;
    }
    std::cout << found->blob;
    return 0;
}

int
packMetricsDir(const std::string &dir, const std::string &out_path)
{
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec) {
        std::cerr << "pabp-stats: cannot read directory " << dir
                  << ": " << ec.message() << "\n";
        return 2;
    }
    // Sorted filenames make the packed journal deterministic.
    std::vector<std::string> files;
    for (const std::filesystem::directory_entry &entry : it) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("pabp-metrics-", 0) == 0 &&
            name.size() == std::strlen("pabp-metrics-") + 16 + 5 &&
            name.substr(name.size() - 5) == ".json") {
            files.push_back(entry.path().string());
        }
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
        std::cerr << "pabp-stats: no pabp-metrics-*.json files in "
                  << dir << "\n";
        return 2;
    }
    std::ostringstream image;
    writeJournalHeader(image, JournalHeader{});
    for (const std::string &file : files) {
        std::string text;
        if (!readFile(file, text))
            return 2;
        JsonValue doc;
        if (!parseMetrics(text, file, doc))
            return 2;
        const std::string name =
            std::filesystem::path(file).filename().string();
        JournalRecord rec;
        rec.fingerprint = std::strtoull(
            name.substr(std::strlen("pabp-metrics-"), 16).c_str(),
            nullptr, 16);
        rec.blob = text;
        appendJournalRecord(image, rec);
    }
    Status status = atomicWriteFile(out_path, image.str());
    if (!status.ok()) {
        std::cerr << "pabp-stats: " << status.toString() << "\n";
        return 2;
    }
    std::cout << "packed " << files.size() << " cell(s) -> "
              << out_path << "\n";
    return 0;
}

/**
 * --characterize: load a recorded (PABPTRC2) trace, run the
 * predictability analyzer over the conditional-branch stream, and
 * print the metrics document. The output is itself a pabp.metrics
 * JSON, so the diff form of this tool can compare two
 * characterizations byte-for-byte.
 */
int
characterizeTraceFile(const std::string &path)
{
    Expected<DecodedTrace> trace = tryLoadTraceFile(path);
    if (!trace.ok()) {
        std::cerr << "pabp-stats: " << path << ": "
                  << trace.status().toString() << "\n";
        return 2;
    }
    const PredictabilityReport report = characterizeTrace(trace.value());

    MetricsExporter ex;
    ex.setText("source", path);
    exportPredictability(ex, report);
    ex.writeJson(std::cout);
    return 0;
}

int
diffJournals(const std::string (&paths)[2],
             const std::string (&bytes)[2], std::size_t top_k)
{
    std::vector<JournalRecord> records[2];
    for (int s = 0; s < 2; ++s) {
        if (!loadJournal(paths[s], bytes[s], records[s]))
            return 2;
    }
    std::map<std::uint64_t, const JournalRecord *> by_fp[2];
    for (int s = 0; s < 2; ++s) {
        for (const JournalRecord &rec : records[s])
            by_fp[s][rec.fingerprint] = &rec; // last record wins
    }
    std::size_t diff_cells = 0, only[2] = {0, 0};
    for (const auto &[fp, rec_a] : by_fp[0]) {
        auto it = by_fp[1].find(fp);
        if (it == by_fp[1].end()) {
            ++only[0];
            continue;
        }
        const JournalRecord *rec_b = it->second;
        if (rec_a->kind != rec_b->kind ||
            rec_a->statusCode != rec_b->statusCode) {
            std::cout << "cell " << fingerprintHex(fp)
                      << ": disposition differs ("
                      << statusCodeName(
                             static_cast<StatusCode>(rec_a->statusCode))
                      << " vs "
                      << statusCodeName(
                             static_cast<StatusCode>(rec_b->statusCode))
                      << ")\n";
            ++diff_cells;
            continue;
        }
        if (rec_a->kind != JournalRecord::Kind::Result)
            continue; // both quarantined the same way
        if (rec_a->blob == rec_b->blob)
            continue; // byte-identical metrics: nothing to say
        JsonValue a, b;
        if (!parseMetrics(rec_a->blob,
                          paths[0] + ":" + fingerprintHex(fp), a) ||
            !parseMetrics(rec_b->blob,
                          paths[1] + ":" + fingerprintHex(fp), b)) {
            return 2;
        }
        std::cout << "cell " << fingerprintHex(fp) << ":\n";
        diff_cells += diffMetrics(a, b, std::cout, top_k) ? 1 : 0;
    }
    for (const auto &[fp, rec] : by_fp[1]) {
        (void)rec;
        if (!by_fp[0].count(fp))
            ++only[1];
    }
    for (int s = 0; s < 2; ++s) {
        if (only[s])
            std::cout << only[s] << " cell(s) only in " << paths[s]
                      << "\n";
    }
    if (diff_cells == 0 && !only[0] && !only[1]) {
        std::cout << "identical (" << paths[0] << " == " << paths[1]
                  << ")\n";
        return 0;
    }
    std::cout << diff_cells << " differing cell(s)\n";
    return diff_cells || only[0] || only[1] ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t top_k = 0;
    std::string mode;
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--top") {
            if (i + 1 >= argc)
                return usage();
            char *end = nullptr;
            unsigned long long v = std::strtoull(argv[++i], &end, 10);
            if (!end || *end != '\0')
                return usage();
            top_k = static_cast<std::size_t>(v);
        } else if (arg == "--list" || arg == "--extract" ||
                   arg == "--pack" || arg == "--characterize") {
            if (!mode.empty())
                return usage();
            mode = arg;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            args.push_back(arg);
        }
    }

    if (mode == "--list")
        return args.size() == 1 ? listJournal(args[0]) : usage();
    if (mode == "--extract")
        return args.size() == 2 ? extractCell(args[0], args[1])
                                : usage();
    if (mode == "--pack")
        return args.size() == 2 ? packMetricsDir(args[0], args[1])
                                : usage();
    if (mode == "--characterize")
        return args.size() == 1 ? characterizeTraceFile(args[0])
                                : usage();
    if (args.size() != 2)
        return usage();

    const std::string paths[2] = {args[0], args[1]};
    std::string bytes[2];
    if (!readFile(paths[0], bytes[0]) || !readFile(paths[1], bytes[1]))
        return 2;
    const bool journal_a = isJournalImage(bytes[0]);
    const bool journal_b = isJournalImage(bytes[1]);
    if (journal_a != journal_b) {
        std::cerr << "pabp-stats: cannot diff a journal against a "
                     "metrics document\n";
        return 2;
    }
    if (journal_a)
        return diffJournals(paths, bytes, top_k);

    JsonValue a, b;
    if (!parseMetrics(bytes[0], paths[0], a) ||
        !parseMetrics(bytes[1], paths[1], b)) {
        return 2;
    }
    std::size_t diffs = diffMetrics(a, b, std::cout, top_k);
    if (diffs == 0) {
        std::cout << "identical (" << paths[0] << " == " << paths[1]
                  << ")\n";
        return 0;
    }
    std::cout << diffs << " difference(s)\n";
    return 1;
}
