#include "engine/sweep_json.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "support/json_line.hpp"
#include "support/panic.hpp"

namespace paragraph {
namespace engine {

void
appendJsonDouble(std::string &out, double v)
{
    if (!std::isfinite(v)) { // JSON has no inf/nan
        out += "null";
        return;
    }
    // The contract is the first `%.*g` precision (1..17) whose text reads
    // back as v. No precision below the shortest round-trip digit count
    // can read back (a shorter decimal would have been found), so the
    // search starts there and its first match is the one a search from 1
    // finds; DESIGN.md §3.6 gives the argument.
    char buf[32];
    char *end = std::to_chars(buf, buf + sizeof(buf), v,
                              std::chars_format::scientific)
                    .ptr;
    int digits = 0;
    for (const char *p = buf; p != end && *p != 'e'; ++p)
        digits += *p >= '0' && *p <= '9';
    for (int prec = digits; prec <= 17; ++prec) {
        end = std::to_chars(buf, buf + sizeof(buf), v,
                            std::chars_format::general, prec)
                  .ptr;
        double back = 0.0;
        std::from_chars(buf, end, back);
        if (back == v)
            break;
    }
    out.append(buf, end); // the loop always matches by 17 digits
}

std::string
jsonDouble(double v)
{
    std::string s;
    appendJsonDouble(s, v);
    return s;
}

namespace {

/** One byte's escaped form: its text and length (1 = the byte itself).
 *  Eight bytes, so the escaper copies a whole entry per input byte. */
struct JsonEscape
{
    char text[7];
    unsigned char length;
};

constexpr std::array<JsonEscape, 256>
makeJsonEscapes()
{
    std::array<JsonEscape, 256> table{};
    const char *hex = "0123456789abcdef";
    for (unsigned c = 0; c < 256; ++c) {
        JsonEscape &e = table[c];
        if (c == '"' || c == '\\' || c == '\n' || c == '\t') {
            e.text[0] = '\\';
            e.text[1] = c == '\n' ? 'n' : c == '\t' ? 't' : char(c);
            e.length = 2;
        } else if (c < 0x20) {
            const char u[] = {'\\', 'u', '0', '0', hex[c >> 4], hex[c & 15]};
            for (int i = 0; i < 6; ++i)
                e.text[i] = u[i];
            e.length = 6;
        } else {
            e.text[0] = static_cast<char>(c);
            e.length = 1;
        }
    }
    return table;
}

constexpr std::array<JsonEscape, 256> kJsonEscapes = makeJsonEscapes();

/** Input bytes escaped per block; the block's worst case (6 bytes out
 *  per byte in, plus one entry of slack) stays on the stack. */
constexpr size_t kEscapeBlock = 1024;

} // namespace

void
appendJsonEscaped(std::string &out, std::string_view s)
{
    // Escapes grow a sweep document by ~9%: one reservation then usually
    // holds the whole text.
    out.reserve(out.size() + s.size() + s.size() / 8 + 2);
    char block[6 * kEscapeBlock + sizeof(JsonEscape)];
    for (size_t at = 0; at < s.size(); at += kEscapeBlock) {
        const size_t n = std::min(kEscapeBlock, s.size() - at);
        char *d = block;
        for (size_t i = 0; i < n; ++i) {
            const JsonEscape &e =
                kJsonEscapes[static_cast<unsigned char>(s[at + i])];
            std::memcpy(d, &e, sizeof(e)); // branch-free; excess overwritten
            d += e.length;
        }
        out.append(block, d);
    }
}

void
appendJsonString(std::string &out, std::string_view s)
{
    out += '"';
    appendJsonEscaped(out, s);
    out += '"';
}

std::string
jsonString(std::string_view s)
{
    std::string out;
    appendJsonString(out, s);
    return out;
}

namespace {

void
writeConfig(JsonOut &os, const SweepJob &job, const char *ind)
{
    const core::AnalysisConfig &cfg = job.config;
    os << ind << "\"config\": {\n";
    os << ind << "  \"label\": " << quoted(job.configLabel) << ",\n";
    os << ind << "  \"syscalls\": \""
       << (cfg.sysCallsStall ? "stall" : "ignore") << "\",\n";
    os << ind << "  \"rename_regs\": "
       << (cfg.renameRegisters ? "true" : "false") << ",\n";
    os << ind << "  \"rename_stack\": "
       << (cfg.renameStack ? "true" : "false") << ",\n";
    os << ind << "  \"rename_data\": " << (cfg.renameData ? "true" : "false")
       << ",\n";
    os << ind << "  \"window\": " << cfg.windowSize << ",\n";
    os << ind << "  \"predictor\": \""
       << core::predictorKindName(cfg.branchPredictor) << "\",\n";
    os << ind << "  \"total_fus\": " << cfg.totalFuLimit << ",\n";
    os << ind << "  \"pipelined_fus\": "
       << (cfg.pipelinedFus ? "true" : "false") << ",\n";
    os << ind << "  \"max_instructions\": " << cfg.maxInstructions << "\n";
    os << ind << "}";
}

void
writeProfile(JsonOut &os, const BucketedProfile &profile, const char *ind)
{
    os << ind << "\"profile\": [";
    bool first = true;
    for (const BucketedProfile::Point &p : profile.series()) {
        os << (first ? "" : ",") << "\n"
           << ind << "  {\"first_level\": " << p.firstLevel
           << ", \"last_level\": " << p.lastLevel
           << ", \"ops_per_level\": " << p.opsPerLevel << "}";
        first = false;
    }
    if (!first)
        os << "\n" << ind;
    os << "]";
}

/** A cell's grid-dependent head: its input, its grid coordinates and its
 *  config block, up to the line its "status" field starts. */
void
writeCellHead(JsonOut &os, const SweepJob &job)
{
    os << "    {\n";
    os << "      \"input\": " << quoted(job.input) << ",\n";
    os << "      \"input_index\": " << job.inputIndex << ",\n";
    os << "      \"config_index\": " << job.configIndex << ",\n";
    writeConfig(os, job, "      ");
    os << ",\n";
}

void
writeCell(JsonDocOut &doc, const SweepCell &cell, const SweepJsonOptions &opt)
{
    // Cells satisfied from a resume journal or a result store carry their
    // rendering from the grid that computed them. Its head is rendered
    // again from this grid's job — a store entry is shared by content
    // across grids that name the input, place the cell or label the
    // config differently — and the rest is spliced from its "status" line
    // on, so the document is byte-identical to a fresh run's. The line
    // starts after the newline that ends the config block; no string
    // value holds a raw newline, so the first match is the field, and
    // escaping is a per-byte code, so the same holds for the wire form.
    JsonOut &os = doc.text();
    if (cell.status == SweepCell::Status::Skipped && cell.wireText) {
        constexpr std::string_view statusLine = "\\n      \\\"status\\\": ";
        const std::string_view wire = *cell.wireText;
        const size_t body = wire.find(statusLine);
        if (body == std::string_view::npos) {
            doc.splice(wire);
            return;
        }
        writeCellHead(os, cell.job);
        doc.splice(wire.substr(body + 2)); // past the escaped newline
        return;
    }
    if (cell.status == SweepCell::Status::Skipped &&
        !cell.journalText.empty()) {
        constexpr std::string_view statusLine = "\n      \"status\": ";
        const std::string_view text = cell.journalText;
        const size_t body = text.find(statusLine);
        if (body == std::string_view::npos) {
            os << text;
            return;
        }
        writeCellHead(os, cell.job);
        os << text.substr(body + 1);
        return;
    }

    const core::AnalysisResult &r = cell.result;
    writeCellHead(os, cell.job);
    if (cell.status == SweepCell::Status::Failed) {
        os << "      \"status\": \"failed\",\n";
        os << "      \"error\": " << quoted(cell.errorMessage) << ",\n";
        os << "      \"attempts\": " << cell.attempts << "\n";
        os << "    }";
        return;
    }
    os << "      \"status\": \"ok\",\n";
    if (cell.attempts > 1)
        os << "      \"attempts\": " << cell.attempts << ",\n";
    os << "      \"instructions\": " << r.instructions << ",\n";
    os << "      \"placed_ops\": " << r.placedOps << ",\n";
    os << "      \"critical_path\": " << r.criticalPathLength << ",\n";
    os << "      \"available_parallelism\": " << r.availableParallelism
       << ",\n";
    os << "      \"syscalls\": " << r.sysCalls << ",\n";
    os << "      \"firewalls\": " << r.firewalls << ",\n";
    os << "      \"pre_existing_values\": " << r.preExistingValues << ",\n";
    os << "      \"storage_delayed_ops\": " << r.storageDelayedOps << ",\n";
    os << "      \"fu_delayed_ops\": " << r.fuDelayedOps << ",\n";
    os << "      \"cond_branches\": " << r.condBranches << ",\n";
    os << "      \"branch_mispredictions\": " << r.branchMispredictions
       << ",\n";
    os << "      \"live_well_peak\": " << r.liveWellPeak << ",\n";
    os << "      \"live_well_final\": " << r.liveWellFinal << ",\n";
    os << "      \"lifetime_mean\": " << r.lifetimes.mean() << ",\n";
    os << "      \"sharing_mean\": " << r.sharing.mean();
    if (opt.profiles) {
        os << ",\n";
        writeProfile(os, r.profile, "      ");
    }
    if (opt.timing) {
        os << ",\n";
        os << "      \"timing\": {\"wall_seconds\": " << cell.wallSeconds
           << ", \"minstr_per_sec\": " << cell.minstrPerSec;
        if (opt.stats) {
            os << ",\n        \"decode_seconds\": " << cell.decodeSeconds
               << ", \"analyze_seconds\": " << cell.analyzeSeconds;
        }
        os << "}";
    }
    os << "\n    }";
}

/** Render @p sweep into @p doc, settling it and calling @p flush (which
 *  returns false to stop) after each cell and at the end. */
template <class Flush>
bool
writeSweep(JsonDocOut &doc, const SweepResult &sweep,
           const SweepJsonOptions &opt, Flush &&flush)
{
    JsonOut &os = doc.text();
    size_t failed = 0;
    for (const SweepCell &cell : sweep.cells) {
        if (cell.status == SweepCell::Status::Failed)
            ++failed;
    }
    os << "{\n";
    os << "  \"schema\": \"paragraph-sweep-v3\",\n";
    os << "  \"cells_total\": " << sweep.cells.size() << ",\n";
    os << "  \"cells_failed\": " << failed << ",\n";
    if (opt.timing) {
        os << "  \"jobs\": " << sweep.jobs << ",\n";
        os << "  \"timing\": {\"wall_seconds\": " << sweep.wallSeconds
           << ", \"capture_seconds\": " << sweep.captureSeconds
           << ", \"total_instructions\": " << sweep.totalInstructions
           << ", \"aggregate_minstr_per_sec\": "
           << sweep.aggregateMinstrPerSec;
        if (opt.stats) {
            os << ",\n    \"decode_seconds\": " << sweep.decodeSeconds
               << ", \"fused_groups\": " << sweep.fusedGroups;
        }
        os << "},\n";
    }
    os << "  \"cells\": [";
    bool first = true;
    for (const SweepCell &cell : sweep.cells) {
        os << (first ? "" : ",") << "\n";
        appendCellJson(doc, cell, opt);
        first = false;
        if (!flush())
            return false;
    }
    if (!first)
        os << "\n  ";
    os << "]\n";
    os << "}\n";
    doc.settle();
    return flush();
}

} // namespace

void
JsonDocOut::splice(std::string_view wire)
{
    if (form_ == JsonForm::StringBody) {
        settle();
        out_.append(wire);
        return;
    }
    const size_t end = appendJsonUnescaped(out_, wire);
    PARA_ASSERT(end == wire.size(), "wire text is not a JSON string body");
}

void
JsonDocOut::settle()
{
    if (form_ == JsonForm::Document || fresh_.empty())
        return;
    appendJsonEscaped(out_, fresh_);
    fresh_.clear();
}

void
appendCellJson(JsonDocOut &doc, const SweepCell &cell,
               const SweepJsonOptions &opt)
{
    writeCell(doc, cell, opt);
    doc.settle();
}

size_t
splicedBytes(const std::vector<SweepCell> &cells)
{
    size_t bytes = 0;
    for (const SweepCell &cell : cells)
        bytes += cell.wireText ? cell.wireText->size()
                               : cell.journalText.size();
    return bytes;
}

bool
streamSweepJson(const SweepResult &sweep, const SweepJsonOptions &opt,
                const JsonSink &sink)
{
    std::string buf;
    JsonDocOut doc(buf, JsonForm::Document);
    return writeSweep(doc, sweep, opt, [&] {
        bool more = sink(buf);
        buf.clear();
        return more;
    });
}

void
appendSweepJson(std::string &out, const SweepResult &sweep,
                const SweepJsonOptions &opt, JsonForm form)
{
    JsonDocOut doc(out, form);
    writeSweep(doc, sweep, opt, [] { return true; });
}

std::string
cellToJson(const SweepCell &cell, const SweepJsonOptions &opt)
{
    std::string out;
    JsonDocOut doc(out, JsonForm::Document);
    appendCellJson(doc, cell, opt);
    return out;
}

std::string
sweepToJson(const SweepResult &sweep, const SweepJsonOptions &opt)
{
    // Spliced cell texts are nearly all of a store hit's document; one
    // reservation for them spares the doubling copies of a growing buffer.
    std::string out;
    out.reserve(splicedBytes(sweep.cells) + 4096);
    appendSweepJson(out, sweep, opt, JsonForm::Document);
    return out;
}

} // namespace engine
} // namespace paragraph
