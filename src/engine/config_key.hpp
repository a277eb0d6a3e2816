/**
 * @file
 * Config fingerprinting: a canonical, content-addressed key for an
 * AnalysisConfig.
 *
 * The sweep journal, and the paragraph-serve result cache built on top of
 * it, need to answer "is this the same analysis?" without trusting the
 * human-readable axis label. configKey() serializes every analysis-relevant
 * field of core::AnalysisConfig into one canonical text form (fixed field
 * order, fixed encodings, independent of how the config was constructed)
 * and hashes it with the same CRC-32 the trace tier uses — so a cell
 * computed under a config is identified by (trace CRC-32, config key)
 * forever, across processes, clients, and daemon restarts.
 *
 * Excluded by design: AnalysisConfig::cancel (a runtime control channel,
 * not part of what is computed) and AnalysisConfig::distributions (full
 * distributions or a cell's count and sum: the rendered means are the
 * same either way). Everything else — the paper switches, the latency
 * table, FU limits, instruction caps — participates, because any of them
 * changes the rendered cell JSON. The text still carries the three
 * metric-collection flags of earlier releases, fixed at 1, so the keys in
 * existing stores and journals keep hitting.
 */

#ifndef PARAGRAPH_ENGINE_CONFIG_KEY_HPP
#define PARAGRAPH_ENGINE_CONFIG_KEY_HPP

#include <cstdint>
#include <string>

#include "core/config.hpp"

namespace paragraph {
namespace engine {

/** The canonical serialization configKey() hashes (stable across releases
 *  of this repo; bump the leading version tag if a field is ever added). */
std::string canonicalConfigText(const core::AnalysisConfig &cfg);

/** CRC-32 of canonicalConfigText(). Equal configs — however constructed —
 *  produce equal keys. */
uint32_t configKey(const core::AnalysisConfig &cfg);

/** configKey() as fixed-width lowercase hex (8 chars), the form stored in
 *  journal lines and result-store keys. */
std::string configKeyHex(const core::AnalysisConfig &cfg);

} // namespace engine
} // namespace paragraph

#endif // PARAGRAPH_ENGINE_CONFIG_KEY_HPP
