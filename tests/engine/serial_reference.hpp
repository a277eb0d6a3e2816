// The serial reference the engine tests compare sweeps against: every cell
// an independent Paragraph::analyze over a TraceRepository::get() capture
// of its input, with no scheduler, decode pool, stream or fusion involved.
#ifndef PARAGRAPH_TESTS_ENGINE_SERIAL_REFERENCE_HPP
#define PARAGRAPH_TESTS_ENGINE_SERIAL_REFERENCE_HPP

#include <string>
#include <vector>

#include "core/paragraph.hpp"
#include "engine/sweep.hpp"
#include "engine/sweep_json.hpp"
#include "engine/trace_repository.hpp"
#include "trace/buffer.hpp"

namespace paragraph {
namespace testhelpers {

/** The no-timing document of the (@p inputs × @p configs) grid, every
 *  cell analyzed serially over @p repo's capture of its input. */
inline std::string
serialSweepDoc(engine::TraceRepository &repo,
               const std::vector<std::string> &inputs,
               const std::vector<core::AnalysisConfig> &configs,
               const std::vector<std::string> &labels = {})
{
    engine::SweepResult sweep;
    for (engine::SweepJob &job : engine::sweepGrid(inputs, configs, labels)) {
        engine::SweepCell cell;
        trace::BufferSource src(*repo.get(job.input), job.input);
        cell.result = core::Paragraph(job.config).analyze(src);
        cell.job = std::move(job);
        cell.status = engine::SweepCell::Status::Ok;
        cell.attempts = 1;
        sweep.cells.push_back(std::move(cell));
    }
    engine::SweepJsonOptions json;
    json.timing = false;
    return engine::sweepToJson(sweep, json);
}

} // namespace testhelpers
} // namespace paragraph

#endif // PARAGRAPH_TESTS_ENGINE_SERIAL_REFERENCE_HPP
