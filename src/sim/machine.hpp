/**
 * @file
 * Machine: the functional simulator (this repository's Pixie substitute).
 *
 * Executes an assembled Program instruction-at-a-time, producing one
 * TraceRecord per executed instruction — the serial execution trace
 * Paragraph analyzes. Execution is fully deterministic (queued I/O, no host
 * state), so re-running the same program yields a bit-identical trace.
 */

#ifndef PARAGRAPH_SIM_MACHINE_HPP
#define PARAGRAPH_SIM_MACHINE_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "casm/program.hpp"
#include "sim/memory.hpp"
#include "sim/syscalls.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace paragraph {
namespace sim {

class Machine
{
  public:
    /** @param program assembled image; must outlive the machine. */
    explicit Machine(const casm::Program &program);

    /** Queue integer inputs for ReadInt (consumed in order). */
    void setIntInput(std::vector<int32_t> input);

    /** Queue FP inputs for ReadDouble. */
    void setFpInput(std::vector<double> input);

    /**
     * Execute one instruction and describe it in @p rec.
     * @return false when the program has already exited (or ran off the end
     *         of the text segment, which is treated as a clean exit).
     */
    bool step(trace::TraceRecord &rec);

    /**
     * Run to completion (or @p max_instructions).
     * @return number of instructions executed.
     */
    uint64_t run(uint64_t max_instructions = 0);

    /** Reset registers, memory, I/O cursors, and the PC to the entry. */
    void reset();

    // --- State access (tests and examples) -------------------------------

    bool exited() const { return exited_; }
    int32_t exitCode() const { return exitCode_; }
    uint64_t pc() const { return pc_; }
    uint64_t instructionsExecuted() const { return executed_; }

    int32_t
    intReg(uint8_t idx) const
    {
        return static_cast<int32_t>(intRegs_[idx]);
    }

    void
    setIntReg(uint8_t idx, int32_t value)
    {
        if (idx != 0)
            intRegs_[idx] = static_cast<uint32_t>(value);
    }

    double fpReg(uint8_t idx) const { return fpRegs_[idx]; }
    void setFpReg(uint8_t idx, double value) { fpRegs_[idx] = value; }

    Memory &memory() { return memory_; }

    /** Values printed via PrintInt, in order. */
    const std::vector<int64_t> &intOutput() const { return intOutput_; }

    /** Values printed via PrintDouble, in order. */
    const std::vector<double> &fpOutput() const { return fpOutput_; }

  private:
    const casm::Program &program_;
    Memory memory_;
    uint32_t intRegs_[32] = {};
    double fpRegs_[32] = {};
    uint64_t pc_ = 0;
    uint64_t executed_ = 0;
    bool exited_ = false;
    int32_t exitCode_ = 0;
    uint64_t heapBase_ = 0;
    uint64_t brk_ = 0;

    std::vector<int32_t> intInput_;
    std::vector<double> fpInput_;
    size_t intInputPos_ = 0;
    size_t fpInputPos_ = 0;
    std::vector<int64_t> intOutput_;
    std::vector<double> fpOutput_;

    void doSysCall(trace::TraceRecord &rec);

    trace::Segment classify(uint64_t addr) const;
};

/**
 * Streaming TraceSource that executes a program on demand: next() runs one
 * instruction, nextBatch() steps the machine straight into the caller's
 * block. reset() rebuilds the machine (with its queued inputs), so
 * window-size sweeps can replay the identical trace without storing it.
 */
class MachineTraceSource : public trace::TraceSource
{
  public:
    /** @param program must outlive the source. */
    MachineTraceSource(const casm::Program &program,
                       std::vector<int32_t> int_input = {},
                       std::vector<double> fp_input = {},
                       std::string name = "program");

    /** As above, co-owning @p program for the source's lifetime. */
    MachineTraceSource(std::shared_ptr<const casm::Program> program,
                       std::vector<int32_t> int_input = {},
                       std::vector<double> fp_input = {},
                       std::string name = "program");

    bool next(trace::TraceRecord &rec) override;
    size_t nextBatch(trace::TraceRecord *out, size_t max) override;
    void reset() override;
    std::string name() const override { return name_; }

    /** The underlying machine (e.g. to inspect outputs after a run). */
    Machine &machine() { return machine_; }

  private:
    std::shared_ptr<const casm::Program> owned_; ///< null when borrowed
    std::vector<int32_t> intInput_;
    std::vector<double> fpInput_;
    std::string name_;
    Machine machine_;
};

} // namespace sim
} // namespace paragraph

#endif // PARAGRAPH_SIM_MACHINE_HPP
