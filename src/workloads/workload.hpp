/**
 * @file
 * The SPEC89 workload analogs (paper Table 2).
 *
 * The SPEC89 sources are proprietary, so each benchmark is replaced by a
 * MiniC analog that reproduces the dependence structure the paper attributes
 * to it (see DESIGN.md Section 2 for the substitution argument):
 *
 *   cc1        C   Int  — hash-table/token processing on the heap with
 *                         frequent system calls
 *   doduc      F   FP   — branchy Monte-Carlo particle tracking, per-sample
 *                         procedure calls
 *   eqntott    C   Int  — bit-vector truth-table comparison and merge sort
 *                         over global tables
 *   espresso   C   Int  — bitwise cube-cover minimization over global sets
 *   fpppp      F   FP   — huge straight-line FP blocks over global
 *                         (COMMON-block) scratch arrays
 *   matrix300  F   FP   — DAXPY matrix multiply on stack-resident matrices
 *   nasker     F   FP   — recurrence-bound numerical kernels
 *   spice2g6   F   mix  — sparse matrix solve + nonlinear device evaluation
 *   tomcatv    F   FP   — Jacobi mesh relaxation on stack-resident grids
 *   xlisp      C   Int  — a bytecode interpreter whose virtual-PC recurrence
 *                         serializes execution
 */

#ifndef PARAGRAPH_WORKLOADS_WORKLOAD_HPP
#define PARAGRAPH_WORKLOADS_WORKLOAD_HPP

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "casm/program.hpp"
#include "sim/machine.hpp"

namespace paragraph {
namespace workloads {

struct Workload
{
    std::string name;        ///< SPEC benchmark the analog stands in for
    std::string language;    ///< source language of the original ("C"/"FORTRAN")
    std::string benchType;   ///< "Int", "FP", or "Int and FP"
    std::string description; ///< what the analog computes
    std::string source;      ///< MiniC text
    std::vector<int32_t> input;      ///< default (benchmark) inputs
    std::vector<int32_t> smallInput; ///< reduced inputs for unit tests
};

/** Scale selector for trace generation. */
enum class Scale { Small, Full };

class WorkloadSuite
{
  public:
    /** The singleton suite (compiles lazily, caches programs; safe to use
     *  from any number of threads). */
    static WorkloadSuite &instance();

    /** All ten analogs, in the paper's Table 2 order. */
    const std::vector<Workload> &all() const { return workloads_; }

    /** Find by name; throws FatalError when unknown. */
    const Workload &find(const std::string &name) const;

    /** Compiled program for a workload: compiled on first use (once, even
     *  when several threads ask at once), then cached for the process. */
    const casm::Program &program(const Workload &w);

    /** Fresh streaming trace source for a workload. */
    std::unique_ptr<sim::MachineTraceSource>
    makeSource(const Workload &w, Scale scale = Scale::Full);

  private:
    WorkloadSuite();
    std::vector<Workload> workloads_;
    std::vector<std::unique_ptr<casm::Program>> programs_;
    /** One per analog: each compiles alone, and only when first asked for
     *  (a compile takes about 1 ms; no process needs all ten). */
    std::unique_ptr<std::once_flag[]> compiled_;
};

// Raw MiniC sources (one per analog; defined in sources_*.cpp).
extern const char *const srcCc1;
extern const char *const srcDoduc;
extern const char *const srcEqntott;
extern const char *const srcEspresso;
extern const char *const srcFpppp;
extern const char *const srcMatrix300;
extern const char *const srcNasker;
extern const char *const srcSpice;
extern const char *const srcTomcatv;
extern const char *const srcXlisp;

} // namespace workloads
} // namespace paragraph

#endif // PARAGRAPH_WORKLOADS_WORKLOAD_HPP
