#include "workloads/workload.hpp"

#include "minic/compiler.hpp"
#include "support/panic.hpp"

namespace paragraph {
namespace workloads {

WorkloadSuite &
WorkloadSuite::instance()
{
    static WorkloadSuite suite;
    return suite;
}

WorkloadSuite::WorkloadSuite()
{
    // Inputs are chosen so full-scale traces land near one million
    // instructions each (laptop-scale stand-ins for the paper's 100M).
    workloads_ = {
        {"cc1", "C", "Int",
         "token interning into a heap hash table, frequent output syscalls",
         srcCc1, {20000}, {400}},
        {"doduc", "FORTRAN", "FP",
         "Monte-Carlo particle tracking, branchy per-sample calls",
         srcDoduc, {250}, {10}},
        {"eqntott", "C", "Int",
         "bit-vector truth-table merge sort over global tables",
         srcEqntott, {1024, 2}, {64, 1}},
        {"espresso", "C", "Int",
         "bitwise cube-cover minimization with heap scratch",
         srcEspresso, {160, 2}, {32, 1}},
        {"fpppp", "FORTRAN", "FP",
         "straight-line FP shells over global scratch arrays",
         srcFpppp, {400}, {12}},
        {"matrix300", "FORTRAN", "FP",
         "DAXPY matrix multiply on stack-resident matrices",
         srcMatrix300, {80, 1}, {10, 1}},
        {"nasker", "FORTRAN", "FP",
         "recurrence-bound numerical kernels over timesteps",
         srcNasker, {1024, 15}, {96, 2}},
        {"spice2g6", "FORTRAN", "Int and FP",
         "sparse Gauss-Seidel transient solve with device models",
         srcSpice, {256, 18}, {48, 2}},
        {"tomcatv", "FORTRAN", "FP",
         "Jacobi mesh relaxation on stack-resident grids",
         srcTomcatv, {64, 8}, {14, 1}},
        {"xlisp", "C", "Int",
         "bytecode interpreter running an imperative countdown program",
         srcXlisp, {40000}, {1500}},
    };
    programs_.resize(workloads_.size());
    compiled_ = std::make_unique<std::once_flag[]>(workloads_.size());
}

const Workload &
WorkloadSuite::find(const std::string &name) const
{
    for (const Workload &w : workloads_) {
        if (w.name == name)
            return w;
    }
    PARA_FATAL("unknown workload '%s'", name.c_str());
}

const casm::Program &
WorkloadSuite::program(const Workload &w)
{
    for (size_t i = 0; i < workloads_.size(); ++i) {
        if (&workloads_[i] == &w || workloads_[i].name == w.name) {
            std::call_once(compiled_[i], [&] {
                programs_[i] = std::make_unique<casm::Program>(
                    minic::compile(workloads_[i].source));
            });
            return *programs_[i];
        }
    }
    PARA_FATAL("workload '%s' is not part of the suite", w.name.c_str());
}

std::unique_ptr<sim::MachineTraceSource>
WorkloadSuite::makeSource(const Workload &w, Scale scale)
{
    const casm::Program &prog = program(w);
    const auto &input = scale == Scale::Full ? w.input : w.smallInput;
    return std::make_unique<sim::MachineTraceSource>(prog, input,
                                                     std::vector<double>{},
                                                     w.name);
}

} // namespace workloads
} // namespace paragraph
