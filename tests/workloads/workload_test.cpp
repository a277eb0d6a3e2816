// Tests for the SPEC89 analog suite: registry integrity, compilation,
// execution, and the dependence-structure signatures each analog must show.
#include <gtest/gtest.h>

#include <set>

#include "core/paragraph.hpp"
#include "support/panic.hpp"
#include "trace/stats.hpp"
#include "workloads/workload.hpp"

using namespace paragraph;
using namespace paragraph::workloads;

TEST(WorkloadSuite, HasAllTenSpecAnalogs)
{
    auto &suite = WorkloadSuite::instance();
    ASSERT_EQ(suite.all().size(), 10u);
    std::set<std::string> names;
    for (const auto &w : suite.all())
        names.insert(w.name);
    for (const char *expected :
         {"cc1", "doduc", "eqntott", "espresso", "fpppp", "matrix300",
          "nasker", "spice2g6", "tomcatv", "xlisp"}) {
        EXPECT_TRUE(names.count(expected)) << expected;
    }
}

TEST(WorkloadSuite, Table2MetadataComplete)
{
    for (const auto &w : WorkloadSuite::instance().all()) {
        EXPECT_FALSE(w.description.empty()) << w.name;
        EXPECT_TRUE(w.language == "C" || w.language == "FORTRAN") << w.name;
        EXPECT_TRUE(w.benchType == "Int" || w.benchType == "FP" ||
                    w.benchType == "Int and FP")
            << w.name;
        EXPECT_FALSE(w.source.empty()) << w.name;
        EXPECT_FALSE(w.input.empty()) << w.name;
        EXPECT_FALSE(w.smallInput.empty()) << w.name;
    }
}

TEST(WorkloadSuite, FindUnknownIsFatal)
{
    EXPECT_THROW(WorkloadSuite::instance().find("gcc"), FatalError);
}

TEST(WorkloadSuite, ProgramsCompileOnceAndAreCached)
{
    auto &suite = WorkloadSuite::instance();
    const auto &w = suite.find("xlisp");
    const casm::Program &p1 = suite.program(w);
    const casm::Program &p2 = suite.program(w);
    EXPECT_EQ(&p1, &p2);
    EXPECT_GT(p1.text.size(), 50u);
}

TEST(WorkloadSuite, FpWorkloadsActuallyUseFp)
{
    auto &suite = WorkloadSuite::instance();
    for (const char *name : {"doduc", "fpppp", "matrix300", "nasker",
                             "tomcatv", "spice2g6"}) {
        auto src = suite.makeSource(suite.find(name), Scale::Small);
        trace::TraceStats stats = trace::TraceStats::collect(*src);
        EXPECT_GT(stats.fpFraction(), 0.05) << name;
    }
}

TEST(WorkloadSuite, IntWorkloadsAreIntegerOnly)
{
    auto &suite = WorkloadSuite::instance();
    for (const char *name : {"cc1", "eqntott", "espresso", "xlisp"}) {
        auto src = suite.makeSource(suite.find(name), Scale::Small);
        trace::TraceStats stats = trace::TraceStats::collect(*src);
        EXPECT_DOUBLE_EQ(stats.fpFraction(), 0.0) << name;
    }
}

TEST(WorkloadSuite, StackVsDataSegmentSignatures)
{
    auto &suite = WorkloadSuite::instance();
    // matrix300 and tomcatv keep their arrays on the stack; fpppp, eqntott,
    // espresso work out of the data segment.
    for (const char *name : {"matrix300", "tomcatv"}) {
        auto src = suite.makeSource(suite.find(name), Scale::Small);
        trace::TraceStats stats = trace::TraceStats::collect(*src);
        EXPECT_GT(stats.stackAccesses, stats.dataAccesses) << name;
    }
    for (const char *name : {"fpppp", "eqntott", "espresso"}) {
        auto src = suite.makeSource(suite.find(name), Scale::Small);
        trace::TraceStats stats = trace::TraceStats::collect(*src);
        EXPECT_GT(stats.dataAccesses, stats.stackAccesses) << name;
    }
}

TEST(WorkloadSuite, Cc1IsTheSysCallHeavyBenchmark)
{
    auto &suite = WorkloadSuite::instance();
    auto src = suite.makeSource(suite.find("cc1"), Scale::Full);
    core::AnalysisConfig cfg = core::AnalysisConfig::dataflowConservative();
    cfg.maxInstructions = 300000;
    core::AnalysisResult res = core::Paragraph(cfg).analyze(*src);
    EXPECT_GT(res.sysCalls, 10u);
}

TEST(WorkloadSuite, HeapUsersAllocate)
{
    auto &suite = WorkloadSuite::instance();
    for (const char *name : {"cc1", "espresso"}) {
        auto src = suite.makeSource(suite.find(name), Scale::Small);
        trace::TraceRecord rec;
        bool heap_access = false;
        while (src->next(rec)) {
            for (int s = 0; s < rec.numSrcs; ++s)
                heap_access |= rec.src(s).isMem() &&
                               rec.src(s).seg == trace::Segment::Heap;
        }
        EXPECT_TRUE(heap_access) << name;
    }
}

TEST(WorkloadSignature, XlispIsTheLeastParallel)
{
    auto &suite = WorkloadSuite::instance();
    core::AnalysisConfig cfg = core::AnalysisConfig::dataflowConservative();
    auto xl = suite.makeSource(suite.find("xlisp"), Scale::Small);
    double xlisp_par = core::Paragraph(cfg).analyze(*xl).availableParallelism;
    for (const char *name : {"matrix300", "tomcatv", "fpppp", "eqntott"}) {
        auto src = suite.makeSource(suite.find(name), Scale::Small);
        double par = core::Paragraph(cfg).analyze(*src).availableParallelism;
        EXPECT_GT(par, xlisp_par) << name;
    }
}

TEST(WorkloadSignature, StackRenamingUnlocksMatrix300AndTomcatv)
{
    auto &suite = WorkloadSuite::instance();
    for (const char *name : {"matrix300", "tomcatv"}) {
        auto a = suite.makeSource(suite.find(name), Scale::Small);
        auto b = suite.makeSource(suite.find(name), Scale::Small);
        double regs = core::Paragraph(core::AnalysisConfig::regsRenamed())
                          .analyze(*a)
                          .availableParallelism;
        double stack =
            core::Paragraph(core::AnalysisConfig::regsStackRenamed())
                .analyze(*b)
                .availableParallelism;
        EXPECT_GT(stack, regs * 3.0) << name;
    }
}

TEST(WorkloadSignature, MemoryRenamingUnlocksFpppp)
{
    auto &suite = WorkloadSuite::instance();
    // The cross-shell serialization only dominates once there are many
    // shells, so this signature is checked at full scale.
    auto a = suite.makeSource(suite.find("fpppp"), Scale::Full);
    auto b = suite.makeSource(suite.find("fpppp"), Scale::Full);
    double stack = core::Paragraph(core::AnalysisConfig::regsStackRenamed())
                       .analyze(*a)
                       .availableParallelism;
    double mem = core::Paragraph(core::AnalysisConfig::regsMemRenamed())
                     .analyze(*b)
                     .availableParallelism;
    EXPECT_GT(mem, stack * 2.0);
}

TEST(WorkloadSignature, NoRenamingCollapsesEveryone)
{
    auto &suite = WorkloadSuite::instance();
    for (const auto &w : suite.all()) {
        auto src = suite.makeSource(w, Scale::Small);
        double par = core::Paragraph(core::AnalysisConfig::noRenaming())
                         .analyze(*src)
                         .availableParallelism;
        EXPECT_LT(par, 5.0) << w.name;
    }
}

TEST(WorkloadSignature, ProgramOutputsAreStable)
{
    // Golden outputs: catches simulator or compiler regressions that change
    // program semantics without crashing anything.
    auto &suite = WorkloadSuite::instance();
    auto run = [&](const char *name) {
        auto src = suite.makeSource(suite.find(name), Scale::Small);
        trace::TraceRecord rec;
        while (src->next(rec)) {
        }
        return src->machine().intOutput();
    };
    auto xlisp_out = run("xlisp");
    ASSERT_FALSE(xlisp_out.empty());
    // At the small scale the step budget expires mid-loop; the final dump
    // shows the partial accumulation (golden value).
    EXPECT_EQ(xlisp_out[0], 18825);

    auto cc1_out = run("cc1");
    ASSERT_FALSE(cc1_out.empty());
    EXPECT_EQ(cc1_out[0], 127); // first periodic progress print
}
