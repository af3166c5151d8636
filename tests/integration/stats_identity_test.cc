/**
 * @file
 * Stats-identity golden: pins the full stats dump and the makespan of
 * a few cells whose simulated state is easy to disturb by reordering
 * the per-access path.
 *
 * The cycle-identity golden pins cycles, HITM and mem-op counts; it
 * cannot see a counter that moves without moving time. The classic
 * case is the simulated TLB running after the txn pre-access check:
 * a self-abort rewinds the fiber before the lookup, so tlbHits
 * changes while every other number holds. Each cell here folds
 * RunResult::statsText (every registered counter) and cycles into one
 * FNV-1a digest.
 *
 * The cells: htm-elide under injected spurious aborts (fiber rewinds
 * mid-access), the three histogramfs treatments that touch the path
 * differently (LASER interception, TMI COW + PTSB, huron-static layout
 * redirect), and a DRAM-bound pthreads kernel.
 *
 * Regenerating (only legitimate after an *intentional* model change):
 *   TMI_GOLDEN_DUMP=1 ./build/tests/integration_stats_identity_test
 * and copy the printed digests into the table below.
 */

#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "common/fnv.hh"
#include "core/config.hh"
#include "core/experiment.hh"

namespace tmi
{

struct StatsCell
{
    const char *name;
    const char *workload;
    Treatment treatment;
    bool spuriousAborts; //!< htm.spurious_abort p=0.3, fault seed 7
    std::uint64_t expected;
};

/** Name the cell in gtest output instead of dumping its bytes. */
void
PrintTo(const StatsCell &cell, std::ostream *os)
{
    *os << cell.name;
}

namespace
{

RunResult
runCell(const StatsCell &cell)
{
    ExperimentBuilder b;
    b.workload(cell.workload)
        .treatment(cell.treatment)
        .threads(4)
        .scale(1)
        .analysisInterval(500'000)
        .budget(60'000'000'000ULL)
        .dumpStats();
    if (cell.spuriousAborts) {
        FaultSpec spec;
        spec.probability = 0.3;
        b.fault(faultpoint::htmSpuriousAbort, spec).faultSeed(7);
    }
    return b.run();
}

std::uint64_t
digest(const RunResult &res)
{
    return Fnv1a{}.str(res.statsText).u64(res.cycles).h;
}

class StatsIdentity : public ::testing::TestWithParam<StatsCell>
{
};

TEST_P(StatsIdentity, DumpMatchesGolden)
{
    const StatsCell &cell = GetParam();
    RunResult res = runCell(cell);
    ASSERT_EQ(res.outcome, RunOutcome::Completed);
    ASSERT_TRUE(res.valid);
    ASSERT_FALSE(res.statsText.empty()) << "dumpStats produced nothing";
    std::uint64_t d = digest(res);
    if (std::getenv("TMI_GOLDEN_DUMP"))
        std::printf("%s 0x%sULL\n", cell.name, hashHex(d).c_str());
    if (cell.spuriousAborts) {
        EXPECT_GT(res.txnAborts, 0u) << "the fault must fire";
    }
    EXPECT_EQ(d, cell.expected)
        << cell.name << " digest 0x" << hashHex(d)
        << "; a stats counter or the makespan moved";
}

INSTANTIATE_TEST_SUITE_P(
    Cells, StatsIdentity,
    ::testing::Values(
        StatsCell{"SpinlockpoolHtmSpurious", "spinlockpool",
                  Treatment::HtmElide, true, 0x96c5e39e51d1b403ULL},
        StatsCell{"HistogramfsLaser", "histogramfs", Treatment::Laser,
                  false, 0x5ba5ac8fb2864cd6ULL},
        StatsCell{"HistogramfsTmiProtect", "histogramfs",
                  Treatment::TmiProtect, false, 0xeb4c4d16ef3e2d30ULL},
        StatsCell{"HistogramfsHuronStatic", "histogramfs",
                  Treatment::HuronStatic, false, 0x36f13d469f26b2a8ULL},
        StatsCell{"OceanCpPthreads", "ocean-cp", Treatment::Pthreads,
                  false, 0xdd0079500320e82dULL}),
    [](const ::testing::TestParamInfo<StatsCell> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace tmi
