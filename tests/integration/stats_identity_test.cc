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
 * redirect), a DRAM-bound pthreads kernel, and histogramfs under each
 * remaining treatment, so that every treatment has a cell.
 *
 * A second digest per cell covers the RunResult itself: the journal
 * encoding of every TMI_RUN_RESULT_FIELDS value. It pins what each
 * runtime harvests into the result (overhead bytes, ladder rung,
 * commit counts, plan text), which the stats dump does not carry.
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
#include "driver/journal.hh"

namespace tmi
{

struct StatsCell
{
    const char *name;
    const char *workload;
    Treatment treatment;
    bool spuriousAborts; //!< htm.spurious_abort p=0.3, fault seed 7
    std::uint64_t expected;       //!< stats dump + makespan
    std::uint64_t expectedResult; //!< every durable RunResult field
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

std::uint64_t
resultDigest(const RunResult &res)
{
    driver::JournalRecord rec;
    rec.run = res;
    return Fnv1a{}.str(driver::encodeRecord(rec)).h;
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
    std::uint64_t rd = resultDigest(res);
    if (std::getenv("TMI_GOLDEN_DUMP")) {
        std::printf("%s 0x%sULL 0x%sULL\n", cell.name,
                    hashHex(d).c_str(), hashHex(rd).c_str());
    }
    if (cell.spuriousAborts) {
        EXPECT_GT(res.txnAborts, 0u) << "the fault must fire";
    }
    EXPECT_EQ(d, cell.expected)
        << cell.name << " digest 0x" << hashHex(d)
        << "; a stats counter or the makespan moved";
    EXPECT_EQ(rd, cell.expectedResult)
        << cell.name << " result digest 0x" << hashHex(rd)
        << "; a RunResult field moved";
}

INSTANTIATE_TEST_SUITE_P(
    Cells, StatsIdentity,
    ::testing::Values(
        StatsCell{"SpinlockpoolHtmSpurious", "spinlockpool",
                  Treatment::HtmElide, true, 0x96c5e39e51d1b403ULL,
                  0x1815a1a8313f0949ULL},
        StatsCell{"HistogramfsLaser", "histogramfs", Treatment::Laser,
                  false, 0x5ba5ac8fb2864cd6ULL, 0x86c67a9a690ae668ULL},
        StatsCell{"HistogramfsTmiProtect", "histogramfs",
                  Treatment::TmiProtect, false, 0xeb4c4d16ef3e2d30ULL,
                  0xf4e30a45d4876b60ULL},
        StatsCell{"HistogramfsHuronStatic", "histogramfs",
                  Treatment::HuronStatic, false, 0x36f13d469f26b2a8ULL,
                  0x4b602cf6ed2649a1ULL},
        StatsCell{"OceanCpPthreads", "ocean-cp", Treatment::Pthreads,
                  false, 0xdd0079500320e82dULL, 0x792dab173648478aULL},
        StatsCell{"HistogramfsManual", "histogramfs", Treatment::Manual,
                  false, 0xa86d5ba17e606132ULL, 0xdf487b80063bb653ULL},
        StatsCell{"HistogramfsTmiAlloc", "histogramfs",
                  Treatment::TmiAlloc, false, 0x44e91a3b57b52c40ULL,
                  0xa73f35a2b42a1bc1ULL},
        StatsCell{"HistogramfsTmiDetect", "histogramfs",
                  Treatment::TmiDetect, false, 0x5d66106086d28ef0ULL,
                  0x5442d17e697aee85ULL},
        StatsCell{"HistogramfsTmiProtectNoCcc", "histogramfs",
                  Treatment::TmiProtectNoCcc, false,
                  0x1fa89e9bb505d182ULL, 0xd164606c8b0212bcULL},
        StatsCell{"HistogramfsPtsbEverywhere", "histogramfs",
                  Treatment::PtsbEverywhere, false,
                  0x1fa89e9bb505d182ULL, 0x3256333a6b67fc57ULL},
        StatsCell{"HistogramfsSheriffDetect", "histogramfs",
                  Treatment::SheriffDetect, false,
                  0x572a1dd9dcedcb07ULL, 0x87a4bf9050e67830ULL},
        StatsCell{"HistogramfsSheriffProtect", "histogramfs",
                  Treatment::SheriffProtect, false,
                  0x87d3c7f6740e7a3cULL, 0x2d66d6c3824e72f7ULL}),
    [](const ::testing::TestParamInfo<StatsCell> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace tmi
