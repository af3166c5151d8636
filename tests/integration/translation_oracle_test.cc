/**
 * @file
 * Translation oracle for the access path's frame cache: in runs that
 * privatize pages (TMI's and Sheriff's PTSB), every access reported
 * to the AccessSampler must carry the physical address of the live
 * mapping at that moment -- Mmu::translatePeek for a normal access,
 * the shared frame for an access that bypasses the private view. A
 * cached translation that outlived its private frame (a missing
 * epoch bump at a drop, unprotect, abandonment or clone) shows up
 * here as an access to a frame the page no longer maps.
 */

#include <gtest/gtest.h>

#include "baselines/sheriff.hh"
#include "core/machine.hh"
#include "runtime/tmi_runtime.hh"
#include "workloads/workload.hh"

namespace tmi
{

namespace
{

struct OracleCell
{
    const char *workload;
    Treatment treatment;
    RawParams params; //!< workload knobs over the schema defaults
};

void
PrintTo(const OracleCell &c, std::ostream *os)
{
    *os << c.workload << "/" << treatmentName(c.treatment);
}

/** The cell's runtime, configured as runExperiment's defaults do. */
std::unique_ptr<RepairRuntime>
makeRuntime(Machine &machine, Treatment treatment)
{
    ExperimentConfig run;
    if (treatment == Treatment::SheriffProtect) {
        SheriffConfig sc;
        sc.monitorInterval = run.analysisInterval;
        return std::make_unique<SheriffRuntime>(machine, sc);
    }
    TmiConfig tc;
    tc.detector.repairThreshold = run.repairThreshold;
    tc.analysisInterval = run.analysisInterval;
    return std::make_unique<TmiRuntime>(machine, tc);
}

class TranslationOracle : public ::testing::TestWithParam<OracleCell>
{
};

TEST_P(TranslationOracle, EveryAccessUsesTheLiveMapping)
{
    const OracleCell &cell = GetParam();
    MachineConfig mc;
    mc.cores = 4;
    mc.seed = 42;
    mc.shmBackedHeap = true;
    mc.tmiModifiedAllocator = true;
    mc.instrumentationSampling = 1;
    mc.instrumentationCost = 0;
    Machine machine(mc);
    WorkloadParams params;
    params.threads = 4;
    params.scale = 2;
    params.seed = 42;
    const WorkloadInfo &info = findWorkload(cell.workload);
    std::string err;
    ASSERT_TRUE(resolveParams(info.schema, cell.params, params.extra, err))
        << err;
    std::unique_ptr<Workload> wl = info.make(params);
    wl->init(machine);
    std::unique_ptr<RepairRuntime> runtime =
        makeRuntime(machine, cell.treatment);
    runtime->attach();

    Mmu &mmu = machine.mmu();
    std::uint64_t checked = 0, private_hits = 0, shared_atomics = 0;
    std::uint64_t bad = 0;
    machine.setAccessSampler([&](const AccessContext &ctx) {
        ++checked;
        ProcessId pid = machine.processOf(ctx.tid);
        Addr live = 0;
        bool mapped = mmu.translatePeek(pid, ctx.vaddr, live);
        const PageEntry *entry =
            mmu.space(pid).find(ctx.vaddr >> mmu.pageShift());
        Addr shared = 0;
        if (entry) {
            shared = (entry->backing->frameFor(entry->filePage)
                      << mmu.pageShift()) |
                     (ctx.vaddr & (mmu.pageBytes() - 1));
        }
        bool ok;
        if (machine.pipeline().bypassPrivate(ctx.tid)) {
            ok = ctx.paddr == shared;
        } else if (ctx.paddr == live) {
            ok = true;
            private_hits += live != shared;
        } else {
            // An atomic on the shared view while the snapshot says
            // atomics bypass the private one; bounded below.
            ok = machine.pipeline().atomicsBypass() &&
                 ctx.paddr == shared;
            shared_atomics += ok;
        }
        // Reported at once: the access about to use a stale frame may
        // abort the run before the test body gets to look.
        if ((!mapped || !entry || !ok) && bad++ == 0) {
            ADD_FAILURE() << "stale translation at access #" << checked
                          << ": tid " << ctx.tid << " pid " << pid
                          << std::hex << " va 0x" << ctx.vaddr
                          << " paddr 0x" << ctx.paddr << " live 0x"
                          << live << " shared 0x" << shared;
        }
    });

    Workload *w = wl.get();
    machine.spawnThread(info.name + "-main",
                        [w](ThreadApi &api) { w->main(api); });
    ASSERT_EQ(machine.sched().run(60'000'000'000ULL),
              RunOutcome::Completed);
    ASSERT_TRUE(wl->validate(machine));

    EXPECT_EQ(bad, 0u);
    EXPECT_EQ(checked, machine.memOpCount());
    EXPECT_LE(shared_atomics, machine.atomicOpCount());
    // The run must actually have privatized pages and used them, or
    // the cached private-frame path went unexercised.
    EXPECT_GT(mmu.cowFaults(), 0u);
    EXPECT_GT(private_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Cells, TranslationOracle,
    ::testing::Values(
        // The server-feeds recipe's knobs, with fewer requests: the
        // stat counters false-share hard enough to get repaired.
        OracleCell{"feed-spsc", Treatment::TmiProtect,
                   {{"requests", "600"}, {"arrival_gap", "5500"},
                    {"stat_rounds", "48"}, {"service_cycles", "600"}}},
        OracleCell{"histogramfs", Treatment::TmiProtect, {}},
        OracleCell{"histogramfs", Treatment::SheriffProtect, {}}),
    [](const ::testing::TestParamInfo<OracleCell> &info) {
        std::string name = std::string(info.param.workload) + "_" +
                           treatmentName(info.param.treatment);
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace tmi
