/**
 * @file
 * Unit tests for the plan applier: plan-directed placement preserves
 * program semantics under both allocators, installs redirection only
 * for matching sites, and tears segments down on free.
 */

#include <gtest/gtest.h>

#include "staticrepair/applier.hh"

namespace tmi::staticrepair
{

namespace
{

class ApplierTest : public ::testing::TestWithParam<AllocatorKind>
{
  protected:
    ApplierTest()
    {
        MachineConfig mc;
        mc.allocator = GetParam();
        machine = std::make_unique<Machine>(mc);
        pc_load = machine->instructions().define("t.load",
                                                 MemKind::Load, 8);
        pc_store = machine->instructions().define("t.store",
                                                  MemKind::Store, 8);
    }

    RunOutcome
    runAs(std::function<void(ThreadApi &)> fn)
    {
        machine->spawnThread("test", std::move(fn));
        return machine->sched().run(10'000'000'000ULL);
    }

    std::unique_ptr<Machine> machine;
    Addr pc_load = 0, pc_store = 0;
};

LayoutPlan
splitPlan(const std::string &key, std::uint64_t bytes,
          std::uint64_t cut)
{
    LayoutPlan plan;
    PlanSite site;
    site.key = key;
    site.bytes = bytes;
    site.kind = RepairKind::Split;
    site.cuts = {cut};
    plan.sites.push_back(site);
    return plan;
}

} // namespace

TEST_P(ApplierTest, SemanticsPreservedAcrossTheCut)
{
    PlanApplier applier(*machine, splitPlan("blob", 200, 100));

    RunOutcome out = runAs([&](ThreadApi &api) {
        Addr a = api.mallocAt("blob", 200);
        // Straddle both parts, including bytes adjacent to the cut.
        for (Addr off : {0, 48, 92, 100, 112, 192}) {
            api.store(pc_store, a + off, 0xbeef0000 + off);
        }
        for (Addr off : {0, 48, 92, 100, 112, 192}) {
            EXPECT_EQ(api.load(pc_load, a + off), 0xbeef0000 + off);
        }
        api.free(a);
    });
    EXPECT_EQ(out, RunOutcome::Completed);
    EXPECT_EQ(applier.appliedSites(), 1u);
    EXPECT_EQ(applier.redirectedSites(), 1u);
    // Split 200 at 100: part 1 moves from 100 to 128, total 256.
    EXPECT_EQ(applier.paddingBytes(), 56u);
}

TEST_P(ApplierTest, RedirectionActuallySeparatesTheParts)
{
    PlanApplier applier(*machine, splitPlan("blob", 200, 100));

    runAs([&](ThreadApi &api) {
        Addr a = api.mallocAt("blob", 200);
        bool hit = false;
        // Offset 99 stays put; offset 100 lands on the next line.
        Addr p0 = machine->staticLayout().redirect(a + 99, hit);
        EXPECT_FALSE(hit);
        EXPECT_EQ(p0, a + 99);
        Addr p1 = machine->staticLayout().redirect(a + 100, hit);
        EXPECT_TRUE(hit);
        EXPECT_EQ(p1, a + 128);
        EXPECT_NE(lineNumber(p0), lineNumber(p1));
        api.free(a);
    });
}

TEST_P(ApplierTest, BulkOpsRoundTripThroughRedirection)
{
    PlanApplier applier(*machine, splitPlan("blob", 200, 100));

    RunOutcome out = runAs([&](ThreadApi &api) {
        Addr a = api.mallocAt("blob", 200);
        std::vector<std::uint8_t> in(200);
        for (std::size_t i = 0; i < in.size(); ++i)
            in[i] = static_cast<std::uint8_t>(i * 7 + 3);
        api.writeBuf(a, in.data(), in.size());
        std::vector<std::uint8_t> back(200);
        api.readBuf(a, back.data(), back.size());
        EXPECT_EQ(in, back);
        api.free(a);
    });
    EXPECT_EQ(out, RunOutcome::Completed);
}

TEST_P(ApplierTest, FreeRemovesSegments)
{
    PlanApplier applier(*machine, splitPlan("blob", 200, 100));

    runAs([&](ThreadApi &api) {
        Addr a = api.mallocAt("blob", 200);
        EXPECT_FALSE(machine->staticLayout().empty());
        api.free(a);
        EXPECT_TRUE(machine->staticLayout().empty());
    });
}

TEST_P(ApplierTest, NonMatchingSizeDeclines)
{
    PlanApplier applier(*machine, splitPlan("blob", 200, 100));

    runAs([&](ThreadApi &api) {
        // Same site, different size: the plan is stale for this
        // allocation and must leave it alone.
        Addr a = api.mallocAt("blob", 300);
        EXPECT_TRUE(machine->staticLayout().empty());
        api.store(pc_store, a, 42);
        EXPECT_EQ(api.load(pc_load, a), 42u);
        api.free(a);
    });
    EXPECT_EQ(applier.appliedSites(), 0u);
}

TEST_P(ApplierTest, SpreadSeparatesArrayElements)
{
    LayoutPlan plan;
    PlanSite site;
    site.key = "pool";
    site.bytes = 172;
    site.kind = RepairKind::Spread;
    site.arrayBase = 8;
    site.arrayStride = 4;
    site.arrayCount = 41;
    plan.sites.push_back(site);
    PlanApplier applier(*machine, plan);

    runAs([&](ThreadApi &api) {
        Addr a = api.mallocAt("pool", 172);
        bool hit = false;
        Addr e0 = machine->staticLayout().redirect(a + 8, hit);
        Addr e1 = machine->staticLayout().redirect(a + 12, hit);
        // Adjacent 4-byte elements land one line apart.
        EXPECT_EQ(e1 - e0, static_cast<Addr>(lineBytes));
        EXPECT_NE(lineNumber(e0), lineNumber(e1));
        api.free(a);
    });
}

INSTANTIATE_TEST_SUITE_P(BothAllocators, ApplierTest,
                         ::testing::Values(AllocatorKind::Lockless,
                                           AllocatorKind::GlibcLike),
                         [](const auto &info) {
                             return info.param ==
                                            AllocatorKind::Lockless
                                        ? "lockless"
                                        : "glibc_like";
                         });

} // namespace tmi::staticrepair
