/**
 * @file
 * Unit tests for the layout-plan text format and lowering: plans
 * round-trip byte-for-byte (parse(write(p)) == p), malformed text is
 * rejected with a located error, and lowering produces the segment
 * tables the replay machine installs.
 */

#include <gtest/gtest.h>

#include "common/mutation_fuzz.hh"
#include "staticrepair/layout_plan.hh"

namespace tmi::staticrepair
{

namespace
{

LayoutPlan
samplePlan()
{
    LayoutPlan plan;
    PlanSite pad;
    pad.key = "a0";
    pad.bytes = 100;
    pad.kind = RepairKind::Pad;
    plan.sites.push_back(pad);

    PlanSite split;
    split.key = "counts#2";
    split.bytes = 12296;
    split.kind = RepairKind::Split;
    split.cuts = {3080, 6152, 9224};
    plan.sites.push_back(split);

    PlanSite spread;
    spread.key = "spinlock.pool";
    spread.bytes = 172;
    spread.kind = RepairKind::Spread;
    spread.arrayBase = 8;
    spread.arrayStride = 4;
    spread.arrayCount = 41;
    plan.sites.push_back(spread);
    return plan;
}

} // namespace

TEST(LayoutPlanText, RoundTripIsIdentity)
{
    LayoutPlan plan = samplePlan();
    std::string text = writePlan(plan);

    LayoutPlan back;
    std::string err;
    ASSERT_TRUE(parsePlan(text, back, err)) << err;
    EXPECT_EQ(plan, back);
    // And the text itself is a fixed point.
    EXPECT_EQ(writePlan(back), text);
}

TEST(LayoutPlanText, EmptyPlanRoundTrips)
{
    LayoutPlan plan;
    LayoutPlan back;
    std::string err;
    ASSERT_TRUE(parsePlan(writePlan(plan), back, err)) << err;
    EXPECT_EQ(plan, back);
}

TEST(LayoutPlanText, CommentsAndBlankLinesIgnored)
{
    std::string text = "# a golden plan\n"
                       "tmi-layout-plan v1\n"
                       "\n"
                       "# the hot site\n"
                       "site a0 bytes 100 pad\n"
                       "end\n";
    LayoutPlan plan;
    std::string err;
    ASSERT_TRUE(parsePlan(text, plan, err)) << err;
    ASSERT_EQ(plan.sites.size(), 1u);
    EXPECT_EQ(plan.sites[0].key, "a0");
    EXPECT_EQ(plan.sites[0].kind, RepairKind::Pad);
}

TEST(LayoutPlanText, RejectsMalformedInput)
{
    LayoutPlan plan;
    std::string err;
    // No header.
    EXPECT_FALSE(parsePlan("site a0 bytes 8 pad\nend\n", plan, err));
    // Wrong version.
    EXPECT_FALSE(parsePlan("tmi-layout-plan v9\nend\n", plan, err));
    // Missing end terminator.
    EXPECT_FALSE(parsePlan("tmi-layout-plan v1\n", plan, err));
    // Unknown directive.
    EXPECT_FALSE(parsePlan(
        "tmi-layout-plan v1\nsite a0 bytes 8 shuffle\nend\n", plan,
        err));
    // Cuts must be strictly increasing and interior.
    EXPECT_FALSE(parsePlan(
        "tmi-layout-plan v1\nsite a0 bytes 64 split 32 32\nend\n",
        plan, err));
    EXPECT_FALSE(parsePlan(
        "tmi-layout-plan v1\nsite a0 bytes 64 split 64\nend\n", plan,
        err));
    EXPECT_FALSE(parsePlan(
        "tmi-layout-plan v1\nsite a0 bytes 64 split 0\nend\n", plan,
        err));
    // Spread geometry must fit the allocation.
    EXPECT_FALSE(parsePlan(
        "tmi-layout-plan v1\nsite a0 bytes 64 spread 0 8 9\nend\n",
        plan, err));
    // Trailing garbage after a well-formed line.
    EXPECT_FALSE(parsePlan(
        "tmi-layout-plan v1\nsite a0 bytes 8 pad extra\nend\n", plan,
        err));
    EXPECT_FALSE(err.empty());
}

TEST(LayoutPlanLowering, PadAlignsAndRounds)
{
    PlanSite site;
    site.key = "a0";
    site.bytes = 100;
    site.kind = RepairKind::Pad;
    LoweredSite low = lowerSite(site);
    EXPECT_TRUE(low.segments.empty());
    EXPECT_EQ(low.newBytes, 128u);
    EXPECT_EQ(low.alignment, lineBytes);
}

TEST(LayoutPlanLowering, SplitShiftsLaterParts)
{
    PlanSite site;
    site.key = "a0";
    site.bytes = 200;
    site.kind = RepairKind::Split;
    site.cuts = {100};
    LoweredSite low = lowerSite(site);
    // Part 0 keeps offset 0 (no segment); part 1 moves from 100 to
    // the next line boundary, 128.
    ASSERT_EQ(low.segments.size(), 1u);
    EXPECT_EQ(low.segments[0].begin, 100u);
    EXPECT_EQ(low.segments[0].end, 200u);
    EXPECT_EQ(low.segments[0].shift, 28);
    EXPECT_EQ(low.newBytes, 256u);
}

TEST(LayoutPlanLowering, SpreadPlacesOneElementPerLine)
{
    PlanSite site;
    site.key = "pool";
    site.bytes = 172;
    site.kind = RepairKind::Spread;
    site.arrayBase = 8;
    site.arrayStride = 4;
    site.arrayCount = 41;
    LoweredSite low = lowerSite(site);
    ASSERT_EQ(low.segments.size(), 41u);
    // Element i: [8 + 4i, 12 + 4i) -> 64 + 64i.
    for (std::uint64_t i = 0; i < 41; ++i) {
        EXPECT_EQ(low.segments[i].begin, 8 + 4 * i);
        EXPECT_EQ(low.segments[i].end, 12 + 4 * i);
        EXPECT_EQ(static_cast<std::uint64_t>(
                      low.segments[i].begin + low.segments[i].shift),
                  64 + 64 * i);
    }
    EXPECT_GE(low.newBytes, 64 + 41 * 64u);
}

TEST(LayoutPlanLowering, RedirectedSiteCountSkipsPads)
{
    LayoutPlan plan = samplePlan();
    // Pad installs no segments; split and spread do.
    EXPECT_EQ(redirectedSiteCount(plan), 2u);
}

/**
 * Mutation fuzz of the plan decoder: every mutant is rejected, or
 * decodes to a plan p with parse(write(p)) == p. Numbers that do not
 * fit 64 bits, and spread geometry whose end overflows, are rejected
 * instead of wrapping.
 */
TEST(LayoutPlanText, MutationFuzzRoundTripsOrRejects)
{
    test::Mutator mutator({writePlan(samplePlan()),
                           "# profile of histogramfs\n"
                           "tmi-layout-plan v1\n"
                           "site counts#0 bytes 4096 split 64 128\n"
                           "site pool bytes 640 spread 0 64 10\n"
                           "end\n"},
                          0x91a05eedull, test::Mutator::kTextOps);
    unsigned accepted = 0, rejected = 0;
    for (unsigned i = 0; i < 6000; ++i) {
        std::string m = mutator.mutate(i);
        LayoutPlan plan, back;
        std::string err;
        if (!parsePlan(m, plan, err)) {
            ++rejected;
            continue;
        }
        ++accepted;
        ASSERT_TRUE(parsePlan(writePlan(plan), back, err))
            << "mutant " << i << ": " << err;
        ASSERT_EQ(back, plan) << "mutant " << i << ":\n" << m;
    }
    // Both paths must actually be exercised.
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 1000u);

    LayoutPlan plan;
    std::string err;
    EXPECT_FALSE(parsePlan("tmi-layout-plan v1\n"
                           "site a bytes 18446744073709551616 pad\n"
                           "end\n",
                           plan, err));
    // 4 * 2^62 wraps to 0 in 64 bits.
    EXPECT_FALSE(parsePlan("tmi-layout-plan v1\n"
                           "site a bytes 100 spread 8 "
                           "4611686018427387904 4\nend\n",
                           plan, err));
}

} // namespace tmi::staticrepair
