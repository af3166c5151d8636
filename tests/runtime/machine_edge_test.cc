/**
 * @file
 * Edge-case tests for the Machine facade: access widths, condvars,
 * barriers under load, bulk ops spanning pages, sbrk growth, and the
 * sync-object traffic model.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"

namespace tmi
{

namespace
{

struct EdgeFixture : public ::testing::Test
{
    EdgeFixture() : machine(MachineConfig{}) {}

    RunOutcome
    runAs(std::function<void(ThreadApi &)> fn)
    {
        machine.spawnThread("test", std::move(fn));
        return machine.sched().run(20'000'000'000ULL);
    }

    Addr
    defineLoad(unsigned width)
    {
        return machine.instructions().define(
            "edge.load" + std::to_string(width), MemKind::Load, width);
    }

    Addr
    defineStore(unsigned width)
    {
        return machine.instructions().define(
            "edge.store" + std::to_string(width), MemKind::Store,
            width);
    }

    Machine machine;
};

} // namespace

TEST_F(EdgeFixture, AllAccessWidthsRoundTrip)
{
    runAs([&](ThreadApi &api) {
        Addr a = api.memalign(lineBytes, 64);
        for (unsigned width : {1u, 2u, 4u, 8u}) {
            Addr pc_st = defineStore(width);
            Addr pc_ld = defineLoad(width);
            std::uint64_t pattern = 0x1122334455667788ULL;
            std::uint64_t mask =
                width == 8 ? ~0ULL : ((1ULL << (8 * width)) - 1);
            api.store(pc_st, a, pattern & mask);
            EXPECT_EQ(api.load(pc_ld, a), pattern & mask)
                << "width " << width;
        }
    });
}

TEST_F(EdgeFixture, NarrowStoresDoNotClobberNeighbours)
{
    runAs([&](ThreadApi &api) {
        Addr a = api.memalign(lineBytes, 16);
        Addr pc_st8 = defineStore(8);
        Addr pc_st1 = defineStore(1);
        Addr pc_ld8 = defineLoad(8);
        api.store(pc_st8, a, 0xAAAAAAAAAAAAAAAAULL);
        api.store(pc_st1, a + 3, 0xBB);
        EXPECT_EQ(api.load(pc_ld8, a), 0xAAAAAAAABBAAAAAAULL);
    });
}

TEST_F(EdgeFixture, MismatchedKindAsserts)
{
    EXPECT_DEATH(
        {
            Addr pc_ld = defineLoad(8);
            machine.spawnThread("bad", [&, pc_ld](ThreadApi &api) {
                Addr a = api.malloc(8);
                api.store(pc_ld, a, 1); // store through a load PC
            });
            machine.sched().run(1'000'000'000ULL);
        },
        "assertion");
}

TEST(MachineConfigCheck, ThirtyThreeCoresIsAConfigErrorNotAnAbort)
{
    // Validation runs before any member is built, so the cache
    // simulator's 32-core limit surfaces as a named config error.
    MachineConfig mc;
    mc.cores = 33;
    EXPECT_EXIT(Machine{mc}, ::testing::ExitedWithCode(1),
                "MachineConfig.cores");
}

TEST(MachineConfigCheck, NonPowerOfTwoCacheSetsIsAConfigError)
{
    MachineConfig mc;
    mc.cache.l1Sets = 96;
    EXPECT_EXIT(Machine{mc}, ::testing::ExitedWithCode(1),
                "MachineConfig.cache.l1Sets");
}

TEST_F(EdgeFixture, ProducerConsumerViaCondvar)
{
    Addr pc_st = defineStore(8);
    Addr pc_ld = defineLoad(8);
    machine.spawnThread("main", [&](ThreadApi &api) {
        Addr queue = api.memalign(lineBytes, 8);
        api.fill(queue, 0, 8);
        Addr lock = api.memalign(lineBytes, lineBytes);
        Addr cond = api.memalign(lineBytes, lineBytes);
        api.mutexInit(lock);
        api.condInit(cond);

        std::uint64_t consumed = 0;
        ThreadId consumer =
            api.spawn("consumer", [&](ThreadApi &c) {
                for (int i = 0; i < 50; ++i) {
                    c.mutexLock(lock);
                    while (c.load(pc_ld, queue) == 0)
                        c.condWait(cond, lock);
                    consumed += c.load(pc_ld, queue);
                    c.store(pc_st, queue, 0);
                    c.mutexUnlock(lock);
                }
            });
        ThreadId producer =
            api.spawn("producer", [&](ThreadApi &p) {
                for (int i = 1; i <= 50; ++i) {
                    p.mutexLock(lock);
                    p.store(pc_st, queue, static_cast<std::uint64_t>(i));
                    p.condSignal(cond);
                    p.mutexUnlock(lock);
                    p.compute(500);
                }
            });
        api.join(producer);
        api.join(consumer);
        EXPECT_EQ(consumed, 50u * 51 / 2);
    });
    EXPECT_EQ(machine.sched().run(20'000'000'000ULL),
              RunOutcome::Completed);
}

TEST_F(EdgeFixture, BarrierPhasesStayAligned)
{
    Addr pc_st = defineStore(8);
    Addr pc_ld = defineLoad(8);
    machine.spawnThread("main", [&](ThreadApi &api) {
        constexpr int threads = 4, rounds = 20;
        Addr bar = api.malloc(lineBytes);
        api.barrierInit(bar, threads);
        // One slot per thread; in each round every thread checks the
        // others' slots hold the *same round number* before writing
        // the next -- any barrier misalignment breaks it.
        Addr slots = api.memalign(lineBytes, lineBytes * threads);
        api.fill(slots, 0, lineBytes * threads);
        bool ok = true;

        std::vector<ThreadId> ws;
        for (int t = 0; t < threads; ++t) {
            ws.push_back(api.spawn("w", [&, t](ThreadApi &w) {
                for (int r = 1; r <= rounds; ++r) {
                    w.store(pc_st, slots + t * lineBytes,
                            static_cast<std::uint64_t>(r));
                    w.barrierWait(bar);
                    for (int o = 0; o < threads; ++o) {
                        if (w.load(pc_ld, slots + o * lineBytes) !=
                            static_cast<std::uint64_t>(r)) {
                            ok = false;
                        }
                    }
                    w.barrierWait(bar);
                }
            }));
        }
        for (ThreadId t : ws)
            api.join(t);
        EXPECT_TRUE(ok);
    });
    EXPECT_EQ(machine.sched().run(20'000'000'000ULL),
              RunOutcome::Completed);
}

TEST_F(EdgeFixture, SbrkGrowsHeapContiguously)
{
    Addr first = machine.sbrk(100);
    Addr second = machine.sbrk(smallPageBytes * 3);
    EXPECT_EQ(first, Machine::heapBase);
    EXPECT_EQ(second, first + smallPageBytes); // 100 B rounded up
    EXPECT_EQ(machine.heapRegion().pages(), 4u);
}

TEST_F(EdgeFixture, BulkFillThenReadBack)
{
    runAs([&](ThreadApi &api) {
        Addr a = api.malloc(3 * smallPageBytes);
        api.fill(a, 0x5a, 3 * smallPageBytes);
        std::vector<std::uint8_t> buf(3 * smallPageBytes);
        api.readBuf(a, buf.data(), buf.size());
        for (std::uint8_t b : buf)
            ASSERT_EQ(b, 0x5a);
    });
}

TEST_F(EdgeFixture, TryLockPathsExerciseTraffic)
{
    machine.spawnThread("main", [&](ThreadApi &api) {
        Addr lock = api.memalign(lineBytes, lineBytes);
        api.mutexInit(lock);
        EXPECT_TRUE(api.mutexTryLock(lock));
        ThreadId w = api.spawn("prober", [&](ThreadApi &p) {
            EXPECT_FALSE(p.mutexTryLock(lock));
        });
        api.join(w);
        api.mutexUnlock(lock);
        EXPECT_TRUE(api.mutexTryLock(lock));
        api.mutexUnlock(lock);
    });
    EXPECT_EQ(machine.sched().run(5'000'000'000ULL),
              RunOutcome::Completed);
}

TEST_F(EdgeFixture, AtomicWidthsFromPc)
{
    runAs([&](ThreadApi &api) {
        Addr a = api.memalign(lineBytes, 8);
        Addr pc4 = defineStore(4);
        api.fill(a, 0, 8);
        api.fetchAdd(pc4, a, 0xFFFFFFFFULL, MemOrder::SeqCst);
        // 4-byte RMW: the high half of the word stays untouched.
        Addr pc_ld8 = defineLoad(8);
        EXPECT_EQ(api.load(pc_ld8, a), 0x00000000FFFFFFFFULL);
    });
}

TEST_F(EdgeFixture, ComputeOnlyThreadsFinishInOrder)
{
    // Threads with different compute loads finish at their own
    // simulated times; the makespan equals the longest.
    machine.spawnThread("main", [&](ThreadApi &api) {
        ThreadId slow = api.spawn(
            "slow", [](ThreadApi &t) { t.compute(1'000'000); });
        ThreadId fast = api.spawn(
            "fast", [](ThreadApi &t) { t.compute(10'000); });
        api.join(slow);
        api.join(fast);
    });
    EXPECT_EQ(machine.sched().run(20'000'000'000ULL),
              RunOutcome::Completed);
    EXPECT_GE(machine.elapsed(), 1'000'000u);
    EXPECT_LT(machine.elapsed(), 1'200'000u);
}

} // namespace tmi
