/**
 * @file
 * CacheSim against its reference model, in lockstep: every access goes
 * to both, and every AccessResult and every counter must agree after
 * every access. Two kinds of stream: the seeded synthetic streams of
 * the digest pin (both protocols, tiny and default geometry,
 * interleaved line/page invalidations), and a real access stream
 * captured from ocean-cp under pthreads at seed 42.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cache/seeded_stream.hh"
#include "core/machine.hh"
#include "ref/ref_cache_sim.hh"
#include "workloads/workload.hh"

namespace tmi
{

void
PrintTo(const SeededStream &s, std::ostream *os)
{
    *os << (s.protocol == Protocol::Moesi ? "Moesi" : "Mesi")
        << (s.small ? "Small" : "Default")
        << (s.invalidate ? "Inval" : "");
}

namespace
{

/** A HITM observer whose extra cost depends on its call count, so a
 *  missing or extra callback shows up in the latencies. */
HitmCallback
countingHitmCost()
{
    auto calls = std::make_shared<std::uint64_t>(0);
    return [calls](const AccessContext &ctx) {
        return static_cast<Cycles>((++*calls + ctx.core) % 5);
    };
}

std::vector<std::pair<std::string, double>>
counters(const stats::StatGroup &group)
{
    std::vector<std::pair<std::string, double>> out;
    group.visitScalars([&out](const std::string &path, double value,
                              const std::string &) {
        out.emplace_back(path, value);
    });
    return out;
}

/** CacheSim and RefCacheSim fed the same calls. The first divergence
 *  is recorded; later accesses are still applied to both. */
class Lockstep
{
  public:
    explicit Lockstep(const CacheConfig &cfg) : _fast(cfg), _ref(cfg)
    {
        _fast.setHitmCallback(countingHitmCost());
        _ref.setHitmCallback(countingHitmCost());
        _fast.regStats(_fastStats);
        _ref.regStats(_refStats);
    }

    AccessResult
    access(const AccessContext &ctx)
    {
        AccessResult a = _fast.access(ctx);
        AccessResult b = _ref.access(ctx);
        ++_accesses;
        if (!_divergence.empty())
            return a;
        std::ostringstream why;
        if (a.latency != b.latency || a.l1Hit != b.l1Hit ||
            a.hitm != b.hitm) {
            why << "result: CacheSim {" << a.latency << ", " << a.l1Hit
                << ", " << a.hitm << "} vs ref {" << b.latency << ", "
                << b.l1Hit << ", " << b.hitm << "}";
        } else if (counters(_fastStats) != counters(_refStats)) {
            why << "counters:";
            for (const auto &[name, v] : counters(_fastStats))
                why << " " << name << "=" << v;
            why << " vs ref:";
            for (const auto &[name, v] : counters(_refStats))
                why << " " << name << "=" << v;
        } else if (_accesses % 4096 == 0 && !_fast.auditCoherence()) {
            why << "CacheSim broke SWMR";
        }
        if (!why.str().empty()) {
            why << " at access " << _accesses << " (core " << ctx.core
                << ", paddr 0x" << std::hex << ctx.paddr << std::dec
                << (ctx.isWrite ? ", write)" : ", read)");
            _divergence = why.str();
        }
        return a;
    }

    void
    invalidateLine(Addr paddr)
    {
        _fast.invalidateLine(paddr);
        _ref.invalidateLine(paddr);
    }

    void
    invalidatePage(PPage frame, unsigned page_shift)
    {
        _fast.invalidatePage(frame, page_shift);
        _ref.invalidatePage(frame, page_shift);
    }

    /** Empty while the two agree; else the first difference. */
    const std::string &divergence() const { return _divergence; }
    bool auditCoherence() const { return _fast.auditCoherence(); }

  private:
    CacheSim _fast;
    RefCacheSim _ref;
    stats::StatGroup _fastStats{"cache"};
    stats::StatGroup _refStats{"cache"};
    std::uint64_t _accesses = 0;
    std::string _divergence;
};

class RefCacheSimSeeded : public ::testing::TestWithParam<SeededStream>
{
};

TEST_P(RefCacheSimSeeded, AgreesOnEveryAccess)
{
    Lockstep sims(seededStreamConfig(GetParam()));
    playSeededStream(GetParam(), sims, [](const AccessResult &) {});
    EXPECT_EQ(sims.divergence(), "");
    EXPECT_TRUE(sims.auditCoherence());
}

INSTANTIATE_TEST_SUITE_P(
    Streams, RefCacheSimSeeded,
    ::testing::Values(SeededStream{Protocol::Mesi, true, false},
                      SeededStream{Protocol::Mesi, true, true},
                      SeededStream{Protocol::Mesi, false, false},
                      SeededStream{Protocol::Mesi, false, true},
                      SeededStream{Protocol::Moesi, true, false},
                      SeededStream{Protocol::Moesi, true, true},
                      SeededStream{Protocol::Moesi, false, false},
                      SeededStream{Protocol::Moesi, false, true}),
    [](const ::testing::TestParamInfo<SeededStream> &info) {
        std::ostringstream os;
        PrintTo(info.param, &os);
        return os.str();
    });

TEST(RefCacheSimReal, AgreesOnOceanCpStream)
{
    // ocean-cp under plain pthreads at seed 42, every access reported
    // to the sampler at zero simulated cost.
    constexpr std::size_t want = 200'000;
    MachineConfig mc;
    mc.cores = 4;
    mc.seed = 42;
    mc.instrumentationSampling = 1;
    mc.instrumentationCost = 0;
    Machine machine(mc);
    WorkloadParams params;
    params.threads = 4;
    params.scale = 2;
    params.seed = 42;
    const WorkloadInfo &info = findWorkload("ocean-cp");
    std::unique_ptr<Workload> wl = info.make(params);
    wl->init(machine);

    std::vector<AccessContext> stream;
    stream.reserve(want);
    machine.setAccessSampler([&stream](const AccessContext &ctx) {
        if (stream.size() < want)
            stream.push_back(ctx);
    });
    machine.spawnThread("ocean-cp-main",
                        [&wl](ThreadApi &api) { wl->main(api); });
    ASSERT_EQ(machine.sched().run(60'000'000'000ULL),
              RunOutcome::Completed);
    ASSERT_TRUE(wl->validate(machine));
    ASSERT_EQ(stream.size(), want) << "the run is too short";

    Lockstep sims(machine.cache().config());
    std::uint64_t l1_hits = 0;
    for (const AccessContext &ctx : stream)
        l1_hits += sims.access(ctx).l1Hit;
    EXPECT_EQ(sims.divergence(), "");
    EXPECT_TRUE(sims.auditCoherence());
    // A real stream exercises both hits and misses.
    EXPECT_GT(l1_hits, want / 10);
    EXPECT_LT(l1_hits, want - want / 10);
}

} // namespace
} // namespace tmi
