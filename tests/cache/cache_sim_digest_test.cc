/**
 * @file
 * Behaviour pin for CacheSim: seeded random access streams are folded,
 * result by result, into a digest together with the final counters,
 * and compared against digests recorded from a known-good build.
 *
 * The streams cover both protocols, a geometry that evicts on almost
 * every miss next to the default one, and interleaved line/page
 * invalidations. Any change to a latency, a hit/HITM flag, an LRU
 * choice in L1 or LLC, or a counter bump (writebacks, invalidations,
 * owned forwards, upgrades) changes the digest. Hot-path rewrites of
 * the simulator must leave every digest unchanged.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <string>

#include "cache/seeded_stream.hh"

namespace tmi
{

struct DigestCase
{
    const char *name;
    Protocol protocol;
    bool small;        //!< tiny caches that evict constantly
    bool invalidate;   //!< interleave invalidateLine/invalidatePage
    std::uint64_t expected;
};

/** Name the case in gtest output instead of dumping its bytes. */
void
PrintTo(const DigestCase &dc, std::ostream *os)
{
    *os << dc.name;
}

namespace
{

class Fnv
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            _h ^= (v >> (8 * i)) & 0xff;
            _h *= 0x100000001b3ULL;
        }
    }
    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ULL;
};

std::uint64_t
runDigest(const DigestCase &dc, std::string &counters)
{
    SeededStream stream{dc.protocol, dc.small, dc.invalidate};
    CacheSim cache(seededStreamConfig(stream));

    // A HITM observer that charges a varying extra cost, so the order
    // and count of callbacks reach the digest too.
    std::uint64_t hitm_calls = 0;
    cache.setHitmCallback([&hitm_calls](const AccessContext &ctx) {
        ++hitm_calls;
        return static_cast<Cycles>((hitm_calls + ctx.core) % 5);
    });

    Fnv fnv;
    playSeededStream(stream, cache, [&fnv](const AccessResult &r) {
        fnv.add(r.latency);
        fnv.add((r.l1Hit ? 1u : 0u) | (r.hitm ? 2u : 0u));
    });
    EXPECT_TRUE(cache.auditCoherence());

    stats::StatGroup group("cache");
    cache.regStats(group);
    unsigned n = 0;
    group.visitScalars([&](const std::string &path, double value,
                           const std::string &) {
        auto v = static_cast<std::uint64_t>(value);
        fnv.add(v);
        counters += path + "=" + std::to_string(v) + " ";
        ++n;
    });
    EXPECT_EQ(n, 10u);
    fnv.add(hitm_calls);
    return fnv.value();
}

} // namespace

class CacheSimDigest : public ::testing::TestWithParam<DigestCase>
{
};

TEST_P(CacheSimDigest, MatchesRecordedBehaviour)
{
    const DigestCase &dc = GetParam();
    std::string counters;
    std::uint64_t digest = runDigest(dc, counters);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, dc.expected)
        << dc.name << " digest " << hex << "; counters: " << counters;
}

INSTANTIATE_TEST_SUITE_P(
    Streams, CacheSimDigest,
    ::testing::Values(
        DigestCase{"MesiSmall", Protocol::Mesi, true, false,
                   0x899869fa1ebe6673ULL},
        DigestCase{"MesiSmallInval", Protocol::Mesi, true, true,
                   0xd4d95df7d18939d3ULL},
        DigestCase{"MesiDefault", Protocol::Mesi, false, false,
                   0x3163496ee4b13317ULL},
        DigestCase{"MesiDefaultInval", Protocol::Mesi, false, true,
                   0x3c7473c3b4668f63ULL},
        DigestCase{"MoesiSmall", Protocol::Moesi, true, false,
                   0x0e21e31924246519ULL},
        DigestCase{"MoesiSmallInval", Protocol::Moesi, true, true,
                   0x4f0b94303cf41344ULL},
        DigestCase{"MoesiDefault", Protocol::Moesi, false, false,
                   0x9508a5d271b07ff5ULL},
        DigestCase{"MoesiDefaultInval", Protocol::Moesi, false, true,
                   0xc04601207b480614ULL}),
    [](const ::testing::TestParamInfo<DigestCase> &info) {
        return std::string(info.param.name);
    });

} // namespace tmi
