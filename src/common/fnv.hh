/**
 * @file
 * Incremental 64-bit FNV-1a for host-side identity hashes (journal
 * schemas, campaign fingerprints). No simulated path uses it.
 */

#ifndef TMI_COMMON_FNV_HH
#define TMI_COMMON_FNV_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "common/logging.hh"

namespace tmi
{

struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ULL; //!< offset basis

    Fnv1a &
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i, v >>= 8)
            h = (h ^ (v & 0xff)) * 0x100000001b3ULL;
        return *this;
    }

    /** Length-prefixed, so ("ab","c") and ("a","bc") differ. */
    Fnv1a &
    str(std::string_view s)
    {
        u64(s.size());
        for (unsigned char c : s)
            h = (h ^ c) * 0x100000001b3ULL;
        return *this;
    }
};

/** A 64-bit hash as 16 lower-case hex digits. */
inline std::string
hashHex(std::uint64_t h)
{
    return strprintf("%016llx", static_cast<unsigned long long>(h));
}

} // namespace tmi

#endif // TMI_COMMON_FNV_HH
