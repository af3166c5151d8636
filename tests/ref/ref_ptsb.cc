#include "ref/ref_ptsb.hh"

#include <cstring>

namespace tmi
{

void
RefPtsb::mergePage(const std::uint8_t *priv, const std::uint8_t *snap,
                   std::uint8_t *shared, Addr page_bytes,
                   PPage shared_frame, const PtsbCosts &costs,
                   CommitResult &res, std::vector<Addr> &merged_lines)
{
    const bool huge = page_bytes > smallPageBytes;
    const std::size_t chunk = smallPageBytes;

    Addr changed_line = ~Addr{0};
    for (std::size_t base = 0; base < page_bytes; base += chunk) {
        if (huge) {
            res.cost += costs.memcmpPer4k;
            if (std::memcmp(priv + base, snap + base, chunk) == 0)
                continue;
        }
        res.cost += costs.diffPer4k;
        for (std::size_t i = 0; i < chunk; ++i) {
            std::size_t off = base + i;
            if (priv[off] == snap[off])
                continue;
            if (shared[off] != snap[off])
                ++res.conflictBytes;
            shared[off] = priv[off];
            ++res.bytesChanged;
            Addr line = (shared_frame * page_bytes + off) >> lineShift;
            if (line != changed_line) {
                changed_line = line;
                ++res.linesMerged;
                res.cost += costs.mergePerLine;
                merged_lines.push_back(line << lineShift);
            }
        }
    }
}

} // namespace tmi
