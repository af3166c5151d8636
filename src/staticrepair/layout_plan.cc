#include "layout_plan.hh"

#include <cstdio>
#include <sstream>

#include "common/parse_number.hh"

namespace tmi::staticrepair
{

const char *
repairKindName(RepairKind kind)
{
    switch (kind) {
      case RepairKind::Pad:
        return "pad";
      case RepairKind::Split:
        return "split";
      case RepairKind::Spread:
        return "spread";
    }
    return "?";
}

const PlanSite *
LayoutPlan::find(const std::string &key, std::uint64_t bytes) const
{
    for (const PlanSite &site : sites) {
        if (site.key == key && site.bytes == bytes)
            return &site;
    }
    return nullptr;
}

std::string
writePlan(const LayoutPlan &plan)
{
    std::ostringstream out;
    out << "tmi-layout-plan v1\n";
    for (const PlanSite &site : plan.sites) {
        out << "site " << site.key << " bytes " << site.bytes << ' '
            << repairKindName(site.kind);
        switch (site.kind) {
          case RepairKind::Pad:
            break;
          case RepairKind::Split:
            for (std::uint64_t cut : site.cuts)
                out << ' ' << cut;
            break;
          case RepairKind::Spread:
            out << ' ' << site.arrayBase << ' ' << site.arrayStride
                << ' ' << site.arrayCount;
            break;
        }
        out << '\n';
    }
    out << "end\n";
    return out.str();
}

bool
parsePlan(const std::string &text, LayoutPlan &out, std::string &err)
{
    out = LayoutPlan{};
    std::istringstream in(text);
    std::string line;
    bool sawHeader = false;
    bool sawEnd = false;
    unsigned lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream toks(line);
        std::string tok;
        toks >> tok;
        if (!sawHeader) {
            std::string version;
            toks >> version;
            if (tok != "tmi-layout-plan" || version != "v1") {
                err = "line " + std::to_string(lineno) +
                      ": expected 'tmi-layout-plan v1' header";
                return false;
            }
            sawHeader = true;
            continue;
        }
        if (sawEnd) {
            err = "line " + std::to_string(lineno) +
                  ": content after 'end'";
            return false;
        }
        if (tok == "end") {
            sawEnd = true;
            continue;
        }
        if (tok != "site") {
            err = "line " + std::to_string(lineno) +
                  ": expected 'site' or 'end', got '" + tok + "'";
            return false;
        }
        PlanSite site;
        std::string byteskw, bytestok, kind;
        toks >> site.key >> byteskw >> bytestok >> kind;
        if (site.key.empty() || byteskw != "bytes" ||
            !parseNumber(bytestok, site.bytes) || site.bytes == 0) {
            err = "line " + std::to_string(lineno) +
                  ": expected 'site <key> bytes <n> <kind> ...'";
            return false;
        }
        std::vector<std::uint64_t> nums;
        while (toks >> tok) {
            std::uint64_t v = 0;
            if (!parseNumber(tok, v)) {
                err = "line " + std::to_string(lineno) +
                      ": bad number '" + tok + "'";
                return false;
            }
            nums.push_back(v);
        }
        if (kind == "pad") {
            site.kind = RepairKind::Pad;
            if (!nums.empty()) {
                err = "line " + std::to_string(lineno) +
                      ": pad takes no arguments";
                return false;
            }
        } else if (kind == "split") {
            site.kind = RepairKind::Split;
            if (nums.empty()) {
                err = "line " + std::to_string(lineno) +
                      ": split needs at least one cut";
                return false;
            }
            std::uint64_t prev = 0;
            for (std::uint64_t cut : nums) {
                if (cut <= prev || cut >= site.bytes) {
                    err = "line " + std::to_string(lineno) +
                          ": cuts must be strictly increasing in "
                          "(0, bytes)";
                    return false;
                }
                prev = cut;
            }
            site.cuts = std::move(nums);
        } else if (kind == "spread") {
            site.kind = RepairKind::Spread;
            if (nums.size() != 3) {
                err = "line " + std::to_string(lineno) +
                      ": spread needs <base> <stride> <count>";
                return false;
            }
            site.arrayBase = nums[0];
            site.arrayStride = nums[1];
            site.arrayCount = nums[2];
            // base + stride * count <= bytes, without overflowing.
            if (site.arrayStride == 0 || site.arrayCount == 0 ||
                site.arrayBase > site.bytes ||
                site.arrayCount >
                    (site.bytes - site.arrayBase) / site.arrayStride) {
                err = "line " + std::to_string(lineno) +
                      ": spread geometry exceeds the allocation";
                return false;
            }
        } else {
            err = "line " + std::to_string(lineno) +
                  ": unknown directive '" + kind + "'";
            return false;
        }
        out.sites.push_back(std::move(site));
    }
    if (!sawHeader) {
        err = "empty plan: missing header";
        return false;
    }
    if (!sawEnd) {
        err = "truncated plan: missing 'end'";
        return false;
    }
    return true;
}

LoweredSite
lowerSite(const PlanSite &site)
{
    LoweredSite low;
    low.alignment = lineBytes;
    switch (site.kind) {
      case RepairKind::Pad:
        low.newBytes = roundUp(site.bytes, lineBytes);
        break;
      case RepairKind::Split: {
        // Parts [0,c1), [c1,c2), ..., [ck, bytes). The first part
        // keeps offset 0 (the base is line-aligned); every later
        // part starts on the next fresh line.
        std::uint64_t begin = 0;
        std::uint64_t newOff = 0;
        std::uint64_t newEnd = 0;
        std::size_t part = 0;
        for (std::size_t i = 0; i <= site.cuts.size(); ++i, ++part) {
            std::uint64_t end =
                i < site.cuts.size() ? site.cuts[i] : site.bytes;
            if (part > 0)
                newOff = roundUp(newEnd, lineBytes);
            std::int64_t shift =
                static_cast<std::int64_t>(newOff) -
                static_cast<std::int64_t>(begin);
            if (shift != 0)
                low.segments.push_back({begin, end, shift});
            newEnd = newOff + (end - begin);
            begin = end;
        }
        low.newBytes = roundUp(newEnd, lineBytes);
        break;
      }
      case RepairKind::Spread: {
        // Head [0, arrayBase) stays put; element i moves to its own
        // line (elements wider than a line keep line-rounded
        // spacing); any tail follows the last element.
        std::uint64_t spacing = roundUp(site.arrayStride, lineBytes);
        std::uint64_t newBase =
            site.arrayBase ? roundUp(site.arrayBase, lineBytes) : 0;
        for (std::uint64_t i = 0; i < site.arrayCount; ++i) {
            std::uint64_t begin =
                site.arrayBase + i * site.arrayStride;
            std::uint64_t newOff = newBase + i * spacing;
            std::int64_t shift =
                static_cast<std::int64_t>(newOff) -
                static_cast<std::int64_t>(begin);
            if (shift != 0) {
                low.segments.push_back(
                    {begin, begin + site.arrayStride, shift});
            }
        }
        std::uint64_t tailBegin =
            site.arrayBase + site.arrayCount * site.arrayStride;
        std::uint64_t tailNew = newBase + site.arrayCount * spacing;
        std::uint64_t newEnd = tailNew;
        if (site.bytes > tailBegin) {
            std::int64_t shift =
                static_cast<std::int64_t>(tailNew) -
                static_cast<std::int64_t>(tailBegin);
            if (shift != 0)
                low.segments.push_back({tailBegin, site.bytes, shift});
            newEnd = tailNew + (site.bytes - tailBegin);
        }
        low.newBytes = roundUp(newEnd, lineBytes);
        break;
      }
    }
    if (low.newBytes < site.bytes)
        low.newBytes = site.bytes;
    return low;
}

std::size_t
redirectedSiteCount(const LayoutPlan &plan)
{
    std::size_t n = 0;
    for (const PlanSite &site : plan.sites)
        n += site.kind != RepairKind::Pad;
    return n;
}

} // namespace tmi::staticrepair
