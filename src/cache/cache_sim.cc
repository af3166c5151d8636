#include "cache_sim.hh"

#include <algorithm>
#include <unordered_map>

namespace tmi
{

void
validateConfig(const CacheConfig &config,
               std::vector<ConfigError> &errors,
               const std::string &prefix)
{
    auto power_of_two = [](unsigned n) {
        return n != 0 && (n & (n - 1)) == 0;
    };
    if (!power_of_two(config.l1Sets)) {
        errors.push_back({prefix + ".l1Sets",
                          "must be a non-zero power of two: the set "
                          "index is the line address's low bits"});
    }
    if (!power_of_two(config.llcSets)) {
        errors.push_back({prefix + ".llcSets",
                          "must be a non-zero power of two: the set "
                          "index is the line address's low bits"});
    }
    if (config.l1Ways == 0)
        errors.push_back({prefix + ".l1Ways", "must be >= 1"});
    if (config.llcWays == 0)
        errors.push_back({prefix + ".llcWays", "must be >= 1"});
}

void
CacheSim::TagArray::init(unsigned sets, unsigned w)
{
    setMask = sets - 1;
    ways = w;
    lines.assign(static_cast<std::size_t>(sets) * w, Line{});
}

CacheSim::Line *
CacheSim::TagArray::find(Addr line_addr)
{
    Line *base = set(line_addr);
    for (unsigned w = 0; w < ways; ++w) {
        if (base[w].tag == line_addr && base[w].state != Mesi::Invalid)
            return &base[w];
    }
    return nullptr;
}

CacheSim::Line &
CacheSim::TagArray::victim(Addr line_addr)
{
    Line *base = set(line_addr);
    Line *lru = &base[0];
    for (unsigned w = 0; w < ways; ++w) {
        if (base[w].state == Mesi::Invalid)
            return base[w];
        if (base[w].lastUse < lru->lastUse)
            lru = &base[w];
    }
    return *lru;
}

CacheSim::CacheSim(const CacheConfig &config) : _config(config)
{
    TMI_ASSERT(config.cores >= 1 && config.cores <= maxCacheCores);
    std::vector<ConfigError> errors;
    validateConfig(config, errors);
    fatalIfConfigErrors(errors);
    _l1.resize(config.cores);
    for (auto &l1 : _l1)
        l1.init(config.l1Sets, config.l1Ways);
    // One host line of slack lets the rows start on a host-line
    // boundary. (An aligned allocation would too, but glibc's memalign
    // fragments the heap when a CacheSim is built per run.)
    std::size_t row = config.llcWays;
    _llcRows.assign(config.llcSets * 2 * row + hostLineWords - 1, 0);
    std::size_t misalign =
        reinterpret_cast<std::uintptr_t>(_llcRows.data()) % hostLineBytes;
    _llcBase = (hostLineBytes - misalign) % hostLineBytes /
               sizeof(std::uint64_t);
    _llcSetMask = config.llcSets - 1;
    for (std::size_t set = 0; set < config.llcSets; ++set)
        std::fill_n(&_llcRows[_llcBase + set * 2 * row], row, llcEmpty);
}

CacheSim::Snoop
CacheSim::snoop(CoreId requester, Addr line_addr)
{
    Snoop s;
    for (CoreId c = 0; c < _config.cores; ++c) {
        Line *remote = c == requester ? nullptr : _l1[c].find(line_addr);
        if (!remote)
            continue;
        s.others |= std::uint32_t{1} << c;
        if (remote->state != Mesi::Shared)
            s.owner = remote;
        // SWMR: an M or E copy is the only copy; stop looking.
        if (remote->state == Mesi::Modified ||
            remote->state == Mesi::Exclusive)
            break;
    }
    return s;
}

void
CacheSim::evict(Line &line)
{
    if (line.state == Mesi::Modified || line.state == Mesi::Owned) {
        // Dirty data returns to the LLC.
        ++_statWritebacks;
        llcLookupFill(line.tag);
    }
    line.state = Mesi::Invalid;
}

void
CacheSim::invalidateOthers(std::uint32_t others, Addr line_addr)
{
    for (CoreId c = 0; others != 0; ++c, others >>= 1) {
        if (others & 1) {
            ++_statInvalidations;
            evict(*_l1[c].find(line_addr));
        }
    }
}

bool
CacheSim::llcLookupFill(Addr line_addr)
{
    // Ways fill in order and are never emptied, so the first empty
    // way ends the search: the line is absent and that way is free.
    std::uint64_t *tags = llcRow(line_addr);
    std::uint64_t *stamps = tags + _config.llcWays;
    unsigned w = 0;
    for (; w < _config.llcWays; ++w) {
        if (tags[w] == line_addr) {
            stamps[w] = _useClock;
            return true;
        }
        if (tags[w] == llcEmpty)
            break;
    }
    if (w == _config.llcWays) {
        // Full set: the least recently used way, the lowest on a tie.
        w = 0;
        for (unsigned i = 1; i < _config.llcWays; ++i) {
            if (stamps[i] < stamps[w])
                w = i;
        }
    }
    // LLC evictions have no side effects: data always lives in the
    // simulated physical memory, and the LLC is non-inclusive.
    tags[w] = line_addr;
    stamps[w] = _useClock;
    return false;
}

void
CacheSim::fillLine(CoreId core, Addr line_addr, Mesi state)
{
    Line &v = _l1[core].victim(line_addr);
    evict(v);
    v.tag = line_addr;
    v.state = state;
    v.lastUse = _useClock;
}

AccessResult
CacheSim::access(const AccessContext &ctx)
{
    TMI_ASSERT(ctx.core < _config.cores);
    TMI_ASSERT(lineOffset(ctx.paddr) + ctx.width <= lineBytes,
               "access spans a cache line");

    AccessResult res;
    ++_statAccesses;
    ++_useClock;

    Addr line_addr = lineNumber(ctx.paddr);
    Line *line = _l1[ctx.core].find(line_addr);

    if (line) {
        line->lastUse = _useClock;
        res.l1Hit = true;
        if (!ctx.isWrite || line->state == Mesi::Modified ||
            line->state == Mesi::Exclusive) {
            // Hit; a write to Exclusive upgrades to M silently.
            if (ctx.isWrite)
                line->state = Mesi::Modified;
            res.latency = _config.l1HitLatency;
            ++_statL1Hits;
            return res;
        }
        // S/O->M upgrade: invalidate every other sharer. A remote
        // Owned copy is dirty and is written back first.
        ++_statUpgrades;
        invalidateOthers(snoop(ctx.core, line_addr).others, line_addr);
        line->state = Mesi::Modified;
        res.latency = _config.upgradeLatency;
        return res;
    }

    // L1 miss: snoop the other private caches. A write invalidates
    // every remote copy below and takes the line Modified. The LLC
    // set's tag row is likely cold in the host cache and is read on
    // most paths below, so its load starts before the snoop.
    const std::uint64_t *tags = llcRow(line_addr);
    for (unsigned w = 0; w < _config.llcWays; w += hostLineWords)
        __builtin_prefetch(tags + w);
    Snoop s = snoop(ctx.core, line_addr);
    Mesi owner_state = s.owner ? s.owner->state : Mesi::Invalid;
    Mesi fill = ctx.isWrite ? Mesi::Modified : Mesi::Shared;

    if (owner_state == Mesi::Modified) {
        // HITM: dirty hit in a remote private cache.
        ++_statHitm;
        if (ctx.isWrite)
            ++_statHitmStores;
        res.hitm = true;
        res.latency = _config.hitmLatency;
        if (_hitmCb)
            res.latency += _hitmCb(ctx);
        // A MOESI read leaves the dirty data with the owner, now
        // Owned; otherwise it is written back first (a store's RFO
        // then writes back the invalidated copy once more).
        if (ctx.isWrite || _config.protocol == Protocol::Mesi) {
            ++_statWritebacks;
            llcLookupFill(line_addr);
        }
        if (!ctx.isWrite) {
            s.owner->state = _config.protocol == Protocol::Moesi
                                 ? Mesi::Owned
                                 : Mesi::Shared;
        }
    } else if (owner_state == Mesi::Owned) {
        // MOESI dirty forward: served from the Owned copy. The line
        // is not Modified, so Intel's HITM event does NOT fire --
        // dirty sharing is cheaper and *quieter* under MOESI.
        ++_statOwnedForwards;
        res.latency = _config.ownedForwardLatency;
    } else if (s.others != 0) {
        // Clean remote copies; a read downgrades an Exclusive one.
        res.latency = _config.cleanForwardLatency;
        if (!ctx.isWrite && s.owner)
            s.owner->state = Mesi::Shared;
    } else {
        // No private copy anywhere: LLC, then memory.
        if (llcLookupFill(line_addr)) {
            res.latency = _config.llcHitLatency;
            ++_statLlcHits;
        } else {
            res.latency = _config.dramLatency;
            ++_statDramFills;
        }
        if (!ctx.isWrite)
            fill = Mesi::Exclusive;
    }

    if (ctx.isWrite)
        invalidateOthers(s.others, line_addr);
    fillLine(ctx.core, line_addr, fill);
    return res;
}

void
CacheSim::invalidateLine(Addr paddr)
{
    Addr line_addr = lineNumber(paddr);
    for (TagArray &l1 : _l1) {
        if (Line *line = l1.find(line_addr))
            evict(*line);
    }
}

void
CacheSim::invalidatePage(PPage frame, unsigned page_shift)
{
    Addr base = frame << page_shift;
    Addr lines = (Addr{1} << page_shift) >> lineShift;
    for (Addr i = 0; i < lines; ++i)
        invalidateLine(base + (i << lineShift));
}

bool
CacheSim::auditCoherence() const
{
    // Gather every valid private-cache copy per line address.
    std::unordered_map<Addr, std::vector<Mesi>> copies;
    for (const TagArray &l1 : _l1) {
        for (const Line &line : l1.lines) {
            if (line.state != Mesi::Invalid)
                copies[line.tag].push_back(line.state);
        }
    }

    for (const auto &[line_addr, holders] : copies) {
        unsigned exclusive_holders = 0;
        unsigned owned_holders = 0;
        for (Mesi state : holders) {
            if (state == Mesi::Modified || state == Mesi::Exclusive)
                ++exclusive_holders;
            if (state == Mesi::Owned)
                ++owned_holders;
        }
        // SWMR: an M/E copy must be the only copy of the line; at
        // most one Owned copy, and never alongside an M/E copy.
        if (exclusive_holders > 1 || owned_holders > 1)
            return false;
        if (exclusive_holders == 1 && holders.size() > 1)
            return false;
        if (owned_holders == 1 && exclusive_holders > 0)
            return false;
        if (owned_holders == 1 && _config.protocol == Protocol::Mesi)
            return false;
    }
    return true;
}

void
CacheSim::regStats(stats::StatGroup &group)
{
    group.addScalar("accesses", &_statAccesses, "data accesses");
    group.addScalar("l1Hits", &_statL1Hits, "private-cache hits");
    group.addScalar("llcHits", &_statLlcHits, "shared-cache hits");
    group.addScalar("dramFills", &_statDramFills, "fills from memory");
    group.addScalar("hitmEvents", &_statHitm,
                    "remote-Modified (HITM) coherence events");
    group.addScalar("hitmStoreEvents", &_statHitmStores,
                    "HITM events triggered by stores");
    group.addScalar("ownedForwards", &_statOwnedForwards,
                    "dirty forwards from Owned lines (MOESI)");
    group.addScalar("upgrades", &_statUpgrades, "S->M upgrades");
    group.addScalar("invalidations", &_statInvalidations,
                    "remote lines invalidated");
    group.addScalar("writebacks", &_statWritebacks,
                    "dirty lines written back");
}

} // namespace tmi
