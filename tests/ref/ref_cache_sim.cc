#include "ref/ref_cache_sim.hh"

#include <utility>

namespace tmi
{

RefCacheSim::Way *
RefCacheSim::Cache::find(Addr line)
{
    auto s = lines.find(line % sets);
    if (s == lines.end())
        return nullptr;
    auto it = s->second.find(line);
    return it == s->second.end() ? nullptr : &it->second;
}

template <typename Evict>
RefCacheSim::Way &
RefCacheSim::Cache::fill(Addr line, Mesi state, std::uint64_t stamp,
                         Evict &&evict)
{
    std::map<Addr, Way> &s = set(line);
    std::vector<bool> used(ways, false);
    for (const auto &[addr, w] : s)
        used[w.way] = true;
    unsigned way = 0;
    while (way < ways && used[way])
        ++way;
    if (way == ways) {
        auto victim = s.begin();
        for (auto it = s.begin(); it != s.end(); ++it) {
            if (std::pair(it->second.stamp, it->second.way) <
                std::pair(victim->second.stamp, victim->second.way))
                victim = it;
        }
        way = victim->second.way;
        evict(victim->first);
    }
    return s[line] = Way{way, state, stamp};
}

RefCacheSim::RefCacheSim(const CacheConfig &config)
    : _config(config), _l1(config.cores)
{
    for (Cache &l1 : _l1) {
        l1.sets = config.l1Sets;
        l1.ways = config.l1Ways;
    }
    _llc.sets = config.llcSets;
    _llc.ways = config.llcWays;
}

void
RefCacheSim::evict(CoreId c, Addr line)
{
    Way *w = _l1[c].find(line);
    TMI_ASSERT(w, "evicting a line the core does not hold");
    if (w->state == Mesi::Modified || w->state == Mesi::Owned) {
        ++_writebacks;
        llcLookupFill(line);
    }
    _l1[c].set(line).erase(line);
}

bool
RefCacheSim::llcLookupFill(Addr line)
{
    if (Way *w = _llc.find(line)) {
        w->stamp = _clock;
        return true;
    }
    _llc.fill(line, Mesi::Shared, _clock,
              [this](Addr victim) { _llc.set(victim).erase(victim); });
    return false;
}

AccessResult
RefCacheSim::access(const AccessContext &ctx)
{
    TMI_ASSERT(ctx.core < _config.cores);
    TMI_ASSERT(lineOffset(ctx.paddr) + ctx.width <= lineBytes);
    const bool write = ctx.isWrite;
    const Addr line = lineNumber(ctx.paddr);
    AccessResult res;
    ++_accesses;
    ++_clock;

    // Ask every other core. SWMR allows at most one non-Shared copy.
    std::vector<CoreId> others;
    Way *owner = nullptr;
    for (CoreId c = 0; c < _config.cores; ++c) {
        Way *w = c == ctx.core ? nullptr : _l1[c].find(line);
        if (!w)
            continue;
        others.push_back(c);
        if (w->state != Mesi::Shared) {
            TMI_ASSERT(!owner, "two owners of one line");
            owner = w;
        }
    }
    auto invalidate_others = [&] {
        for (CoreId c : others) {
            ++_invalidations;
            evict(c, line);
        }
    };

    if (Way *mine = _l1[ctx.core].find(line)) {
        mine->stamp = _clock;
        res.l1Hit = true;
        if (!write || mine->state == Mesi::Modified ||
            mine->state == Mesi::Exclusive) {
            if (write)
                mine->state = Mesi::Modified;
            ++_l1Hits;
            res.latency = _config.l1HitLatency;
            return res;
        }
        ++_upgrades;
        invalidate_others();
        mine->state = Mesi::Modified;
        res.latency = _config.upgradeLatency;
        return res;
    }

    Mesi fill = write ? Mesi::Modified : Mesi::Shared;
    Mesi owner_state = owner ? owner->state : Mesi::Invalid;
    if (owner_state == Mesi::Modified) {
        ++_hitm;
        if (write)
            ++_hitmStores;
        res.hitm = true;
        res.latency = _config.hitmLatency;
        if (_hitmCb)
            res.latency += _hitmCb(ctx);
        if (write || _config.protocol == Protocol::Mesi) {
            ++_writebacks;
            llcLookupFill(line);
        }
        if (!write) {
            owner->state = _config.protocol == Protocol::Moesi
                               ? Mesi::Owned
                               : Mesi::Shared;
        }
    } else if (owner_state == Mesi::Owned) {
        ++_ownedForwards;
        res.latency = _config.ownedForwardLatency;
    } else if (!others.empty()) {
        res.latency = _config.cleanForwardLatency;
        if (!write && owner)
            owner->state = Mesi::Shared;
    } else if (llcLookupFill(line)) {
        ++_llcHits;
        res.latency = _config.llcHitLatency;
        if (!write)
            fill = Mesi::Exclusive;
    } else {
        ++_dramFills;
        res.latency = _config.dramLatency;
        if (!write)
            fill = Mesi::Exclusive;
    }

    if (write)
        invalidate_others();
    _l1[ctx.core].fill(line, fill, _clock, [&](Addr victim) {
        evict(ctx.core, victim);
    });
    return res;
}

void
RefCacheSim::invalidateLine(Addr paddr)
{
    Addr line = lineNumber(paddr);
    for (CoreId c = 0; c < _config.cores; ++c) {
        if (_l1[c].find(line))
            evict(c, line);
    }
}

void
RefCacheSim::invalidatePage(PPage frame, unsigned page_shift)
{
    Addr base = frame << page_shift;
    for (Addr off = 0; off < (Addr{1} << page_shift); off += lineBytes)
        invalidateLine(base + off);
}

void
RefCacheSim::regStats(stats::StatGroup &group)
{
    group.addScalar("accesses", &_accesses, "");
    group.addScalar("l1Hits", &_l1Hits, "");
    group.addScalar("llcHits", &_llcHits, "");
    group.addScalar("dramFills", &_dramFills, "");
    group.addScalar("hitmEvents", &_hitm, "");
    group.addScalar("hitmStoreEvents", &_hitmStores, "");
    group.addScalar("ownedForwards", &_ownedForwards, "");
    group.addScalar("upgrades", &_upgrades, "");
    group.addScalar("invalidations", &_invalidations, "");
    group.addScalar("writebacks", &_writebacks, "");
}

} // namespace tmi
