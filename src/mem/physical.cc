#include "physical.hh"

#include <cstring>

namespace tmi
{

PhysicalMemory::PhysicalMemory(unsigned page_shift)
    : _pageShift(page_shift)
{
    TMI_ASSERT(page_shift >= lineShift && page_shift <= 30);
}

PhysicalMemory::Frame &
PhysicalMemory::frameRef(PPage frame)
{
    TMI_ASSERT(frame < _frames.size());
    return _frames[frame];
}

const PhysicalMemory::Frame &
PhysicalMemory::frameRefConst(PPage frame) const
{
    TMI_ASSERT(frame < _frames.size());
    return _frames[frame];
}

std::uint8_t *
PhysicalMemory::materialize(Frame &f)
{
    TMI_ASSERT(f.live);
    if (!f.data) {
        f.data = std::make_unique_for_overwrite<std::uint8_t[]>(pageBytes());
        std::memset(f.data.get(), 0, pageBytes());
    }
    return f.data.get();
}

PPage
PhysicalMemory::allocFrame()
{
    _frames.emplace_back();
    _frames.back().live = true;
    ++_liveFrames;
    if (_liveFrames > _peakFrames)
        _peakFrames = _liveFrames;
    ++_statFramesAllocated;
    return _frames.size() - 1;
}

PPage
PhysicalMemory::allocCopy(PPage src)
{
    PPage dst = allocFrame();
    ++_statFramesCopied;
    const Frame &sf = frameRefConst(src);
    TMI_ASSERT(sf.live);
    if (sf.data) {
        Frame &df = frameRef(dst);
        df.data = std::make_unique_for_overwrite<std::uint8_t[]>(pageBytes());
        std::memcpy(df.data.get(), sf.data.get(), pageBytes());
    }
    return dst;
}

void
PhysicalMemory::freeFrame(PPage frame)
{
    Frame &f = frameRef(frame);
    TMI_ASSERT(f.live);
    f.live = false;
    f.data.reset();
    --_liveFrames;
    ++_statFramesFreed;
}

void
PhysicalMemory::read(Addr paddr, void *buf, std::size_t size) const
{
    auto *out = static_cast<std::uint8_t *>(buf);
    while (size > 0) {
        PPage frame = paddr >> _pageShift;
        Addr off = paddr & (pageBytes() - 1);
        std::size_t chunk =
            std::min<std::size_t>(size, pageBytes() - off);
        const Frame &f = frameRefConst(frame);
        TMI_ASSERT(f.live);
        if (f.data)
            std::memcpy(out, f.data.get() + off, chunk);
        else
            std::memset(out, 0, chunk);
        out += chunk;
        paddr += chunk;
        size -= chunk;
    }
}

void
PhysicalMemory::write(Addr paddr, const void *buf, std::size_t size)
{
    const auto *in = static_cast<const std::uint8_t *>(buf);
    while (size > 0) {
        PPage frame = paddr >> _pageShift;
        Addr off = paddr & (pageBytes() - 1);
        std::size_t chunk =
            std::min<std::size_t>(size, pageBytes() - off);
        Frame &f = frameRef(frame);
        TMI_ASSERT(f.live);
        std::memcpy(materialize(f) + off, in, chunk);
        in += chunk;
        paddr += chunk;
        size -= chunk;
    }
}

std::uint8_t *
PhysicalMemory::framePtr(PPage frame)
{
    return materialize(frameRef(frame));
}

const std::uint8_t *
PhysicalMemory::framePtrIfTouched(PPage frame) const
{
    const Frame &f = frameRefConst(frame);
    TMI_ASSERT(f.live);
    return f.data.get();
}

bool
PhysicalMemory::frameLive(PPage frame) const
{
    if (frame >= _frames.size())
        return false;
    return _frames[frame].live;
}

void
PhysicalMemory::regStats(stats::StatGroup &group)
{
    group.addScalar("framesAllocated", &_statFramesAllocated,
                    "total physical frames ever allocated");
    group.addScalar("framesCopied", &_statFramesCopied,
                    "frames allocated as COW copies");
    group.addScalar("framesFreed", &_statFramesFreed,
                    "frames released");
}

} // namespace tmi
