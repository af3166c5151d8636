/**
 * @file
 * Simulated physical memory: a sparse store of page frames.
 *
 * Frames are allocated by monotonically increasing frame number and
 * their backing host buffers are materialized lazily on first byte
 * access, so large simulated footprints cost accounting only until
 * they are actually touched. Reads from untouched frames return zero,
 * matching anonymous-mmap semantics.
 */

#ifndef TMI_MEM_PHYSICAL_HH
#define TMI_MEM_PHYSICAL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace tmi
{

/** Sparse, lazily materialized simulated physical memory. */
class PhysicalMemory
{
  public:
    /**
     * @param page_shift log2 of the frame size (12 for 4 KB frames,
     *                   21 for 2 MB huge frames).
     */
    explicit PhysicalMemory(unsigned page_shift);

    /** Frame size in bytes. */
    Addr pageBytes() const { return Addr{1} << _pageShift; }

    /** log2 of the frame size. */
    unsigned pageShift() const { return _pageShift; }

    /** Allocate a fresh zeroed frame and return its frame number. */
    PPage allocFrame();

    /**
     * Allocate a private copy-on-write copy of @p src.
     *
     * The new frame's contents equal src's current contents.
     */
    PPage allocCopy(PPage src);

    /** Release a frame; its number is not reused. */
    void freeFrame(PPage frame);

    /** Read @p size bytes starting at physical address @p paddr. */
    void read(Addr paddr, void *buf, std::size_t size) const;

    /** Write @p size bytes starting at physical address @p paddr. */
    void write(Addr paddr, const void *buf, std::size_t size);

    /**
     * Borrow a frame's backing buffer, materializing it if needed.
     *
     * Used by the PTSB diff/merge path, which scans whole pages.
     */
    std::uint8_t *framePtr(PPage frame);

    /** Borrow a frame's buffer for reading; null if never touched. */
    const std::uint8_t *framePtrIfTouched(PPage frame) const;

    /**
     * Host address of the byte at @p paddr in a live frame, or null
     * if the frame was never touched. Never materializes a frame:
     * the access path uses it only to prefetch the bytes a data op is
     * about to move, which cannot change any simulated state.
     */
    const std::uint8_t *
    hostAddrIfTouched(Addr paddr) const
    {
        PPage frame = paddr >> _pageShift;
        TMI_ASSERT(frame < _frames.size());
        const std::uint8_t *data = _frames[frame].data.get();
        return data ? data + (paddr & (pageBytes() - 1)) : nullptr;
    }

    /** True if @p frame is currently allocated. */
    bool frameLive(PPage frame) const;

    /** Number of frames currently allocated (live). */
    std::uint64_t liveFrames() const { return _liveFrames; }

    /** Bytes of simulated memory currently allocated (live frames). */
    std::uint64_t liveBytes() const { return _liveFrames * pageBytes(); }

    /** High-water mark of live frames. */
    std::uint64_t peakFrames() const { return _peakFrames; }

    /** Register stats under @p group. */
    void regStats(stats::StatGroup &group);

  private:
    struct Frame
    {
        std::unique_ptr<std::uint8_t[]> data; //!< null until touched
        bool live = false;
    };

    Frame &frameRef(PPage frame);
    const Frame &frameRefConst(PPage frame) const;
    std::uint8_t *materialize(Frame &f);

    unsigned _pageShift;
    std::vector<Frame> _frames;
    std::uint64_t _liveFrames = 0;
    std::uint64_t _peakFrames = 0;

    stats::Scalar _statFramesAllocated;
    stats::Scalar _statFramesCopied;
    stats::Scalar _statFramesFreed;
};

} // namespace tmi

#endif // TMI_MEM_PHYSICAL_HH
