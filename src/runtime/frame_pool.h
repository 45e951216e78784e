#ifndef TRAPJIT_RUNTIME_FRAME_POOL_H_
#define TRAPJIT_RUNTIME_FRAME_POOL_H_

/**
 * @file
 * The frame stack every engine built on the fast interpreter runs its
 * frames on: interpreted, baseline native, optimized native and tiered
 * frames alike.
 */

#include <cstddef>
#include <cstdint>

namespace trapjit
{

class Module;

/**
 * One engine's slot-file stack: (maxCallDepth + 2) x the module's
 * widest slot file — one row per live frame at depths 0..maxCallDepth
 * plus the row a call at the depth limit stages its arguments into
 * before the callee's depth check faults.  A callee's slot file starts
 * where its caller's ends, whichever tier either runs in, so frames
 * never overlap and a frame that fits its row always fits the pool;
 * anything else is a "frame pool overflow" HardFault at the frame that
 * would not fit, never a write past the end.
 *
 * The memory is a reserved anonymous mapping: the kernel commits (and
 * zero-fills) a page only when a frame first touches it, so a shallow
 * call tree costs resident memory only for the rows it reached.
 */
class FramePool
{
  public:
    FramePool(const Module &mod, size_t maxCallDepth);
    ~FramePool();

    FramePool(const FramePool &) = delete;
    FramePool &operator=(const FramePool &) = delete;

    uint8_t *begin() const { return base_; }
    uint8_t *end() const { return base_ + bytes_; }

    /** Whether @p numSlots 8-byte slots starting at @p at (a point
     *  inside the pool) fit before its end. */
    bool fits(const void *at, size_t numSlots) const
    {
        const auto *p = static_cast<const uint8_t *>(at);
        return numSlots <= static_cast<size_t>(end() - p) / 8;
    }

  private:
    uint8_t *base_ = nullptr;
    size_t bytes_ = 0;
};

} // namespace trapjit

#endif // TRAPJIT_RUNTIME_FRAME_POOL_H_
