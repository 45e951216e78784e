#include "runtime/heap.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <unistd.h>

#include "support/diagnostics.h"

#if defined(__linux__)
#include <linux/fs.h>
#if !defined(PAGEMAP_SCAN)
// The PAGEMAP_SCAN ioctl on /proc/<pid>/pagemap (Linux 6.7) is stable
// ABI, but older uapi headers lack it; these mirror <linux/fs.h>.
struct page_region
{
    uint64_t start;
    uint64_t end;
    uint64_t categories;
};

struct pm_scan_arg
{
    uint64_t size;
    uint64_t flags;
    uint64_t start;
    uint64_t end;
    uint64_t walk_end;
    uint64_t vec;
    uint64_t vec_len;
    uint64_t max_pages;
    uint64_t category_inverted;
    uint64_t category_mask;
    uint64_t category_anyof_mask;
    uint64_t return_mask;
};

#define PAGE_IS_PRESENT (1 << 3)
#define PAGE_IS_SWAPPED (1 << 4)
#define PAGE_IS_PFNZERO (1 << 5)
#define PAGEMAP_SCAN _IOWR('f', 16, struct pm_scan_arg)
#endif
#endif

namespace trapjit
{

namespace
{

/**
 * Extents below this take a plain memset: a scan costs about 1 us, which
 * buys a memset of ~16 pages, so a short extent is cheaper to wipe whole.
 */
constexpr size_t kScanMinBytes = 64u << 10;

#if defined(__linux__)
/** Regions one ioctl reports before reset() continues from walk_end. */
constexpr size_t kScanRegions = 32;

/**
 * Set once the kernel or the sandbox is seen to lack the page scan
 * (no /proc, or ENOTTY/EINVAL from the ioctl); reset() then memsets.
 * A property of the kernel, so it holds across fork too.
 */
std::atomic<bool> g_scanUnavailable{false};

/**
 * A scan of [start, end) that matches the pages holding a private frame:
 * present or swapped out, and not the shared zero page.  return_mask
 * names a category no match carries, so adjacent matches merge into one
 * region whatever else differs between them.
 */
pm_scan_arg
privatePageScan(uint64_t start, uint64_t end, page_region *vec,
                size_t vec_len)
{
    pm_scan_arg arg;
    std::memset(&arg, 0, sizeof(arg));
    arg.size = sizeof(arg);
    arg.start = start;
    arg.end = end;
    arg.vec = reinterpret_cast<uint64_t>(vec);
    arg.vec_len = vec_len;
    arg.category_inverted = PAGE_IS_PFNZERO;
    arg.category_mask = PAGE_IS_PFNZERO;
    arg.category_anyof_mask = PAGE_IS_PRESENT | PAGE_IS_SWAPPED;
    arg.return_mask = PAGE_IS_PFNZERO;
    return arg;
}

/** Whether a failed open/ioctl means "never available here". */
bool
scanUnsupportedErrno(int err)
{
    return err == ENOTTY || err == EINVAL || err == ENOENT ||
           err == EACCES || err == EPERM;
}
#endif

} // namespace

Heap::Heap(size_t capacity_bytes)
    : mapBytes_(static_cast<size_t>(kHeapBase) + capacity_bytes),
      limit_(kHeapBase + capacity_bytes)
{
    // One mapping: [0, kHeapBase) is the PROT_NONE guard region standing
    // in for the OS's protected page-zero area, the rest is the arena.
    // MAP_NORESERVE keeps a fleet of test heaps cheap — pages commit on
    // first touch.
    void *map = mmap(nullptr, mapBytes_, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (map == MAP_FAILED)
        TRAPJIT_FATAL("mmap of the heap arena failed");
    base_ = static_cast<uint8_t *>(map);
    if (mprotect(base_ + kHeapBase, capacity_bytes,
                 PROT_READ | PROT_WRITE) != 0)
        TRAPJIT_FATAL("mprotect of the heap arena failed");
}

Heap::~Heap()
{
    if (pagemapFd_ >= 0)
        close(pagemapFd_);
    if (base_ != nullptr)
        munmap(base_, mapBytes_);
}

// Allocation hands out pre-zeroed memory without touching it: bytes
// above next_ are always zero — fresh anonymous pages are zero-fill on
// first touch, every store lands inside an already-allocated block
// (below next_), and reset() re-zeroes [kHeapBase, next_) before the
// bump pointer rewinds.  That keeps allocation O(1) regardless of
// object size (jumbo-field profiles allocate ~512 KB nodes) and moves
// all zeroing cost into reset(), off the execution path.
//
// reset() in turn pays for the pages a run could have dirtied, not for
// the extent: a page without a private frame (never touched, or only
// read and so mapped to the shared zero page) already reads zero, and
// the kernel names the others in one PAGEMAP_SCAN.  The wiped pages stay
// committed — returning them with MADV_DONTNEED would make the next run
// refault them inside the timed execution, which costs more than the
// memset it saves.

Address
Heap::allocateObject(ClassId cls, int64_t size)
{
    TRAPJIT_ASSERT(size >= kFieldBaseOffset, "undersized allocation");
    int64_t rounded = (size + 7) & ~int64_t(7);
    if (next_ + rounded > limit_)
        return 0;
    Address ref = next_;
    next_ += rounded;
    writeI32(ref + kHeaderOffset, static_cast<int32_t>(cls));
    return ref;
}

Address
Heap::allocateArray(Type elem_type, int32_t length)
{
    TRAPJIT_ASSERT(length >= 0, "negative array length reached the heap");
    int64_t size =
        kArrayDataOffset + int64_t(length) * typeSize(elem_type);
    int64_t rounded = (size + 7) & ~int64_t(7);
    if (next_ + rounded > limit_)
        return 0;
    Address ref = next_;
    next_ += rounded;
    writeI32(ref + kArrayLengthOffset, length);
    return ref;
}

uint64_t
Heap::digest() const
{
    uint64_t hash = 1469598103934665603ull;
    size_t used = static_cast<size_t>(next_ - kHeapBase);
    const uint8_t *data = base_ + kHeapBase;
    for (size_t i = 0; i < used; ++i) {
        hash ^= data[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

Heap::Difference
Heap::firstDifference(const Heap &other) const
{
    Difference diff;
    const size_t mine = static_cast<size_t>(next_ - kHeapBase);
    const size_t theirs = static_cast<size_t>(other.next_ - kHeapBase);
    const size_t common = mine < theirs ? mine : theirs;
    const uint8_t *a = base_ + kHeapBase;
    const uint8_t *b = other.base_ + kHeapBase;
    for (size_t i = 0; i < common; i += 8) {
        const size_t span = common - i < 8 ? common - i : 8;
        uint64_t wa = 0, wb = 0;
        std::memcpy(&wa, a + i, span);
        std::memcpy(&wb, b + i, span);
        if (wa != wb) {
            diff.differs = true;
            diff.address = kHeapBase + i;
            diff.lhsWord = wa;
            diff.rhsWord = wb;
            return diff;
        }
    }
    if (mine != theirs) {
        diff.differs = true;
        diff.sizeOnly = true;
        diff.address = kHeapBase + common;
    }
    return diff;
}

void
Heap::reset()
{
    const size_t used = static_cast<size_t>(next_ - kHeapBase);
    uint8_t *lo = base_ + kHeapBase;
    if (used < kScanMinBytes || !wipeWrittenPages(lo, used))
        std::memset(lo, 0, used);
    next_ = kHeapBase;
}

#if defined(__linux__)
bool
Heap::wipeWrittenPages(uint8_t *lo, size_t bytes)
{
    const int fd = pagemapFd();
    if (fd < 0)
        return false;
    static const uint64_t pageMask =
        static_cast<uint64_t>(sysconf(_SC_PAGESIZE)) - 1;
    const uint64_t end = reinterpret_cast<uint64_t>(lo) + bytes;
    page_region regions[kScanRegions];
    pm_scan_arg arg =
        privatePageScan(reinterpret_cast<uint64_t>(lo),
                        (end + pageMask) & ~pageMask, regions,
                        kScanRegions);
    for (;;) {
        const long found = ioctl(fd, PAGEMAP_SCAN, &arg);
        if (found < 0) {
            if (scanUnsupportedErrno(errno))
                g_scanUnavailable.store(true, std::memory_order_relaxed);
            return false;
        }
        // The last page may extend past next_; its tail is zero already.
        for (long i = 0; i < found; ++i) {
            const uint64_t stop = std::min<uint64_t>(regions[i].end, end);
            std::memset(reinterpret_cast<void *>(regions[i].start), 0,
                        stop - regions[i].start);
        }
        // A full region vector stops the walk early; resume after it.
        if (arg.walk_end >= arg.end)
            return true;
        if (arg.walk_end <= arg.start)
            return false;
        arg.start = arg.walk_end;
    }
}

int
Heap::pagemapFd()
{
    if (g_scanUnavailable.load(std::memory_order_relaxed))
        return -1;
    const int pid = static_cast<int>(getpid());
    if (pagemapFd_ >= 0 && pagemapPid_ == pid)
        return pagemapFd_;
    if (pagemapFd_ >= 0)
        close(pagemapFd_); // inherited across fork: the parent's view
    pagemapFd_ = open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
    pagemapPid_ = pid;
    if (pagemapFd_ < 0 && scanUnsupportedErrno(errno))
        g_scanUnavailable.store(true, std::memory_order_relaxed);
    return pagemapFd_;
}

bool
Heap::pageScanAvailable()
{
    const int fd = open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    // An empty range: the kernel validates the request and walks nothing.
    pm_scan_arg arg = privatePageScan(0, 0, nullptr, 0);
    const bool ok = ioctl(fd, PAGEMAP_SCAN, &arg) >= 0;
    close(fd);
    return ok;
}
#else
// No pagemap outside Linux: reset() always memsets.
bool
Heap::wipeWrittenPages(uint8_t *, size_t)
{
    return false;
}

int
Heap::pagemapFd()
{
    return -1;
}

bool
Heap::pageScanAvailable()
{
    return false;
}
#endif

} // namespace trapjit
