#include "runtime/frame_pool.h"

#include <algorithm>

#include <sys/mman.h>

#include "ir/module.h"
#include "support/diagnostics.h"

namespace trapjit
{

FramePool::FramePool(const Module &mod, size_t maxCallDepth)
{
    size_t widest = 1;
    for (FunctionId f = 0; f < mod.numFunctions(); ++f)
        widest = std::max(widest, mod.function(f).numValues());
    bytes_ = (maxCallDepth + 2) * widest * 8;
    void *mem = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (mem == MAP_FAILED)
        TRAPJIT_FATAL("cannot reserve a ", bytes_, "-byte frame pool");
    base_ = static_cast<uint8_t *>(mem);
}

FramePool::~FramePool()
{
    munmap(base_, bytes_);
}

} // namespace trapjit
