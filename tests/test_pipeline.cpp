/**
 * @file
 * Tests of the JIT driver layer: configuration presets, compile-time
 * accounting, the coverage guarantee across every preset, the heap and
 * its recycle contract, and the workload registry.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include <sys/mman.h>

#include "jit/compiler.h"
#include "opt/nullcheck/check_coverage.h"
#include "runtime/heap.h"
#include "workloads/workload.h"

namespace trapjit
{
namespace
{

TEST(Pipeline, PresetsHaveExpectedKnobs)
{
    EXPECT_FALSE(makeNoOptNoTrapConfig().useLocalLowering);
    EXPECT_TRUE(makeNoOptTrapConfig().useLocalLowering);
    EXPECT_TRUE(makeOldNullCheckConfig().useWhaley);
    EXPECT_FALSE(makeOldNullCheckConfig().usePhase1);
    EXPECT_TRUE(makeNewPhase1OnlyConfig().usePhase1);
    EXPECT_FALSE(makeNewPhase1OnlyConfig().usePhase2);
    EXPECT_TRUE(makeNewFullConfig().usePhase2);

    // Section 5.4: phase 2 is skipped on AIX; speculation is the knob.
    EXPECT_FALSE(makeAIXSpeculationConfig().usePhase2);
    EXPECT_TRUE(makeAIXSpeculationConfig().enableSpeculation);
    EXPECT_FALSE(makeAIXNoSpeculationConfig().enableSpeculation);
    EXPECT_TRUE(makeAIXIllegalImplicitConfig().usePhase2);

    EXPECT_FALSE(makeAltVMConfig().enableIntrinsics);
}

TEST(Pipeline, CompileReportSplitsNullCheckTime)
{
    Target ia32 = makeIA32WindowsTarget();
    const Workload *w = findWorkload("javac");
    ASSERT_NE(nullptr, w);

    auto mod = w->build();
    Compiler newJit(ia32, makeNewFullConfig());
    CompileReport report = newJit.compile(*mod);
    EXPECT_GT(report.timings.nullCheckSeconds, 0.0);
    EXPECT_GT(report.timings.otherSeconds, 0.0);
    EXPECT_EQ(mod->numFunctions(), report.functionsCompiled);

    // The old algorithm spends less time on null checks (Table 4).
    auto mod2 = w->build();
    Compiler oldJit(ia32, makeOldNullCheckConfig());
    CompileReport oldReport = oldJit.compile(*mod2);
    EXPECT_LT(oldReport.timings.nullCheckSeconds,
              report.timings.nullCheckSeconds);
}

TEST(Pipeline, EveryPresetKeepsWorkloadsCovered)
{
    Target ia32 = makeIA32WindowsTarget();
    Target aix = makePPCAIXTarget();
    Target lying = makeIllegalImplicitAIXTarget();

    struct Case
    {
        const Target *target;
        PipelineConfig config;
    };
    std::vector<Case> cases = {
        {&ia32, makeAltVMConfig()},
        {&aix, makeAIXSpeculationConfig()},
        {&aix, makeAIXNoSpeculationConfig()},
        {&lying, makeAIXIllegalImplicitConfig()},
    };
    const Workload *w = findWorkload("mtrt");
    ASSERT_NE(nullptr, w);
    for (const Case &c : cases) {
        auto mod = w->build();
        Compiler compiler(*c.target, c.config);
        compiler.compile(*mod);
        for (FunctionId f = 0; f < mod->numFunctions(); ++f) {
            // Coverage is judged against the *compile* target (the
            // lying target believes reads trap; that is the point of
            // the Illegal Implicit experiment).
            auto violations = checkNullGuardCoverage(
                mod->function(f), compiler.target());
            for (const auto &v : violations)
                ADD_FAILURE()
                    << c.config.name << ": " << v.description;
        }
    }
}

TEST(Workloads, RegistryIsComplete)
{
    EXPECT_EQ(10u, jbytemarkWorkloads().size());
    EXPECT_EQ(7u, specjvmWorkloads().size());
    EXPECT_NE(nullptr, findWorkload("Neural Net"));
    EXPECT_NE(nullptr, findWorkload("javac"));
    EXPECT_EQ(nullptr, findWorkload("no such benchmark"));
}

TEST(Heap, AllocationLayoutAndDigest)
{
    Heap heap(1 << 20);
    Address obj = heap.allocateObject(3, 24);
    ASSERT_NE(0u, obj);
    EXPECT_GE(obj, kHeapBase);
    EXPECT_EQ(3u, heap.classOf(obj));

    Address arr = heap.allocateArray(Type::I32, 10);
    ASSERT_NE(0u, arr);
    EXPECT_EQ(10, heap.arrayLength(arr));
    EXPECT_GT(arr, obj);

    uint64_t before = heap.digest();
    heap.writeI32(arr + kArrayDataOffset, 42);
    EXPECT_NE(before, heap.digest());

    heap.reset();
    EXPECT_EQ(0u, heap.bytesAllocated());
}

TEST(Heap, ExhaustionReturnsNull)
{
    Heap heap(4096);
    Address a = heap.allocateArray(Type::I64, 100); // 808 bytes
    EXPECT_NE(0u, a);
    Address b = heap.allocateArray(Type::I64, 10000); // too big
    EXPECT_EQ(0u, b);
}

TEST(Heap, AllocationsAreDeterministic)
{
    // Observable-equivalence comparisons rely on identical allocation
    // addresses across runs.
    Heap h1(1 << 16), h2(1 << 16);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(h1.allocateObject(1, 16 + 8 * i),
                  h2.allocateObject(1, 16 + 8 * i));
}

// ---------------------------------------------------------------------------
// The recycle contract: after reset() every byte of the old extent reads
// zero again, whichever pages the run wrote, read or never touched.
// ---------------------------------------------------------------------------

constexpr size_t kPage = 4096;

/** True if every byte of [addr, addr + bytes) is zero. */
bool
allZero(const Heap &heap, Address addr, size_t bytes)
{
    const uint8_t *p = heap.hostBase() + addr;
    for (size_t i = 0; i < bytes; ++i)
        if (p[i] != 0)
            return false;
    return true;
}

/** Pages of [addr, addr + bytes) that are resident (mincore). */
size_t
residentPages(const Heap &heap, Address addr, size_t bytes)
{
    const size_t pages = (bytes + kPage - 1) / kPage;
    std::vector<unsigned char> vec(pages);
    if (mincore(heap.hostBase() + addr, pages * kPage, vec.data()) != 0)
        return SIZE_MAX;
    size_t n = 0;
    for (unsigned char v : vec)
        n += v & 1;
    return n;
}

/** Resident pages of an extent just before and just after reset(). */
struct Residency
{
    size_t before = 0;
    size_t after = 0;
};

Residency
resetCountingResidentPages(Heap &heap, size_t extent)
{
    Residency r;
    r.before = residentPages(heap, kHeapBase, extent);
    heap.reset();
    r.after = residentPages(heap, kHeapBase, extent);
    return r;
}

/**
 * The page-scan path commits no page in reset(): the pages it wipes are
 * the ones the run already had.  The memset fallback commits the whole
 * extent, so only this assertion tells the two paths apart; it is the
 * one a kernel without PAGEMAP_SCAN skips.  Call it last in a test.
 */
void
expectResetCommittedNothing(const Residency &r)
{
    if (!Heap::pageScanAvailable())
        GTEST_SKIP() << "kernel lacks PAGEMAP_SCAN: reset() memsets";
    EXPECT_EQ(r.before, r.after);
}

TEST(Heap, SparseWritesAcrossMultiMBObjectRecycleToZero)
{
    constexpr int64_t kObject = 3 << 20;
    Heap heap(8u << 20);
    const Address obj = heap.allocateObject(7, kObject);
    ASSERT_NE(0u, obj);
    // Every third page of the first 400 (more regions than one scan
    // reports), then a few lone pages up to the object's last byte.
    for (size_t page = 0; page < 400; page += 3)
        heap.writeI64(obj + page * kPage + 16, int64_t(page) + 1);
    for (int64_t off : {int64_t(1) << 20, int64_t(2) << 20, kObject - 8})
        heap.writeI64(obj + off, -1);

    const Residency r = resetCountingResidentPages(heap, kObject);
    EXPECT_EQ(obj, heap.allocateObject(0, kObject));
    EXPECT_TRUE(allZero(heap, obj, kObject));
    expectResetCommittedNothing(r);
}

TEST(Heap, ReadOnlyPagesRecycleToZero)
{
    constexpr int64_t kObject = 1 << 20;
    Heap heap(4u << 20);
    const Address obj = heap.allocateObject(5, kObject);
    ASSERT_NE(0u, obj);
    // Read every page (each maps the shared zero page), write two.
    int64_t sum = 0;
    for (int64_t off = 0; off < kObject; off += kPage)
        sum += heap.readI64(obj + off);
    EXPECT_EQ(5, sum); // only the class-id header is nonzero
    heap.writeI32(obj + 100 * kPage, 9);
    heap.writeI32(obj + 200 * kPage + 4, 9);

    const Residency r = resetCountingResidentPages(heap, kObject);
    EXPECT_EQ(obj, heap.allocateObject(0, kObject));
    EXPECT_TRUE(allZero(heap, obj, kObject));
    expectResetCommittedNothing(r);
}

TEST(Heap, DirtyPartialLastPageRecyclesToZero)
{
    // An extent ending 40 bytes into a page, written up to its end.
    Heap heap(1u << 20);
    const Address obj = heap.allocateObject(3, 50 * kPage + 40);
    ASSERT_NE(0u, obj);
    const size_t extent = heap.bytesAllocated();
    ASSERT_NE(0u, extent % kPage);
    heap.writeI64(obj + extent - 8, -1);
    heap.writeI64(obj + 20 * kPage, -1);

    const Residency r = resetCountingResidentPages(heap, extent);
    // Allocate past the old extent: the tail of the last page, never
    // allocated before, must read zero along with the rest.
    const size_t larger = extent + kPage;
    EXPECT_EQ(obj, heap.allocateObject(0, larger));
    EXPECT_TRUE(allZero(heap, obj, larger));
    expectResetCommittedNothing(r);
}

TEST(Heap, PageDirtyInConsecutiveRequestsRecyclesToZero)
{
    constexpr int64_t kObject = 512 * kPage;
    Heap heap(4u << 20);
    for (int request = 1; request <= 3; ++request) {
        const Address obj = heap.allocateObject(1, kObject);
        ASSERT_NE(0u, obj);
        EXPECT_TRUE(allZero(heap, obj + 8, kObject - 8))
            << "request " << request << " found residue";
        // Page 10 in every request; page 300 only in the first.
        heap.writeI64(obj + 10 * kPage, request);
        if (request == 1)
            heap.writeI64(obj + 300 * kPage, request);
        heap.reset();
    }
    EXPECT_EQ(kHeapBase, heap.allocateObject(0, kObject));
    EXPECT_TRUE(allZero(heap, kHeapBase, kObject));
}

TEST(Heap, ShortExtentRecyclesToZero)
{
    // Below the page-scan threshold reset() memsets; same contract.
    Heap heap(1u << 20);
    const Address obj = heap.allocateObject(2, 3 * kPage);
    ASSERT_NE(0u, obj);
    heap.writeI64(obj + kPage, -1);
    heap.reset();
    EXPECT_EQ(obj, heap.allocateObject(0, 3 * kPage));
    EXPECT_TRUE(allZero(heap, obj, 3 * kPage));
}

/**
 * In the forked child: dirty a page the parent never wrote, recycle,
 * and exit 0 only if the page reads zero.  A pagemap descriptor the
 * parent opened would scan the parent's page tables, miss the page and
 * leave the residue.
 */
[[noreturn]] void
recycleInForkedChild(Heap &heap, int64_t object, int64_t childOffset)
{
    const Address obj = heap.allocateObject(1, object);
    heap.writeI64(obj + childOffset, -1);
    heap.reset();
    heap.allocateObject(0, object);
    std::_Exit(allZero(heap, obj, object) ? 0 : 1);
}

TEST(HeapDeathTest, ForkedChildRecyclesItsOwnPages)
{
    constexpr int64_t kObject = 2 << 20;
    Heap heap(4u << 20);
    const Address obj = heap.allocateObject(1, kObject);
    ASSERT_NE(0u, obj);
    heap.writeI64(obj + 4 * kPage, -1);
    heap.reset(); // the parent scans first (and keeps its descriptor)
    EXPECT_TRUE(allZero(heap, obj, kObject));

    EXPECT_EXIT(recycleInForkedChild(heap, kObject, 300 * kPage),
                ::testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace trapjit
