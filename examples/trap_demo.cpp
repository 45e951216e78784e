/**
 * @file
 * Hardware-trap null checks on this machine, end to end.
 *
 *     class Obj { int f;        // offset 8
 *                 int big; }    // offset 16384, past the trap area
 *     int near(Obj o) { try { return o.f;   } catch (NPE) { return -1; } }
 *     int far(Obj o)  { try { return o.big; } catch (NPE) { return -2; } }
 *     int main() { Obj o = new Obj; o.f = 40; o.big = 2;
 *                  return near(o) + far(o); }
 *
 * The paper's optimizer turns near's null check into an implicit one —
 * zero instructions; the field load itself faults on the heap's guard
 * region, and the native tier's SIGSEGV handler turns the fault into
 * the NullPointerException its catch handler takes.  far's field lies
 * beyond the area the target guarantees to trap (Figure 5), so its
 * null check stays an explicit compare-and-branch.
 *
 * Exits non-zero when a result or a counter differs from the above.
 */

#include <iostream>
#include <string>

#include "arch/target.h"
#include "codegen/native/native_engine.h"
#include "ir/builder.h"
#include "jit/compiler.h"

using namespace trapjit;

namespace
{

constexpr int64_t kNearOffset = 8;
constexpr int64_t kFarOffset = 16384;

/** int name(Obj o) { try { return o.(offset); } catch (NPE) { ... } } */
FunctionId
addReader(Module &mod, const char *name, int64_t offset, int64_t onNull)
{
    Function &fn = mod.addFunction(name, Type::I32);
    fn.setNeverInline(true);
    ValueId o = fn.addParam(Type::Ref, "o");
    IRBuilder b(fn);
    b.startBlock();
    BasicBlock &handler = fn.newBlock();
    TryRegionId region =
        fn.addTryRegion(handler.id(), ExcKind::NullPointer);
    BasicBlock &body = fn.newBlock(region);
    b.jump(body);
    b.atEnd(body);
    b.ret(b.getField(o, offset, Type::I32));
    b.atEnd(handler);
    b.ret(b.constInt(onNull));
    return fn.id();
}

std::unique_ptr<Module>
buildProgram()
{
    auto mod = std::make_unique<Module>();
    ClassId obj = mod->addClass("Obj");
    FunctionId near = addReader(*mod, "near", kNearOffset, -1);
    FunctionId far = addReader(*mod, "far", kFarOffset, -2);

    Function &fn = mod->addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId o = b.newObject(obj, kFarOffset + 8);
    b.putField(o, kNearOffset, b.constInt(40));
    b.putField(o, kFarOffset, b.constInt(2));
    ValueId sum =
        b.binop(Opcode::IAdd, b.callStatic(near, {o}, Type::I32),
                b.callStatic(far, {o}, Type::I32));
    b.ret(sum);
    return mod;
}

bool g_ok = true;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        std::cout << "UNEXPECTED: " << what << "\n";
        g_ok = false;
    }
}

} // namespace

int
main()
{
    if (!nativeTierSupported()) {
        std::cout << "the native tier needs x86-64 Linux; nothing to do\n";
        return 0;
    }
    Target target = makeIA32WindowsTarget();
    auto mod = buildProgram();
    Compiler(target, makeNewFullConfig()).compile(*mod);

    NativeEngineOptions options;
    options.backend = NativeBackend::Baseline;
    NativeEngine engine(*mod, target, {}, nullptr, {}, nullptr, options);

    std::cout << "Native code (check bytes on the hot path):\n";
    for (const char *name : {"near", "far"}) {
        const NativeCode *nc = engine.nativeCode(mod->findFunction(name));
        expect(nc != nullptr, std::string(name) + " did not compile");
        if (nc == nullptr)
            continue;
        std::cout << "  " << name << ": " << nc->implicitChecksCompiled
                  << " implicit check(s), " << nc->implicitNullCheckBytes
                  << " bytes; " << nc->explicitChecksCompiled
                  << " explicit check(s), " << nc->explicitNullCheckBytes
                  << " bytes\n";
    }
    const NativeCode *nearCode = engine.nativeCode(mod->findFunction("near"));
    const NativeCode *farCode = engine.nativeCode(mod->findFunction("far"));
    expect(nearCode != nullptr && nearCode->implicitChecksCompiled == 1 &&
               nearCode->explicitChecksCompiled == 0,
           "near's null check is not implicit");
    expect(farCode != nullptr && farCode->explicitChecksCompiled == 1,
           "far's null check is not explicit");

    struct Case
    {
        const char *call;
        const char *fn;
        std::vector<RuntimeValue> args;
        int64_t want;
        uint64_t wantTraps;
    };
    const Case cases[] = {
        {"main()       (o non-null)", "main", {}, 42, 0},
        {"near(null)   (implicit check)", "near", {RuntimeValue::ofRef(0)},
         -1, 1},
        {"far(null)    (explicit check)", "far", {RuntimeValue::ofRef(0)},
         -2, 0},
    };
    std::cout << "\nRuns:\n";
    for (const Case &c : cases) {
        engine.reset();
        ExecResult r = engine.run(mod->findFunction(c.fn), c.args);
        std::cout << "  " << c.call << " -> " << r.value.i
                  << ", hardware traps taken: " << r.stats.trapsTaken
                  << "\n";
        expect(r.outcome == ExecResult::Outcome::Returned &&
                   r.value.i == c.want,
               std::string(c.call) + " returned the wrong value");
        expect(r.stats.trapsTaken == c.wantTraps,
               std::string(c.call) + " took the wrong number of traps");
    }
    std::cout << "\nThe trap was resolved inside the SIGSEGV handler, which "
                 "rewrote the faulting\nframe's RIP to the catch handler, "
                 "the way the paper's VM turns the fault\ninto an NPE.\n";
    return g_ok ? 0 : 1;
}
