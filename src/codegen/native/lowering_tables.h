#ifndef TRAPJIT_CODEGEN_NATIVE_LOWERING_TABLES_H_
#define TRAPJIT_CODEGEN_NATIVE_LOWERING_TABLES_H_

/**
 * @file
 * Opcode tables both x86-64 lowerings (native_compiler.cpp and
 * optimized_compiler.cpp) decide by, kept in one place so the two
 * backends cannot drift apart.
 */

#include <cstdint>
#include <string>

#include "codegen/native/x64_emitter.h"
#include "interp/decoded_program.h"

namespace trapjit
{

struct NativeContext;

/**
 * Ops with no side effect beyond their destination slot: when the
 * destination is never read, the whole body can be elided — only the
 * budget accounting remains, because the interpreters still retire the
 * instruction.  Anything that can raise, fault, allocate, touch the
 * heap or the trace stays.
 */
bool isPureOp(Opcode op);

/**
 * "" when every record of @p df has a lowering, else why not.  Every
 * srcOp the decoder produces is lowerable today; the scan stays so a
 * future opcode degrades to the interpreter fallback, never to
 * miscompilation.
 */
std::string unsupportedOpcodeReason(const DecodedFunction &df);

/** The signed condition code of integer compare predicate @p pred. */
X64Cond icmpCond(CmpPred pred);

/** The absolute address JIT code calls helper @p fn at. */
inline uint64_t
helperAddr(uint32_t (*fn)(NativeContext *, uint32_t))
{
    return reinterpret_cast<uint64_t>(fn);
}

} // namespace trapjit

#endif // TRAPJIT_CODEGEN_NATIVE_LOWERING_TABLES_H_
