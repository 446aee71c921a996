//===- runtime/Specialize.h - Runtime marshal specializer -------*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime specializer: compiles an InterpType type program (the
/// dynamic-IDL description the interpreter walks one dispatch per field)
/// into a flat, allocation-free threaded-code program of patched stencil
/// kernels (runtime/Stencils.h) at load time.  The key MarshalPlan
/// analyses rerun here on the type program instead of the compiler IR:
///
///   - adjacent bit-identical scalar fields collapse into single memcpy
///     runs (and endianness-mismatched uniform-width runs into bulk
///     byte-swap runs),
///   - per-field bounds checks hoist into one front-loaded reservation
///     (encode) or bounds check (decode) per fixed-size region,
///   - contiguous fixed arrays merge into their surrounding runs, and
///     counted sequences over dense elements become a single
///     length+bulk-copy kernel.
///
/// Programs are cached keyed by the full structural key of the InterpType
/// tree plus the wire convention, so marshaling N values of one dynamic
/// type compiles once.  A cache hit writes the binary key into a reused
/// thread-local buffer and looks it up without allocating: tens of
/// nanoseconds, so callers may resolve per call instead of holding the
/// returned program.  Specialized output is byte-identical to the
/// interpreter's (and therefore to the compiled stubs'): the equivalence
/// suite pins this.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_RUNTIME_SPECIALIZE_H
#define FLICK_RUNTIME_SPECIALIZE_H

#include "runtime/Interp.h"
#include "runtime/Stencils.h"
#include <string>

namespace flick {

/// A specialized program: the patched encode and decode op arrays plus
/// compile-time facts.  Owned by the program cache; immutable once built.
struct flick_spec_program {
  std::vector<flick_spec_enc_op> Enc;
  std::vector<flick_spec_dec_op> Dec;
  uint64_t Hash = 0;       ///< structural hash of (type tree, wire)
  uint64_t StepsFused = 0; ///< primitive steps fused away at compile time
};

/// Returns the cached specialized program for (\p T, \p W), compiling it
/// on first use.  Returns null when the type program cannot be
/// specialized (unsupported width, excessive nesting); the null result is
/// cached too, so callers can retry cheaply and fall back to the
/// interpreter.  Thread-safe; counts spec_programs / spec_compile_ns /
/// spec_cache_hits / spec_steps_fused on the calling thread's metrics.
const flick_spec_program *flick_specialize(const InterpType &T,
                                           const InterpWire &W);

/// Runs a specialized encode/decode.  Wire output and error behavior
/// match flick_interp_encode/decode byte for byte; copy accounting is one
/// bulk copy per call (the same basis as the instrumented interpreter).
int flick_spec_encode(flick_buf *Buf, const flick_spec_program *P,
                      const void *Val);
int flick_spec_decode(flick_buf *Buf, const flick_spec_program *P,
                      void *Val, flick_arena *Ar);

/// The cache key: a canonical binary serialization of the type tree's
/// structure (per node a kind tag byte, then its offsets, widths, counts
/// and strides at fixed width in host byte order, a field count for
/// structs and a presence byte for element types) prefixed with one byte
/// for the wire convention.  Two independently built but structurally
/// identical trees produce the same key and share one program; trees that
/// differ in any field produce different keys.  Not a persistence format.
std::string flick_spec_structural_key(const InterpType &T,
                                      const InterpWire &W);

/// FNV-1a hash of the structural key.
uint64_t flick_spec_structural_hash(const InterpType &T,
                                    const InterpWire &W);

/// Cached program count (including cached specialization refusals).
size_t flick_spec_cache_size();

/// Drops every cached program.  For tests and compile-cost benches only:
/// pointers returned by flick_specialize before the clear dangle after it.
void flick_spec_cache_clear();

} // namespace flick

#endif // FLICK_RUNTIME_SPECIALIZE_H
