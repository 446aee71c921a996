//===- backends/MarshalPlan.h - Marshal-plan IR and analysis ----*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MarshalPlan IR: a per-operation sequence of typed marshal steps
/// built from PRES_C by pure analysis, transformed by the pass pipeline
/// (Passes.h), and lowered to CAST by the plan emitter (PlanEmit.cpp).
/// This is the explicit middle layer the paper's architecture implies
/// between presentation and code: the builder only *describes* the
/// message, the passes decide the optimization strategy, and the emitter
/// owns every chunkAddr/putWire/getWire detail.
///
/// This header also hosts the one layout walk (LayoutCache) and the
/// predicates read off its record -- sizes, strides, host/wire
/// bit-identity, memcpy runs -- so the builder, the passes, and the
/// emitter agree on one wire layout by construction.  The layout rule,
/// stated once: on the wire, struct members lie inline with no tail
/// padding; in host memory, C rules apply; a subtree block-copies only
/// when every leaf sits at the same wire and host offset.  A sizeof
/// static_assert alone cannot catch an offset mismatch, so the rule is
/// checked leaf by leaf.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_BACKENDS_MARSHALPLAN_H
#define FLICK_BACKENDS_MARSHALPLAN_H

#include "mint/Wire.h"
#include "pres/Pres.h"
#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace flick {

//===----------------------------------------------------------------------===//
// Shared shape classification
//===----------------------------------------------------------------------===//

/// Broad parameter-shape classification used by the signature tables and
/// the inlining policy.
enum class PKind { Scalar, Str, FixArr, Agg, Opt, Void };

PKind classifyPres(const PresNode *P);

/// True when the subtree contains a discriminated union (unions never
/// share chunks: their size depends on the discriminator).
bool presContainsUnion(const PresNode *P);

inline uint64_t alignUpTo(uint64_t V, uint64_t A) {
  return (V + A - 1) / A * A;
}

bool isAtomicMint(const MintType *T);

/// True for char/octet elements, which arrays pack one byte each with
/// trailing padding only (the XDR `opaque` convention; CDR packs bytes
/// naturally).  Standalone scalars still use atomSize (XDR widens them).
bool isByteElem(const WireLayout &L, const MintType *T);

/// Endianness suffix of the runtime encode/decode primitive family.
const char *endianSuffix(WireKind K);

std::string encFnFor(const WireLayout &L, unsigned Size);
std::string decFnFor(const WireLayout &L, unsigned Size);

/// Chunk alignment for a wire format (4 for XDR, 8 otherwise).
unsigned chunkAlignFor(const WireLayout &L);

//===----------------------------------------------------------------------===//
// The layout record
//===----------------------------------------------------------------------===//
//
// One walk lays a fixed-size PRES subtree out on the wire and in host
// memory in lockstep, and every layout question -- chunk sizes, element
// strides, bit-identity, memcpy runs, the emitter's chunk offsets -- is a
// query on the record it produces.  The rules:
//
//  - Wire: atoms align to atomAlign and occupy atomSize.  Struct members
//    lie inline with no head or tail padding.  Byte (char/octet) arrays
//    align to padUnit and occupy padded(count).  Other arrays align to
//    their element's wire alignment and stride over
//    padded(alignUp(element size, element alignment)).
//  - Host: C rules -- natural alignment, a struct aligned to and padded
//    to its widest member.
//  - Block copy: a subtree may be memcpy'd whole only when every leaf is
//    host-identical at equal wire and host offsets (and, for arrays, the
//    wire stride equals sizeof).
//
// Chunks start aligned to chunkAlign(), so member alignment within a
// chunk is valid whenever WireAlign <= chunkAlign.

/// One scalar (or one packed byte array) of a laid-out subtree, with
/// offsets relative to the subtree start.
struct LayoutLeaf {
  uint64_t WireOff = 0;
  uint64_t WireSize = 0; ///< encoded bytes, excluding trailing pad
  uint64_t HostOff = 0;
  uint64_t HostSize = 0;
  unsigned Scalars = 1; ///< scalars covered (a byte array's count)
  /// Encoded bytes equal the host bytes: no swap, no widening.
  bool HostIdentical = false;
};

struct PresLayout {
  bool Fixed = true;     ///< false when the subtree has variable size
  uint64_t WireSize = 0; ///< exact encoded bytes (before chunk padding)
  unsigned WireAlign = 1;
  uint64_t HostSize = 0; ///< C sizeof, which is also the host stride
  unsigned HostAlign = 1;
  /// Wire distance between consecutive array elements of this type.
  uint64_t WireStride = 0;
  std::vector<LayoutLeaf> Leaves; ///< in wire order
};

/// The layout walk and its per-node memo.  One instance lives for one
/// back-end run (the pass pipeline owns it; the emitter shares it).
class LayoutCache {
public:
  explicit LayoutCache(const WireLayout &L) : L(L) {}

  const WireLayout &wire() const { return L; }

  /// The layout of \p P laid out from an aligned start.
  const PresLayout &of(const PresNode *P);

  /// Wire end offset of \p P placed at chunk offset \p Off (a struct
  /// whose start is unaligned lays its members out from there), raising
  /// \p MaxAlign to its alignment.
  uint64_t placeWire(const PresNode *P, uint64_t Off, unsigned &MaxAlign);

private:
  struct Cursor {
    uint64_t WOff = 0, HOff = 0;
    unsigned WAlign = 1, HAlign = 1;
  };
  PresLayout compute(const PresNode *P);
  bool place(const PresNode *P, Cursor &C, std::vector<LayoutLeaf> *Out);

  const WireLayout &L;
  std::unordered_map<const PresNode *, PresLayout> Memo;
};

/// True when arrays of the type laid out as \p R may be copied whole with
/// memcpy: every leaf host-identical at equal offsets, equal strides.
bool presBitIdentical(const PresLayout &R);

//===----------------------------------------------------------------------===//
// Memcpy run merging
//===----------------------------------------------------------------------===//
//
// The memcpy pass merges a subtree's host-identical leaves into maximal
// byte runs.  A subtree whose merged runs reduce to one run covering the
// whole wire image, with the host image the same size, is "dense
// bit-identical": the emitter may replace its per-field chunk stores with
// a single block copy without changing any wire byte (there is no padding
// for closeChunk/putWire to zero).

struct MemcpyRun {
  uint64_t Off = 0;   ///< wire offset relative to the subtree start
  uint64_t Bytes = 0; ///< merged length
};

struct MemcpyRuns {
  /// Maximal merged runs in offset order.  Empty when Identical is false.
  std::vector<MemcpyRun> Runs;
  uint64_t WireSize = 0; ///< wire size of the subtree
  uint64_t HostSize = 0; ///< padded host sizeof
  unsigned Leaves = 0;   ///< scalar leaves merged into the runs
  /// False when some leaf is byte-swapped, differently sized, or at a
  /// diverging host offset -- the subtree cannot block-copy at all.
  bool Identical = false;
};

/// Merges the host-identical leaf runs of the subtree laid out as \p R.
MemcpyRuns memcpyRunsOf(const PresLayout &R);

/// True when \p R merged to a single run covering the whole subtree with
/// matching host size -- the precondition for whole-subtree memcpy.
bool denseBitIdentical(const MemcpyRuns &R);

//===----------------------------------------------------------------------===//
// Structural keys
//===----------------------------------------------------------------------===//

/// A stable string fingerprint of a presented type's *structure*: node
/// kinds, printed C types, field/discriminator names, bounds, and
/// allocation semantics, with cycles broken by back-references.  Two
/// nodes with equal keys marshal identically and share one out-of-line
/// helper (shrinking Table 2 object sizes).
std::string presStructureKey(const PresNode *P);

//===----------------------------------------------------------------------===//
// The plan IR
//===----------------------------------------------------------------------===//

/// Analysis record for one sequence item (a top-level parameter or a
/// struct field).  Computed once by buildSeqPlan; passes only read these
/// facts and write strategy flags into the steps.
struct PlanItem {
  const PresNode *Pres = nullptr; ///< null only in synthetic pass tests
  std::string Name;               ///< dump label
  bool Fixed = false;             ///< wire size is static
  uint64_t FixedSize = 0;         ///< PresLayout::WireSize when Fixed
  unsigned FixedAlign = 1;        ///< max interior alignment when Fixed
  bool Scalar = false;            ///< Prim/Enum
  bool HasUnion = false;          ///< subtree contains a union
  bool Recursive = false;         ///< already on the emission stack
  /// Lowered through an out-of-line helper call (recursive types always;
  /// every non-scalar aggregate unless the inline pass runs).
  bool OutOfLine = false;
  /// Eligible for chunk coalescing (set by the builder for scalars, by
  /// the inline pass for fixed aggregates).
  bool CoalesceOK = false;
  StorageClass Storage = StorageClass::Unbounded;
  uint64_t MaxBytes = 0; ///< bound when Storage != Unbounded
};

enum class StepKind {
  FixedChunk,
  VariableSegment,
  FramingHook,
  TraceHook,
  GatherRef
};

/// Message-framing positions owned by the concrete back end; the plan
/// records where they sit so coalescing never crosses them and the dump
/// shows the full message.
enum class HookKind { RequestHeader, RequestFinish, ReplyHeader, ReplyFinish };

/// Where a decode-side variable segment places unmarshaled storage.
enum class AllocKind { None, Arena, Heap };

/// One item inside a FixedChunk with its precomputed wire window.
struct PlanMember {
  unsigned Item = 0;     ///< index into SeqPlan::Items
  uint64_t WireOff = 0;  ///< chunk offset before this member's first atom
  uint64_t WireSize = 0; ///< bytes this member advances the chunk cursor
  /// Lower the whole member as one block copy (memcpy run-merge pass).
  bool Memcpy = false;
  uint64_t MemcpyBytes = 0;
};

struct MarshalStep {
  StepKind Kind = StepKind::VariableSegment;

  // FixedChunk: one coalesced buffer check + chunk-relative addressing.
  uint64_t Size = 0;  ///< exact bytes before chunk-alignment padding
  unsigned Align = 1; ///< max member alignment (dump/diagnostics)
  std::vector<PlanMember> Members;

  // VariableSegment: per-item lowering through emitValue.
  unsigned Item = 0;
  /// Bounded->fixed promotion: ensure this many bytes once up front, then
  /// marshal with no further space checks (0 = no promotion).
  uint64_t PreEnsureBytes = 0;
  /// Decode side may alias the request buffer instead of copying.
  bool Alias = false;
  AllocKind Alloc = AllocKind::None;

  // FramingHook.
  HookKind Hook = HookKind::RequestHeader;

  // TraceHook (--trace-hooks): lowers to flick_span_begin(kind, label)
  // when TraceBegin, flick_span_end() otherwise.
  bool TraceBegin = false;
  std::string TraceKind;  ///< span-kind enumerator, e.g. "FLICK_SPAN_MARSHAL"
  std::string TraceLabel; ///< span name literal (the plan label)

  // GatherRef (--gather-min-bytes): an encode-side VariableSegment whose
  // dense bulk copies should instead *borrow* the presented storage via
  // flick_buf_ref when at least this many bytes are in play (the emitter
  // keeps the copying path as the small-size / ref-overflow fallback).
  uint64_t GatherMinBytes = 0;
};

/// The plan for one generated function body (or one struct interior).
struct SeqPlan {
  std::string Label; ///< "<op>_encode_request" etc.; empty for interiors
  bool Encode = false;
  bool ServerSide = false;
  std::vector<PlanItem> Items;
  std::vector<MarshalStep> Steps;
};

/// Builds the strategy-neutral plan: analyzes every item and emits one
/// VariableSegment per non-void item (passes introduce chunks and
/// annotations afterwards).  \p Active is the set of nodes currently
/// being emitted (recursion context).  \p Names may be empty or parallel
/// to \p Items.
SeqPlan buildSeqPlan(const std::vector<const PresNode *> &Items,
                     const std::vector<std::string> &Names,
                     LayoutCache &Layouts, bool Encode, bool ServerSide,
                     const std::set<const PresNode *> &Active);

/// Renders the step list as stable text (one line per step, two-space
/// indent) for --dump-marshal-plan and the golden tests.
std::string dumpSeqPlanSteps(const SeqPlan &Plan);

/// Renders a full before/after record: header line, item table, and both
/// step lists.
std::string dumpSeqPlan(const SeqPlan &Before, const SeqPlan &After);

//===----------------------------------------------------------------------===//
// Shared policy predicates
//===----------------------------------------------------------------------===//
//
// The bounded/alias predicates are consulted both by the passes (to
// annotate the plan) and by the emitter (to generate the code), so the
// dumped plan can never drift from the emitted strategy.

/// Bytes to pre-ensure for a bounded variable segment, or 0 when the
/// segment does not qualify under \p Threshold (paper §3.1's 8KB rule;
/// the +16 covers framing slop).
uint64_t boundedPreEnsureBytes(const PresNode *P, const WireLayout &L,
                               uint64_t Threshold);

/// Type-level half of the counted-array alias decision: element bytes are
/// usable in place straight from the wire.
bool aliasableCountedElem(const PresCounted *P, const WireLayout &L);

/// Type-level half of the string alias decision (the wire must carry the
/// NUL for the presented char* to point into the buffer).
bool aliasableString(const PresString *P, const WireLayout &L);

/// True when an encode-side array segment of \p P's elements would lower
/// to a single dense memcpy from presented storage (byte elements, or --
/// when the memcpy pass is on -- host-identical atoms / bit-identical
/// aggregates), i.e. the bulk copy the gather pass can replace with a
/// borrowed reference.
bool gatherableSegment(const PresNode *P, LayoutCache &Layouts,
                       bool MemcpyOn);

} // namespace flick

#endif // FLICK_BACKENDS_MARSHALPLAN_H
