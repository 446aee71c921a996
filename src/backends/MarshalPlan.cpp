//===- backends/MarshalPlan.cpp - Marshal-plan IR and analysis ------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis half of the back end: shape classification, the layout
/// walk and its queries (bit-identity, memcpy run merging), structural
/// type keys, and the strategy-neutral plan builder.  Nothing in this file
/// touches CAST output; the pass pipeline (Passes.cpp) rewrites the plans
/// built here and the plan emitter (PlanEmit.cpp) lowers them.
///
//===----------------------------------------------------------------------===//

#include "backends/MarshalPlan.h"
#include <algorithm>
#include <cassert>
#include <map>

using namespace flick;

//===----------------------------------------------------------------------===//
// Shared shape classification
//===----------------------------------------------------------------------===//

PKind flick::classifyPres(const PresNode *P) {
  if (!P)
    return PKind::Void;
  switch (P->kind()) {
  case PresNode::Kind::Void:
    return PKind::Void;
  case PresNode::Kind::Prim:
  case PresNode::Kind::Enum:
    return PKind::Scalar;
  case PresNode::Kind::String:
    return PKind::Str;
  case PresNode::Kind::FixedArray:
    return PKind::FixArr;
  case PresNode::Kind::OptPtr:
    return PKind::Opt;
  case PresNode::Kind::Struct:
  case PresNode::Kind::Counted:
  case PresNode::Kind::Union:
    return PKind::Agg;
  }
  return PKind::Void;
}

namespace {

bool containsUnionImpl(const PresNode *P, std::set<const PresNode *> &Seen) {
  if (!P || !Seen.insert(P).second)
    return false;
  switch (P->kind()) {
  case PresNode::Kind::Union:
    return true;
  case PresNode::Kind::Struct:
    for (const PresField &F : cast<PresStruct>(P)->fields())
      if (containsUnionImpl(F.Pres, Seen))
        return true;
    return false;
  case PresNode::Kind::FixedArray:
    return containsUnionImpl(cast<PresFixedArray>(P)->elem(), Seen);
  case PresNode::Kind::Counted:
    return containsUnionImpl(cast<PresCounted>(P)->elem(), Seen);
  case PresNode::Kind::OptPtr:
    return containsUnionImpl(cast<PresOptPtr>(P)->elem(), Seen);
  default:
    return false;
  }
}

} // namespace

bool flick::presContainsUnion(const PresNode *P) {
  std::set<const PresNode *> Seen;
  return containsUnionImpl(P, Seen);
}

bool flick::isAtomicMint(const MintType *T) {
  switch (T->kind()) {
  case MintType::Kind::Integer:
  case MintType::Kind::Float:
  case MintType::Kind::Char:
  case MintType::Kind::Boolean:
    return true;
  default:
    return false;
  }
}

bool flick::isByteElem(const WireLayout &L, const MintType *T) {
  (void)L;
  if (T->kind() == MintType::Kind::Char)
    return true;
  const auto *I = dyn_cast<MintInteger>(T);
  return I && I->bits() == 8;
}

const char *flick::endianSuffix(WireKind K) {
  switch (K) {
  case WireKind::Xdr:
  case WireKind::CdrBE:
    return "be";
  case WireKind::CdrLE:
    return "le";
  case WireKind::MachTyped:
  case WireKind::FlukeReg:
    return "ne";
  }
  return "ne";
}

std::string flick::encFnFor(const WireLayout &L, unsigned Size) {
  if (Size == 1)
    return "flick_enc_u8";
  return "flick_enc_u" + std::to_string(Size * 8) + endianSuffix(L.kind());
}

std::string flick::decFnFor(const WireLayout &L, unsigned Size) {
  if (Size == 1)
    return "flick_dec_u8";
  return "flick_dec_u" + std::to_string(Size * 8) + endianSuffix(L.kind());
}

unsigned flick::chunkAlignFor(const WireLayout &L) {
  return L.kind() == WireKind::Xdr ? 4 : 8;
}

//===----------------------------------------------------------------------===//
// The layout walk
//===----------------------------------------------------------------------===//

namespace {

/// Host C size (== alignment) of a presented scalar: natural alignment,
/// enums int-sized.
unsigned hostScalarSize(const PresNode *P) {
  if (isa<PresEnum>(P))
    return 4;
  const MintType *T = P->mint();
  switch (T->kind()) {
  case MintType::Kind::Integer:
    return cast<MintInteger>(T)->bits() / 8;
  case MintType::Kind::Float:
    return cast<MintFloat>(T)->bits() / 8;
  default:
    return 1;
  }
}

PresLayout variableLayout() {
  PresLayout R;
  R.Fixed = false;
  return R;
}

} // namespace

const PresLayout &LayoutCache::of(const PresNode *P) {
  auto [It, Inserted] = Memo.try_emplace(P);
  PresLayout &Slot = It->second; // stays valid while compute() inserts
  if (Inserted) {
    // The placeholder reads as variable-size, so a cycle (which only a
    // pointer can close, and pointers are never fixed) ends the walk.
    Slot.Fixed = false;
    Slot = compute(P);
  }
  return Slot;
}

PresLayout LayoutCache::compute(const PresNode *P) {
  PresLayout R;
  if (!P)
    return R;
  switch (P->kind()) {
  case PresNode::Kind::Void:
    break;
  case PresNode::Kind::Prim:
  case PresNode::Kind::Enum: {
    LayoutLeaf Leaf;
    Leaf.WireSize = L.atomSize(P->mint());
    Leaf.HostSize = hostScalarSize(P);
    Leaf.HostIdentical =
        L.hostIdentical(P->mint()) && Leaf.WireSize == Leaf.HostSize;
    R.WireSize = Leaf.WireSize;
    R.WireAlign = L.atomAlign(P->mint());
    R.HostSize = Leaf.HostSize;
    R.HostAlign = static_cast<unsigned>(Leaf.HostSize);
    R.Leaves.push_back(Leaf);
    break;
  }
  case PresNode::Kind::Struct: {
    Cursor C;
    for (const PresField &F : cast<PresStruct>(P)->fields())
      if (!place(F.Pres, C, &R.Leaves))
        return variableLayout();
    R.WireSize = C.WOff;
    R.WireAlign = C.WAlign;
    R.HostSize = alignUpTo(C.HOff, C.HAlign);
    R.HostAlign = C.HAlign;
    break;
  }
  case PresNode::Kind::FixedArray: {
    const auto *A = cast<PresFixedArray>(P);
    uint64_t N = A->count();
    if (isByteElem(L, A->elem()->mint())) {
      // Packed bytes, padded as a whole: one leaf.
      if (N)
        R.Leaves.push_back({0, N, 0, N, static_cast<unsigned>(N), true});
      R.WireSize = L.padded(N);
      R.WireAlign = L.padUnit();
      R.HostSize = N;
      break;
    }
    const PresLayout &E = of(A->elem());
    if (!E.Fixed)
      return variableLayout();
    for (uint64_t I = 0; I != N; ++I)
      for (LayoutLeaf Leaf : E.Leaves) {
        Leaf.WireOff += I * E.WireStride;
        Leaf.HostOff += I * E.HostSize;
        R.Leaves.push_back(Leaf);
      }
    R.WireSize = N * E.WireStride;
    R.WireAlign = E.WireAlign;
    R.HostSize = N * E.HostSize;
    R.HostAlign = E.HostAlign;
    break;
  }
  case PresNode::Kind::Counted:
  case PresNode::Kind::String:
  case PresNode::Kind::OptPtr:
  case PresNode::Kind::Union:
    return variableLayout();
  }
  R.WireStride = L.padded(alignUpTo(R.WireSize, R.WireAlign));
  return R;
}

/// Lays \p P out at the cursor.  Every node but a struct starts at its
/// own alignment, so its record shifts into place; a struct's members lie
/// inline on the wire, so a struct starting off its alignment is laid out
/// member by member from where it starts.
bool LayoutCache::place(const PresNode *P, Cursor &C,
                        std::vector<LayoutLeaf> *Out) {
  const PresLayout &R = of(P);
  if (!R.Fixed)
    return false;
  uint64_t HStart = alignUpTo(C.HOff, R.HostAlign);
  if (P && isa<PresStruct>(P) && C.WOff % R.WireAlign != 0) {
    C.HOff = HStart;
    for (const PresField &F : cast<PresStruct>(P)->fields())
      place(F.Pres, C, Out);
  } else {
    uint64_t WStart = alignUpTo(C.WOff, R.WireAlign);
    if (Out)
      for (LayoutLeaf Leaf : R.Leaves) {
        Leaf.WireOff += WStart;
        Leaf.HostOff += HStart;
        Out->push_back(Leaf);
      }
    C.WOff = WStart + R.WireSize;
    C.WAlign = std::max(C.WAlign, R.WireAlign);
  }
  C.HOff = HStart + R.HostSize;
  C.HAlign = std::max(C.HAlign, R.HostAlign);
  return true;
}

uint64_t LayoutCache::placeWire(const PresNode *P, uint64_t Off,
                                unsigned &MaxAlign) {
  Cursor C;
  C.WOff = Off;
  C.WAlign = MaxAlign;
  bool Ok = place(P, C, nullptr);
  (void)Ok;
  assert(Ok && "placing a variable-size node");
  MaxAlign = C.WAlign;
  return C.WOff;
}

bool flick::presBitIdentical(const PresLayout &R) {
  if (!R.Fixed || R.WireStride != R.HostSize)
    return false;
  return std::all_of(R.Leaves.begin(), R.Leaves.end(),
                     [](const LayoutLeaf &Leaf) {
                       return Leaf.HostIdentical &&
                              Leaf.WireOff == Leaf.HostOff;
                     });
}

//===----------------------------------------------------------------------===//
// Memcpy run merging
//===----------------------------------------------------------------------===//

MemcpyRuns flick::memcpyRunsOf(const PresLayout &R) {
  MemcpyRuns Out;
  if (!R.Fixed)
    return Out;
  for (const LayoutLeaf &Leaf : R.Leaves) {
    if (!Leaf.HostIdentical || Leaf.WireOff != Leaf.HostOff)
      return MemcpyRuns{};
    if (!Out.Runs.empty() &&
        Out.Runs.back().Off + Out.Runs.back().Bytes == Leaf.WireOff)
      Out.Runs.back().Bytes += Leaf.WireSize;
    else
      Out.Runs.push_back({Leaf.WireOff, Leaf.WireSize});
    Out.Leaves += Leaf.Scalars;
  }
  Out.WireSize = R.WireSize;
  Out.HostSize = R.HostSize;
  Out.Identical = true;
  return Out;
}

bool flick::denseBitIdentical(const MemcpyRuns &R) {
  return R.Identical && R.Leaves >= 2 && R.WireSize >= 8 &&
         R.Runs.size() == 1 && R.Runs[0].Off == 0 &&
         R.Runs[0].Bytes == R.WireSize && R.HostSize == R.WireSize;
}

//===----------------------------------------------------------------------===//
// Structural keys
//===----------------------------------------------------------------------===//

namespace {

std::string atomKeyOf(const MintType *T) {
  switch (T->kind()) {
  case MintType::Kind::Integer: {
    const auto *I = cast<MintInteger>(T);
    return (I->isSigned() ? "i" : "u") + std::to_string(I->bits());
  }
  case MintType::Kind::Float:
    return 'f' + std::to_string(cast<MintFloat>(T)->bits());
  case MintType::Kind::Char:
    return "c";
  case MintType::Kind::Boolean:
    return "b";
  default:
    return "?";
  }
}

std::string ctypeKeyOf(const PresNode *P) {
  return P->ctype() ? printCastType(P->ctype(), "") : "?";
}

std::string allocKeyOf(const AllocSemantics &A) {
  std::string S;
  if (A.AllowBufferAlias)
    S += 'a';
  if (A.AllowStackAlloc)
    S += 's';
  if (A.AllowHeap)
    S += 'h';
  return S;
}

std::string boundKeyOf(const PresNode *P) {
  const auto *MA = dyn_cast<MintArray>(P->mint());
  if (!MA || !MA->isBounded())
    return "u";
  return 'b' + std::to_string(MA->maxLen());
}

void structureKeyImpl(const PresNode *P, std::string &Out,
                      std::map<const PresNode *, unsigned> &Seen) {
  if (!P) {
    Out += "v;";
    return;
  }
  auto Known = Seen.find(P);
  if (Known != Seen.end()) {
    Out += "@" + std::to_string(Known->second) + ";";
    return;
  }
  Seen.emplace(P, static_cast<unsigned>(Seen.size()));
  switch (P->kind()) {
  case PresNode::Kind::Void:
    Out += "v;";
    return;
  case PresNode::Kind::Prim:
    Out += "p(" + atomKeyOf(P->mint()) + "," + ctypeKeyOf(P) + ");";
    return;
  case PresNode::Kind::Enum:
    Out += "e(" + atomKeyOf(P->mint()) + "," + ctypeKeyOf(P) + ");";
    return;
  case PresNode::Kind::Struct: {
    Out += "s(" + ctypeKeyOf(P) + "){";
    for (const PresField &F : cast<PresStruct>(P)->fields()) {
      Out += F.CName + ":";
      structureKeyImpl(F.Pres, Out, Seen);
    }
    Out += "};";
    return;
  }
  case PresNode::Kind::FixedArray: {
    const auto *A = cast<PresFixedArray>(P);
    Out += "a(" + std::to_string(A->count()) + "," + ctypeKeyOf(P) + ")";
    structureKeyImpl(A->elem(), Out, Seen);
    return;
  }
  case PresNode::Kind::Counted: {
    const auto *C = cast<PresCounted>(P);
    Out += "c(" + C->lenField() + "," + C->bufField() + "," + C->maxField() +
           "," + boundKeyOf(P) + "," + allocKeyOf(C->alloc()) + "," +
           ctypeKeyOf(P) + ")";
    structureKeyImpl(C->elem(), Out, Seen);
    return;
  }
  case PresNode::Kind::String:
    Out += "str(" + boundKeyOf(P) + "," +
           allocKeyOf(cast<PresString>(P)->alloc()) + ");";
    return;
  case PresNode::Kind::OptPtr: {
    const auto *O = cast<PresOptPtr>(P);
    Out += "o(" + allocKeyOf(O->alloc()) + "," + ctypeKeyOf(P) + ")";
    structureKeyImpl(O->elem(), Out, Seen);
    return;
  }
  case PresNode::Kind::Union: {
    const auto *U = cast<PresUnion>(P);
    Out += "u(" + ctypeKeyOf(P) + "," + U->discField() + "," +
           U->unionField() + ")[";
    structureKeyImpl(U->discPres(), Out, Seen);
    Out += "]{";
    for (const PresUnionArm &Arm : U->arms()) {
      for (int64_t V : Arm.CaseValues)
        Out += std::to_string(V) + ",";
      if (Arm.IsDefault)
        Out += "d";
      Out += ":" + Arm.ArmField + ":";
      structureKeyImpl(Arm.Pres, Out, Seen);
    }
    Out += "};";
    return;
  }
  }
}

} // namespace

std::string flick::presStructureKey(const PresNode *P) {
  std::string Out;
  std::map<const PresNode *, unsigned> Seen;
  structureKeyImpl(P, Out, Seen);
  return Out;
}

//===----------------------------------------------------------------------===//
// The plan builder
//===----------------------------------------------------------------------===//

SeqPlan flick::buildSeqPlan(const std::vector<const PresNode *> &Items,
                            const std::vector<std::string> &Names,
                            LayoutCache &Layouts, bool Encode,
                            bool ServerSide,
                            const std::set<const PresNode *> &Active) {
  SeqPlan Plan;
  Plan.Encode = Encode;
  Plan.ServerSide = ServerSide;
  for (size_t I = 0; I != Items.size(); ++I) {
    const PresNode *P = Items[I];
    PlanItem It;
    It.Pres = P;
    It.Name = I < Names.size() && !Names[I].empty()
                  ? Names[I]
                  : "item" + std::to_string(I);
    PKind K = classifyPres(P);
    if (K == PKind::Void) {
      // Keep the item (Items stays index-parallel with the value list),
      // but a void marshals nothing: no step.
      Plan.Items.push_back(std::move(It));
      continue;
    }
    It.Scalar = K == PKind::Scalar;
    It.HasUnion = presContainsUnion(P);
    It.Recursive = Active.count(P) != 0;
    const PresLayout &R = Layouts.of(P);
    It.Fixed = R.Fixed;
    if (It.Fixed) {
      It.FixedSize = R.WireSize;
      It.FixedAlign = R.WireAlign;
      It.Storage = StorageClass::Fixed;
      It.MaxBytes = R.WireSize;
    } else if (P->mint()) {
      StorageInfo SI = analyzeStorage(P->mint(), Layouts.wire());
      It.Storage = SI.Class;
      It.MaxBytes = SI.MaxBytes;
    }
    // Build-time strategy mirrors the no-pass world: only recursion forces
    // nothing, every non-scalar goes out of line, and only scalars may
    // coalesce.  The inline pass relaxes both.
    It.OutOfLine = It.Recursive || !It.Scalar;
    It.CoalesceOK = It.Scalar && It.Fixed && !It.HasUnion && !It.Recursive;
    auto Idx = static_cast<unsigned>(Plan.Items.size());
    Plan.Items.push_back(std::move(It));
    MarshalStep St;
    St.Kind = StepKind::VariableSegment;
    St.Item = Idx;
    Plan.Steps.push_back(St);
  }
  return Plan;
}

//===----------------------------------------------------------------------===//
// Plan dumping
//===----------------------------------------------------------------------===//

namespace {

const char *hookName(HookKind K) {
  switch (K) {
  case HookKind::RequestHeader:
    return "request_header";
  case HookKind::RequestFinish:
    return "request_finish";
  case HookKind::ReplyHeader:
    return "reply_header";
  case HookKind::ReplyFinish:
    return "reply_finish";
  }
  return "?";
}

std::string itos(uint64_t V) { return std::to_string(V); }

} // namespace

std::string flick::dumpSeqPlanSteps(const SeqPlan &Plan) {
  std::string Out;
  for (const MarshalStep &St : Plan.Steps) {
    switch (St.Kind) {
    case StepKind::FramingHook:
      Out += std::string("  framing ") + hookName(St.Hook) + "\n";
      break;
    case StepKind::TraceHook:
      Out += std::string("  trace ") + (St.TraceBegin ? "begin " : "end") +
             (St.TraceBegin ? St.TraceLabel : "") + "\n";
      break;
    case StepKind::VariableSegment: {
      Out += "  segment [" + itos(St.Item) + "] " + Plan.Items[St.Item].Name;
      if (St.PreEnsureBytes)
        Out += " pre_ensure=" + itos(St.PreEnsureBytes);
      if (St.Alloc == AllocKind::Arena)
        Out += " alloc=arena";
      else if (St.Alloc == AllocKind::Heap)
        Out += " alloc=heap";
      if (St.Alias)
        Out += " alias";
      Out += "\n";
      break;
    }
    case StepKind::GatherRef:
      Out += "  GatherRef [" + itos(St.Item) + "] " + Plan.Items[St.Item].Name +
             " min_bytes=" + itos(St.GatherMinBytes) + "\n";
      break;
    case StepKind::FixedChunk: {
      Out += "  chunk size=" + itos(St.Size) + " align=" + itos(St.Align) +
             "\n";
      for (const PlanMember &M : St.Members) {
        Out += "    [" + itos(M.Item) + "] " + Plan.Items[M.Item].Name +
               " off=" + itos(M.WireOff) + " size=" + itos(M.WireSize);
        if (M.Memcpy)
          Out += " memcpy=" + itos(M.MemcpyBytes);
        Out += "\n";
      }
      break;
    }
    }
  }
  return Out;
}

std::string flick::dumpSeqPlan(const SeqPlan &Before, const SeqPlan &After) {
  std::string Out = "== " + After.Label + " (";
  Out += After.Encode ? "encode" : "decode";
  if (After.ServerSide)
    Out += ", server";
  Out += ")\n";
  Out += "items:\n";
  for (size_t I = 0; I != After.Items.size(); ++I) {
    const PlanItem &It = After.Items[I];
    Out += "  [" + itos(I) + "] " + It.Name + ":";
    if (classifyPres(It.Pres) == PKind::Void)
      Out += " void";
    else if (It.Fixed)
      Out += " fixed size=" + itos(It.FixedSize) +
             " align=" + itos(It.FixedAlign);
    else if (It.Storage == StorageClass::Bounded)
      Out += " bounded max=" + itos(It.MaxBytes);
    else
      Out += " unbounded";
    if (It.Scalar)
      Out += " scalar";
    if (It.HasUnion)
      Out += " union";
    if (It.Recursive)
      Out += " recursive";
    if (It.OutOfLine)
      Out += " out-of-line";
    if (It.CoalesceOK)
      Out += " coalesce";
    Out += "\n";
  }
  Out += "before:\n" + dumpSeqPlanSteps(Before);
  Out += "after:\n" + dumpSeqPlanSteps(After);
  Out += "\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Shared policy predicates
//===----------------------------------------------------------------------===//

uint64_t flick::boundedPreEnsureBytes(const PresNode *P, const WireLayout &L,
                                      uint64_t Threshold) {
  if (!P || !P->mint())
    return 0;
  StorageInfo SI = analyzeStorage(P->mint(), L);
  if (SI.Class != StorageClass::Bounded)
    return 0;
  // +16 covers the length words and framing slop around the segment.
  if (SI.MaxBytes + 16 > Threshold)
    return 0;
  return SI.MaxBytes + 16;
}

bool flick::aliasableCountedElem(const PresCounted *P, const WireLayout &L) {
  const MintType *EM = P->elem()->mint();
  if (!isAtomicMint(EM) || !L.hostIdentical(EM))
    return false;
  // XDR pads every element to 4 bytes, so only <=4-byte atoms lie
  // contiguously in the buffer.
  return L.atomSize(EM) <= 4 || L.kind() != WireKind::Xdr;
}

bool flick::aliasableString(const PresString *P, const WireLayout &L) {
  (void)P;
  // The presented char* can only point into the buffer when the wire
  // carries the terminating NUL (CDR counts it; XDR does not).
  return L.stringCountsNul();
}

bool flick::gatherableSegment(const PresNode *P, LayoutCache &Layouts,
                              bool MemcpyOn) {
  const WireLayout &L = Layouts.wire();
  const PresNode *Elem = nullptr;
  if (const auto *C = dyn_cast_or_null<PresCounted>(P))
    Elem = C->elem();
  else if (const auto *A = dyn_cast_or_null<PresFixedArray>(P))
    Elem = A->elem();
  if (!Elem)
    return false;
  const MintType *EM = Elem->mint();
  // Byte arrays always lower to one dense copy from presented storage.
  if (isByteElem(L, EM))
    return true;
  // The wider cases are the memcpy pass's bulk copies: without that pass
  // the emitter marshals per element and there is no copy to replace.
  if (!MemcpyOn)
    return false;
  if (isAtomicMint(EM) && L.hostIdentical(EM))
    return true;
  return classifyPres(Elem) != PKind::Scalar && Elem->ctype() &&
         presBitIdentical(Layouts.of(Elem));
}
