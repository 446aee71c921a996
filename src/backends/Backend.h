//===- backends/Backend.h - Optimizing back-end base ------------*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The back end consumes a PRES_C and emits the C stubs (paper §2.3).  The
/// Backend base class is the shared optimization library: storage analysis
/// driving coalesced buffer checks, chunk-pointer addressing, memcpy array
/// copying, aggressive inlining with out-of-line helpers only for recursive
/// types, scratch-allocation / buffer-alias parameter management, and
/// word-at-a-time server demultiplexing (paper §3).  Concrete back ends
/// (XDR/ONC, IIOP/CDR, Mach, Fluke, naive) override only the wire format
/// and message framing -- the specialization structure Table 1 measures.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_BACKENDS_BACKEND_H
#define FLICK_BACKENDS_BACKEND_H

#include "backends/MarshalPlan.h"
#include "backends/Passes.h"
#include "cast/Builder.h"
#include "mint/Wire.h"
#include "pres/Pres.h"
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

namespace flick {

// BackendOptions (the pass-set façade) lives in backends/Passes.h.

/// The generated files for one compilation.  CommonSrc holds out-of-line
/// per-type marshal functions and is only non-empty for non-inlining
/// back ends (the naive baseline), mirroring rpcgen's `_xdr.c` file.
struct BackendOutput {
  std::string HeaderName;
  std::string Header;
  std::string ClientSrc;
  std::string ServerSrc;
  std::string CommonSrc;
  /// Accumulated --dump-marshal-plan text (empty unless DumpPlans).
  std::string PlanDump;
};

class StubGen;

/// Base class of all back ends.
class Backend {
public:
  explicit Backend(BackendOptions Opts) : Opts(Opts) {}
  virtual ~Backend();

  /// Short tag ("xdr", "iiop", "mach", "fluke", "naive").
  virtual std::string name() const = 0;

  /// The wire encoding this back end produces.
  virtual WireKind wire() const = 0;

  /// Generates header, client source, and server source for \p P.
  BackendOutput generate(PresC &P, const std::string &BaseName);

  const BackendOptions &options() const { return Opts; }

protected:
  friend class StubGen;

  //===--------------------------------------------------------------------===//
  // Framing hooks.  Each emits statements into the current function; the
  // StubGen provides chunked marshal utilities so framing enjoys the same
  // optimizations as payload data.
  //===--------------------------------------------------------------------===//

  /// Client side: marshal the request message header for \p Op.  `_xid`
  /// names the transaction id variable in scope.
  virtual void emitRequestHeader(StubGen &G, const PresCInterface &If,
                                 const PresCOperation &Op) = 0;

  /// Client side: run after the request body is marshaled (e.g. GIOP
  /// patches the message-size field).
  virtual void emitRequestFinish(StubGen &G, const PresCInterface &If,
                                 const PresCOperation &Op) {}

  /// Server side: marshal the reply header.  `_xid` is in scope; \p Status
  /// is the FLICK_REPLY_* status expression to embed.
  virtual void emitReplyHeader(StubGen &G, const PresCInterface &If,
                               CastExpr *Status) = 0;

  /// Server side: run after the reply body (size patches).
  virtual void emitReplyFinish(StubGen &G, const PresCInterface &If) {}

  /// Client side: parse the reply header; must declare `uint32_t _status`
  /// holding the FLICK_REPLY_* word and bail out with FLICK_ERR_DECODE on
  /// framing errors.
  virtual void emitReplyHeaderDecode(StubGen &G,
                                     const PresCInterface &If) = 0;

  /// Server side: parse the request header inside the dispatch function and
  /// emit the demultiplexer.  Must declare `uint32_t _xid`, validate
  /// framing, and route to per-operation case bodies obtained from
  /// \p CaseBody (paper §3.3, "Message Demultiplexing").  The default
  /// implementation in Backend.cpp handles numeric-discriminator formats;
  /// IIOP overrides it with word-at-a-time operation-name matching.
  virtual void emitDispatchDemux(
      StubGen &G, const PresCInterface &If,
      const std::function<std::vector<CastStmt *>(const PresCOperation &)>
          &CaseBody);

  /// Reads the numeric request discriminator during dispatch; used by the
  /// default demux.  Must emit code declaring `uint32_t _opcode`.
  virtual void emitRequestHeaderDecode(StubGen &G,
                                       const PresCInterface &If) = 0;

  BackendOptions Opts;
};

//===----------------------------------------------------------------------===//
// StubGen: per-compilation code generation state
//===----------------------------------------------------------------------===//

/// Generates all stub code for one PresC with one backend.  Exposes the
/// chunked marshal machinery to the framing hooks.
class StubGen {
public:
  StubGen(Backend &BE, PresC &P, const std::string &BaseName);

  BackendOutput run();

  //===--------------------------------------------------------------------===//
  // Emission context (used by Backend framing hooks)
  //===--------------------------------------------------------------------===//

  CastBuilder &builder() { return B; }
  const WireLayout &layout() const { return Layout; }
  const BackendOptions &options() const { return BE.options(); }

  /// Appends a statement to the function currently being generated.
  void stmt(CastStmt *S) { Cur->push_back(S); }

  /// The statement list currently being generated.
  std::vector<CastStmt *> *curStmts() { return Cur; }
  void setCurStmts(std::vector<CastStmt *> *S) { Cur = S; }

  /// Opens a fixed-size marshal chunk of \p Bytes (encode: ensure+grab;
  /// decode: check+take) in the direction of the function being generated.
  void openChunk(uint64_t Bytes);
  void closeChunk();
  bool chunkOpen() const { return ChunkActive; }

  /// Wire-level chunk accessors for framing code (no presentation
  /// conversion).  put* store at the current chunk offset (encode side);
  /// get* return the loaded value expression (decode side).
  void putU8(CastExpr *V);
  void putU16(CastExpr *V);
  void putU32(CastExpr *V);
  void putU64(CastExpr *V);
  CastExpr *getU8();
  CastExpr *getU16();
  CastExpr *getU32();
  CastExpr *getU64();
  /// Raw bytes at the current chunk offset (e.g. the "GIOP" magic).
  void putBytes(const std::string &Bytes);
  uint64_t chunkOffset() const { return ChunkOff; }

  /// Emits the full marshal (Encode=true) or unmarshal code for \p P with
  /// presented value \p Val.  Respects all optimization options.
  void emitValue(const PresNode *P, CastExpr *Val, bool Encode);

  /// True while generating server-side code (enables alias/scratch).
  bool serverSide() const { return ServerSide; }

  /// Expression for the buffer variable in scope (`_buf` inside helpers,
  /// `_req` while the dispatcher parses the request header).
  CastExpr *bufExpr() { return B.id(BufName); }
  void setBufName(const std::string &N) { BufName = N; }

  /// Records the current encode length in a fresh variable so framing can
  /// patch a size field later; returns the variable name (also kept as
  /// lastMark()).
  std::string markPosition();
  const std::string &lastMark() const { return LastMark; }

  /// Emits a chunk-boundary alignment to \p Align bytes (no-op for 1).
  void alignTo(unsigned Align);

  /// Chunk alignment for this wire format (4 for XDR, 8 otherwise).
  unsigned chunkAlign() const;

  /// Error-check helper: `if (<Call>) return <ErrId>;`
  void checkCall(CastExpr *Call, const char *ErrId);

  /// `if (!flick_buf_check(_buf, N)) return FLICK_ERR_DECODE;`
  void checkAvail(CastExpr *N);

  /// Unique local variable name.
  std::string freshVar(const std::string &Hint);

private:
  /// Out-of-line helpers are keyed by (structural type key, direction),
  /// so structurally identical presentations share one emitted helper
  /// (shrinking Table 2 object sizes).
  using HelperKey = std::pair<std::string, bool>;

  // Top-level generation.
  void genExcEncodeHelper(const PresCInterface &If);
  void genOpHelpers(const PresCInterface &If, const PresCOperation &Op);
  void genClientStub(const PresCInterface &If, const PresCOperation &Op);
  void genServerDispatch(const PresCInterface &If);
  std::vector<CastStmt *> genDispatchCase(const PresCInterface &If,
                                          const PresCOperation &Op);

  /// Finishes a generated function: wraps \p Stmts into a CDFunc placed per
  /// the inlining policy (header static-inline vs out-of-line prototype +
  /// definition in the given source file).
  void placeHelperFunc(CDFunc *Proto, CSBlock *Body, bool IntoClient,
                       bool IntoServer);

  // Marshal core.
  void emitValueInner(const PresNode *P, CastExpr *Val, bool Encode);
  void emitFixedInChunk(const PresNode *P, CastExpr *Val, bool Encode);
  void emitSequence(
      const std::vector<std::pair<const PresNode *, CastExpr *>> &Items,
      bool Encode);

  /// Lowers a transformed plan: FixedChunks become openChunk /
  /// per-member stores / closeChunk, VariableSegments route through
  /// emitValue, FramingHooks call back into \p HookFn.
  void emitPlanSteps(const SeqPlan &Plan, const std::vector<CastExpr *> &Vals,
                     const std::function<void(HookKind)> &HookFn);

  /// Lowers one chunk member marked by the memcpy pass as a single block
  /// copy (with a layout static_assert in the generated code).
  void emitMemberMemcpy(const PresNode *P, CastExpr *Val, const PlanMember &M,
                        bool Encode);
  void emitStruct(const PresStruct *P, CastExpr *Val, bool Encode);
  void emitCounted(const PresCounted *P, CastExpr *Val, bool Encode);
  void emitString(const PresString *P, CastExpr *Val, bool Encode);
  void emitOptPtr(const PresOptPtr *P, CastExpr *Val, bool Encode);
  void emitUnion(const PresUnion *P, CastExpr *Val, bool Encode);
  void emitAtomicValue(const PresNode *P, CastExpr *Val, bool Encode);

  /// Shared element-marshal path for fixed and counted arrays.
  void emitArrayElems(const PresNode *Elem, CastExpr *BaseE, CastExpr *CountE,
                      bool Encode);

  /// Emits the encode-side bulk copy of \p NB bytes from \p BaseE:
  /// ensure+grab+memcpy, or -- inside a GatherRef step -- a size branch
  /// between flick_buf_ref and that copy.
  void emitBulkEncode(const std::string &NB, CastExpr *BaseE);

  /// Wire stride of one fixed-size array element (padded to alignment).
  uint64_t elemStrideOf(const PresNode *Elem) const;

  /// Allocates \p Bytes of unmarshal storage per semantics/options/side and
  /// returns the (void*) expression.
  CastExpr *allocExpr(const AllocSemantics &A, CastExpr *Bytes);

  /// Per-datum (naive) atomic put/get.
  void emitNaiveAtomic(const PresNode *P, CastExpr *Val, bool Encode);

  /// Calls (emitting the definition on first use) an out-of-line marshal
  /// helper for \p P; used for recursive types and when inlining is off.
  void callHelper(const PresNode *P, CastExpr *ValAddr, bool Encode);

  /// Deep-free helper for a presented type; returns its name.
  std::string freeHelper(const PresNode *P);

  /// Emits deep-free statements for \p Val of presentation \p P (may call
  /// freeHelper for aggregates).
  void emitFree(const PresNode *P, CastExpr *Val);

  Backend &BE;
  PresC &P;
  std::string BaseName;
  CastBuilder B;
  WireLayout Layout;
  /// The optimization pipeline run over every built plan.
  PassPipeline Pipeline;

  /// Plan context for the next top-level emitSequence, set by
  /// genOpHelpers and consumed (then cleared) when the sequence starts:
  /// framing hook steps to splice in, the dump label, item names, and
  /// the callback that lowers FramingHook steps to backend framing.
  std::vector<HookKind> NextPreHooks, NextPostHooks;
  std::function<void(HookKind)> PlanHookFn;
  std::string NextPlanLabel;
  std::vector<std::string> NextPlanNames;
  /// Accumulated --dump-marshal-plan text; copied into the output.
  std::string PlanDump;

  CastFile HeaderFile, ClientFile, ServerFile, CommonFile;
  std::vector<CastStmt *> *Cur = nullptr;
  bool ServerSide = false;
  /// Inside an out-of-line marshal helper, which both sides share.
  bool InHelper = false;
  bool UseEnv = false;

  // Chunk state.
  bool ChunkActive = false;
  bool ChunkEncode = false;
  std::string ChunkVar;
  uint64_t ChunkOff = 0;
  uint64_t ChunkCap = 0;
  unsigned ChunkCounter = 0;
  /// The open decode chunk's `_chkN = flick_buf_take(...)` declaration,
  /// and whether any chunk address has been emitted since it opened.
  CastStmt *ChunkDecl = nullptr;
  bool ChunkRead = false;
  /// Whether the function body being generated names `_ar`.
  bool ArenaRead = false;
  unsigned VarCounter = 0;
  /// When positive (encode side), buffer space is pre-ensured for the
  /// current bounded segment and ensure calls are elided (paper §3.1).
  unsigned NoEnsure = 0;
  /// When positive, the current GatherRef step's threshold: bulk encode
  /// copies of at least this many bytes lower to flick_buf_ref (borrow)
  /// with the plain copy kept as the runtime small-size branch.  Zero
  /// outside GatherRef steps and inside out-of-line helpers.
  uint64_t GatherMin = 0;
  /// Direction of the function body being generated (mirrors the Encode
  /// argument; consulted by openChunk/alignTo).
  bool CurEncode = false;

  // Recursion detection and generated helpers.
  std::set<const PresNode *> Emitting;
  const PresNode *HelperRoot = nullptr;
  std::map<HelperKey, std::string> Helpers;
  /// Prototypes for out-of-line helpers (header).
  std::vector<CastDecl *> HelperProtos;
  /// static-inline helper definitions (header; inlining mode).
  std::vector<CastDecl *> HelperDefs;
  /// Out-of-line helper definitions (common source; naive mode).
  std::vector<CastDecl *> CommonDefs;
  /// Per-operation encode/decode helpers destined for the header.
  std::vector<CastDecl *> OpHelperDefs;
  /// Public prototypes (stubs, work functions, dispatch).
  std::vector<CastDecl *> PublicProtos;
  /// Deep-free helpers, keyed structurally like Helpers.
  std::map<std::string, std::string> FreeHelpers;
  /// Explicit string-length presentation (paper §2): value expression of
  /// the caller-supplied length (encode side) / destination lvalue for
  /// the decoded length (decode side), keyed by the PresString node.
  std::map<const PresNode *, CastExpr *> KnownStrLenIn;
  std::map<const PresNode *, CastExpr *> KnownStrLenOut;
  unsigned HelperCounter = 0;
  std::string LastMark;
  std::string BufName = "_buf";

  // Wire-level chunk primitives shared by the public put*/get* wrappers.
  void putWire(unsigned Size, CastExpr *WireVal);
  CastExpr *getWire(unsigned Size);
  /// Chunk-relative address expression `Var + Off` (or just `Var`); marks
  /// the open chunk as read.
  CastExpr *chunkAddr(const std::string &Var, uint64_t Off);
  void putAtomicConv(const PresNode *P, CastExpr *Val);
  void getAtomicConv(const PresNode *P, CastExpr *Val);
};

//===----------------------------------------------------------------------===//
// Concrete back ends
//===----------------------------------------------------------------------===//

/// ONC RPC over XDR (RFC 1831/1832 framing, simplified auth).
class XdrBackend : public Backend {
public:
  explicit XdrBackend(BackendOptions Opts) : Backend(Opts) {}
  std::string name() const override { return "xdr"; }
  WireKind wire() const override { return WireKind::Xdr; }

protected:
  void emitRequestHeader(StubGen &G, const PresCInterface &If,
                         const PresCOperation &Op) override;
  void emitReplyHeader(StubGen &G, const PresCInterface &If,
                       CastExpr *Status) override;
  void emitReplyHeaderDecode(StubGen &G, const PresCInterface &If) override;
  void emitRequestHeaderDecode(StubGen &G, const PresCInterface &If) override;
};

/// CORBA IIOP: GIOP 1.0 framing over CDR (little-endian flavor), with
/// word-at-a-time operation-name demultiplexing.
class IiopBackend : public Backend {
public:
  explicit IiopBackend(BackendOptions Opts) : Backend(Opts) {}
  std::string name() const override { return "iiop"; }
  WireKind wire() const override { return WireKind::CdrLE; }

protected:
  void emitRequestHeader(StubGen &G, const PresCInterface &If,
                         const PresCOperation &Op) override;
  void emitRequestFinish(StubGen &G, const PresCInterface &If,
                         const PresCOperation &Op) override;
  void emitReplyHeader(StubGen &G, const PresCInterface &If,
                       CastExpr *Status) override;
  void emitReplyFinish(StubGen &G, const PresCInterface &If) override;
  void emitReplyHeaderDecode(StubGen &G, const PresCInterface &If) override;
  void emitRequestHeaderDecode(StubGen &G, const PresCInterface &If) override;
  void emitDispatchDemux(
      StubGen &G, const PresCInterface &If,
      const std::function<std::vector<CastStmt *>(const PresCOperation &)>
          &CaseBody) override;
};

/// The baseline: XDR framing with every optimization disabled and
/// per-datum out-of-line marshal calls -- the codegen style of rpcgen and
/// PowerRPC that the paper benchmarks against.
class NaiveBackend : public XdrBackend {
public:
  explicit NaiveBackend(BackendOptions Opts)
      : XdrBackend(makeNaive(Opts)) {}
  std::string name() const override { return "naive"; }

private:
  static BackendOptions makeNaive(BackendOptions O) {
    O.Inline = false;
    O.Memcpy = false;
    O.Chunk = false;
    O.ScratchAlloc = false;
    O.BufferAlias = false;
    O.GatherMinBytes = 0;
    O.PerDatumCalls = true;
    return O;
  }
};

/// Mach 3 typed messages (MIG-style msgh header, host-endian data).  The
/// per-field type descriptor words real Mach messages carry are elided --
/// both ends are compiled from the same IDL, so the layout is static
/// (documented simplification; see DESIGN.md §7).
class MachBackend : public Backend {
public:
  explicit MachBackend(BackendOptions Opts) : Backend(Opts) {}
  std::string name() const override { return "mach"; }
  WireKind wire() const override { return WireKind::MachTyped; }

protected:
  void emitRequestHeader(StubGen &G, const PresCInterface &If,
                         const PresCOperation &Op) override;
  void emitRequestFinish(StubGen &G, const PresCInterface &If,
                         const PresCOperation &Op) override;
  void emitReplyHeader(StubGen &G, const PresCInterface &If,
                       CastExpr *Status) override;
  void emitReplyFinish(StubGen &G, const PresCInterface &If) override;
  void emitReplyHeaderDecode(StubGen &G, const PresCInterface &If) override;
  void emitRequestHeaderDecode(StubGen &G, const PresCInterface &If) override;
};

/// Fluke kernel IPC: the first eight message words model the register
/// window the Fluke path passes in machine registers (paper §3.2,
/// "Specialized Transports"); the FlukeIpcSim transport charges nothing
/// for them.
class FlukeBackend : public Backend {
public:
  explicit FlukeBackend(BackendOptions Opts) : Backend(Opts) {}
  std::string name() const override { return "fluke"; }
  WireKind wire() const override { return WireKind::FlukeReg; }

protected:
  void emitRequestHeader(StubGen &G, const PresCInterface &If,
                         const PresCOperation &Op) override;
  void emitReplyHeader(StubGen &G, const PresCInterface &If,
                       CastExpr *Status) override;
  void emitReplyHeaderDecode(StubGen &G, const PresCInterface &If) override;
  void emitRequestHeaderDecode(StubGen &G, const PresCInterface &If) override;
};

/// Creates a back end by tag name; null for unknown tags.
std::unique_ptr<Backend> createBackend(const std::string &Name,
                                       BackendOptions Opts);

} // namespace flick

#endif // FLICK_BACKENDS_BACKEND_H
