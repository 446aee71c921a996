//===- backends/Passes.h - Marshal-plan pass pipeline -----------*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimization passes that rewrite a MarshalPlan before emission,
/// and the BackendOptions façade that selects which of them run.  Each
/// pass is one technique from paper §3; `flickc --passes=<list>` and the
/// legacy `--no-*` flags both resolve to this one switch set, so the
/// ablation bench and the CLI can never drift apart.
///
/// Pipeline order (fixed): inline -> chunk -> memcpy -> bounded ->
/// scratch -> alias.  Passes only read the analysis facts recorded in
/// PlanItems and write strategy into the steps; they never build CAST.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_BACKENDS_PASSES_H
#define FLICK_BACKENDS_PASSES_H

#include "backends/MarshalPlan.h"
#include <string>
#include <vector>

namespace flick {

/// Bounded→fixed promotion threshold restored by `--passes=all` /
/// `+bounded` when the pass was previously disabled (paper §3.1's 8KB).
inline constexpr uint64_t DefaultBoundedThreshold = 8192;

/// Gather threshold installed by `--passes=all` / `+gather` when no
/// explicit `--gather-min-bytes` was given: below this, flick_buf_ref
/// bookkeeping costs more than the memcpy it saves (tuned on
/// micro_primitives-class workloads; see DESIGN.md §11).
inline constexpr uint64_t DefaultGatherMinBytes = 4096;

/// Optimization switches; each maps to a technique from paper §3 and can be
/// disabled independently for the ablation benches.  This is the façade
/// over the pass pipeline: every field (except PerDatumCalls) enables one
/// named pass, and parsePassList edits it from a `--passes=` spec.
struct BackendOptions {
  /// "inline" pass: inline marshal code into the stubs; off =
  /// per-aggregate out-of-line marshal functions (traditional style).
  bool Inline = true;
  /// "memcpy" pass: memcpy arrays of atomic types whose wire and host
  /// formats agree, and block-copy dense bit-identical chunk members.
  bool Memcpy = true;
  /// "chunk" pass: coalesce buffer checks over fixed-size segments and
  /// address them through a chunk pointer; off = per-datum check +
  /// pointer bump.
  bool Chunk = true;
  /// "scratch" pass: unmarshal server parameters into per-request scratch
  /// storage instead of malloc.
  bool ScratchAlloc = true;
  /// "alias" pass: let unmarshaled arrays alias the request buffer when
  /// representations are bit-identical.
  bool BufferAlias = true;
  /// "bounded" pass: segments with a static bound at or below this are
  /// treated as fixed for buffer-check purposes (the paper's 8KB
  /// threshold).  0 disables the pass.
  uint64_t BoundedThreshold = DefaultBoundedThreshold;
  /// "gather" pass (`--gather-min-bytes=N`): rewrite encode-request bulk
  /// copies of at least N bytes into by-reference scatter-gather segments
  /// (flick_buf_ref / flick_iov).  0 disables the pass, which is the
  /// default: generated stubs are byte-identical without the flag.
  uint64_t GatherMinBytes = 0;
  /// Per-datum marshaling through out-of-line runtime calls; set by the
  /// naive back end.  Not a pass: it replaces the emitter's atom
  /// primitives and is selected only by `-b naive`.
  bool PerDatumCalls = false;
  /// Record before/after plans for --dump-marshal-plan.
  bool DumpPlans = false;
  /// `--trace-hooks`: bracket every generated marshal/unmarshal helper,
  /// client stub, and server work call with flick_span_begin/end pairs.
  /// Not a pass (it adds steps rather than rewriting them); off by
  /// default so generated code is byte-identical without the flag.
  bool TraceHooks = false;
};

/// One registered pass: its `--passes` name and a one-line summary.
struct PassInfo {
  const char *Name;
  const char *Summary;
  bool (*Enabled)(const BackendOptions &O);
};

/// The registry, in pipeline order.
const std::vector<PassInfo> &passRegistry();

/// Names of the passes enabled under \p O, in pipeline order.
std::vector<std::string> enabledPassNames(const BackendOptions &O);

/// Applies a `--passes=` spec to \p O: comma-separated tokens applied
/// left to right, each `all`, `none`, `<name>`, `+<name>`, or `-<name>`.
/// Returns false and fills \p Err (listing the valid names) on an unknown
/// token.
bool parsePassList(const std::string &Spec, BackendOptions &O,
                   std::string &Err);

/// Human-readable pass list for `flickc --print-passes`.
std::string passCatalog();

/// Runs the enabled passes, in order, over plans built by buildSeqPlan.
/// Each pass is timed into a "pass.<name>" Stats region and bumps plan.*
/// counters, so `flickc --stats` shows the pipeline the way it shows the
/// front-end phases.
class PassPipeline {
public:
  PassPipeline(const BackendOptions &O, const WireLayout &L)
      : O(O), L(L), Layouts(L) {}

  void run(SeqPlan &Plan) const;

  /// The layout records the passes read, memoized for this run; the
  /// emitter lowers the plans from the same records.
  LayoutCache &layouts() const { return Layouts; }

private:
  void passInline(SeqPlan &Plan) const;
  void passChunk(SeqPlan &Plan) const;
  void passMemcpy(SeqPlan &Plan) const;
  void passBounded(SeqPlan &Plan) const;
  void passScratch(SeqPlan &Plan) const;
  void passAlias(SeqPlan &Plan) const;
  void passGather(SeqPlan &Plan) const;

  const BackendOptions &O;
  const WireLayout &L;
  mutable LayoutCache Layouts;
};

} // namespace flick

#endif // FLICK_BACKENDS_PASSES_H
