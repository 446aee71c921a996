//===- runtime/flick_runtime.h - Stub runtime for generated code -*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime library that Flick-generated stubs compile against: marshal
/// buffers (dynamically allocated and *reused* across invocations, paper
/// §3.1), byte-order encode/decode primitives for every supported wire
/// format, a per-request scratch arena standing in for the paper's
/// stack-allocated parameter storage, and client/server objects wrapping a
/// transport channel.  The API is deliberately C-flavored -- generated code
/// is C with `static inline` helpers -- but compiles as C++ so transports
/// can be real classes.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_RUNTIME_FLICK_RUNTIME_H
#define FLICK_RUNTIME_FLICK_RUNTIME_H

#include "MetricSchema.h"
#include "Trace.h"
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

namespace flick {
class Channel;
class Transport;
} // namespace flick

/// Transport handle used by generated stubs; concrete channels live in
/// runtime/Channel.h.
typedef flick::Channel flick_channel;

//===----------------------------------------------------------------------===//
// Status codes
//===----------------------------------------------------------------------===//

enum {
  FLICK_OK = 0,
  FLICK_ERR_DECODE = 1,    ///< malformed or truncated message
  FLICK_ERR_TRANSPORT = 2, ///< channel failure
  FLICK_ERR_NO_SUCH_OP = 3,///< demux found no matching operation
  FLICK_ERR_EXCEPTION = 4, ///< reply carried a user exception
  FLICK_ERR_ALLOC = 5,     ///< allocation failure
  FLICK_ERR_WOULD_BLOCK = 6, ///< fail-fast submit found the window full
};

/// Reply-status discriminator marshaled at the front of every reply body.
enum {
  FLICK_REPLY_OK = 0,
  FLICK_REPLY_USER_EXCEPTION = 1,
  FLICK_REPLY_SYSTEM_EXCEPTION = 2,
};

//===----------------------------------------------------------------------===//
// Runtime metrics
//===----------------------------------------------------------------------===//

/// Aggregated runtime counters: RPC and byte totals per endpoint role,
/// buffer grow/reuse events, scratch-arena high-water mark, error counts,
/// and accumulated simulated wire time.  Every scalar member is declared
/// once, with its merge kind, unit and help text, in FLICK_METRICS_SCHEMA
/// (runtime/MetricSchema.h); merge, JSON and Prometheus are expanded from
/// that list.  Collection is OFF by default -- `flick_metrics_active` is
/// null and every hook below is one predictable pointer test -- so the
/// generated-stub hot paths (inline encode/decode and buffer
/// ensure/grab/take) stay untouched.  Enable with flick_metrics_enable()
/// around a region of interest; bench binaries use this to emit
/// machine-readable results (see bench/BenchUtil.h).
///
/// The installed pointer is thread-local, so the hot path stays a plain
/// load + store with no shared atomics even under the threaded runtime:
/// each thread (client driver, pool worker) collects into its own block
/// and the blocks are combined at dump time with flick_metrics_merge,
/// which sums SUM members, max-merges MAX members (arena_high_water), and
/// merges the latency histograms bucket-wise.  flick_server_pool does this
/// for its workers automatically.
struct flick_metrics {
#define FLICK_METRIC_MEMBER(Type, Name, Kind, Unit, Help) Type Name = 0;
  FLICK_METRICS_SCHEMA(FLICK_METRIC_MEMBER)
#undef FLICK_METRIC_MEMBER
  // Per-call round-trip latency distribution: flick_client_invoke records
  // its wall time here, so every metrics dump (and every FLICK_BENCH_JSON
  // document) carries p50/p90/p99/max beside the aggregate counters.
  flick_latency_hist rpc_latency;
  // Latency anatomy: per-endpoint x per-span-kind histograms (and SLO
  // error-budget counters), populated allocation-free at span close when
  // both a tracer and this block are active.  Merged entry-wise by
  // flick_metrics_merge, so pool workers attribute exactly.
  flick_endpoint_stats anatomy[FLICK_MAX_ENDPOINTS];
};

/// The calling thread's installed metrics block, or null when collection
/// is disabled on this thread.
extern thread_local flick_metrics *flick_metrics_active;

/// Zeroes \p m and installs it as the calling thread's metrics block.
void flick_metrics_enable(flick_metrics *m);

/// Stops collection on the calling thread (the block keeps its final
/// values).
void flick_metrics_disable();

/// Adds \p src's counters into \p dst: SUM members add, MAX members take
/// the max, and the histograms merge bucket-wise, so derived numbers
/// (copies_per_rpc, percentiles) computed from the merged block equal
/// those of a single-block run that saw all the traffic.
void flick_metrics_merge(flick_metrics *dst, const flick_metrics *src);

/// Renders \p m as a JSON object, e.g. {"rpcs_sent": 3, ...}.  \p indent
/// is prepended to each line of the body.
std::string flick_metrics_to_json(const flick_metrics *m,
                                  const char *indent = "  ");

/// Renders \p m (may be null: gauges only) plus the global gauge block
/// (runtime/Sampler.h) in the Prometheus text exposition format:
/// HELP/TYPE comment pairs, one series per schema entry (SUM entries as
/// `flick_<name>_total` counters, MAX entries as `flick_<name>` gauges,
/// `_ns`/`_us` names as `_seconds` in seconds), the rpc_latency histogram
/// as a cumulative `flick_rpc_latency_seconds` histogram, and one
/// `flick_build_info{...} 1` info metric.  When \p m carries per-endpoint
/// anatomy, `flick_slo_met_total` / `flick_slo_violated_total` counter
/// families labeled by endpoint are emitted for every endpoint with a
/// configured objective.  \p exemplars (optional) attaches OpenMetrics
/// exemplar annotations -- ` # {trace_id="...",endpoint="..."} <secs>` --
/// to the latency histogram's bucket lines, one per bucket at most,
/// drawn from the tracer's tail-exemplar reservoir.
std::string flick_metrics_to_prometheus(const flick_metrics *m,
                                        const flick_tracer *exemplars =
                                            nullptr);

/// Renders the latency-anatomy table alone: per used endpoint, the rpc
/// summary, each phase's p50/p99 and share of the rpc span, SLO counters
/// (when configured), and the mean-based self-consistency block the CI
/// gate checks.  "{}" when nothing was attributed.
std::string flick_metrics_anatomy_json(const flick_metrics *m,
                                       const char *indent = "  ");

/// Adds \p v to the counter member \p f of the active block, if any.
inline void flick_metric_add(uint64_t flick_metrics::*f, uint64_t v) {
  if (flick_metrics_active)
    flick_metrics_active->*f += v;
}

/// Raises the counter member \p f to at least \p v.
inline void flick_metric_max(uint64_t flick_metrics::*f, uint64_t v) {
  if (flick_metrics_active && flick_metrics_active->*f < v)
    flick_metrics_active->*f = v;
}

//===----------------------------------------------------------------------===//
// Marshal buffers
//===----------------------------------------------------------------------===//

/// One scatter-gather segment: a borrowed span of caller memory.  Gathered
/// sends (Channel::sendv) consume an array of these.
struct flick_iov {
  const uint8_t *base;
  size_t len;
};

/// One by-reference segment recorded in a flick_buf: \p base/\p len borrow
/// caller memory, \p own_off is the owned-byte offset the segment splices
/// into (the value of buf.len when the reference was taken).
struct flick_buf_ref_ent {
  const uint8_t *base;
  size_t len;
  size_t own_off;
};

/// Bound on by-reference segments per buffer; beyond it flick_buf_ref
/// falls back to copying, so the segment list needs no heap storage.
enum { FLICK_BUF_MAX_REFS = 8 };

/// A growable byte buffer with separate append (len) and read (pos)
/// cursors.  Stubs keep one request and one reply buffer per client/server
/// and reset them between invocations instead of reallocating.
///
/// Under scatter-gather marshaling (--gather-min-bytes) a buffer may also
/// carry up to FLICK_BUF_MAX_REFS *borrowed* segments: spans of caller
/// memory recorded by flick_buf_ref instead of being copied in.  The
/// logical message is the owned bytes with each borrowed span spliced in
/// at its own_off -- flick_buf_iovec materializes that order.  Borrowed
/// spans must outlive the send that consumes them (see DESIGN.md §11).
struct flick_buf {
  uint8_t *data = nullptr;
  size_t cap = 0;
  size_t len = 0; ///< owned bytes written (marshal cursor)
  size_t pos = 0; ///< bytes consumed (unmarshal cursor)
  size_t nrefs = 0;     ///< borrowed segments recorded
  size_t ref_bytes = 0; ///< total bytes across borrowed segments
  flick_buf_ref_ent refs[FLICK_BUF_MAX_REFS];
};

/// Initial capacity given to lazily grown buffers.
enum { FLICK_BUF_MIN_CAP = 512 };

inline void flick_buf_init(flick_buf *b) { *b = flick_buf{}; }

inline void flick_buf_destroy(flick_buf *b) {
  std::free(b->data);
  *b = flick_buf{};
}

/// Rewinds both cursors and drops borrowed segments, keeping the
/// allocation (buffer reuse).
inline void flick_buf_reset(flick_buf *b) {
  if (flick_metrics_active && b->cap)
    ++flick_metrics_active->buf_reuses;
  b->len = 0;
  b->pos = 0;
  b->nrefs = 0;
  b->ref_bytes = 0;
}

/// Grows so that at least \p need more bytes can be appended.  Out-of-line
/// slow path; the inline fast path in flick_buf_ensure avoids the call.
int flick_buf_grow(flick_buf *b, size_t need);

/// Ensures room to append \p need bytes; returns FLICK_OK or
/// FLICK_ERR_ALLOC.  Generated stubs call this once per fixed-size message
/// segment rather than per datum.
inline int flick_buf_ensure(flick_buf *b, size_t need) {
  if (b->cap - b->len >= need)
    return FLICK_OK;
  return flick_buf_grow(b, need);
}

/// Reserves \p n appended bytes and returns the chunk pointer for them.
/// Callers must have ensured capacity.  Counted as a copy: every grab is
/// immediately filled by stores or a memcpy from presented data.
inline uint8_t *flick_buf_grab(flick_buf *b, size_t n) {
  if (flick_metrics_active) {
    flick_metrics_active->bytes_copied += n;
    ++flick_metrics_active->copy_ops;
  }
  uint8_t *p = b->data + b->len;
  b->len += n;
  return p;
}

/// The marshal-path memcpy.  An empty sequence may present a null buffer,
/// and memcpy's pointers must be valid even for a zero-length copy, so
/// zero-length copies are skipped here, once for every caller.
inline void flick_memcpy(void *dst, const void *src, size_t n) {
  if (n)
    std::memcpy(dst, src, n);
}

/// True when \p n more bytes can be consumed.
inline int flick_buf_check(const flick_buf *b, size_t n) {
  return b->len - b->pos >= n;
}

/// Consumes \p n bytes and returns the chunk pointer for them.  Callers
/// must have checked availability.  Counted as a copy: taken bytes are
/// loaded/memcpy'd into presented storage (unlike flick_buf_take_mut,
/// which aliases them in place at zero cost).
inline const uint8_t *flick_buf_take(flick_buf *b, size_t n) {
  if (flick_metrics_active) {
    flick_metrics_active->bytes_copied += n;
    ++flick_metrics_active->copy_ops;
  }
  const uint8_t *p = b->data + b->pos;
  b->pos += n;
  return p;
}

/// Mutable variant of flick_buf_take, for decode-in-place presentations
/// that alias unmarshaled data inside the request buffer (paper §3.1).
inline uint8_t *flick_buf_take_mut(flick_buf *b, size_t n) {
  uint8_t *p = b->data + b->pos;
  b->pos += n;
  return p;
}

/// Non-accounting cursor variants for marshalers that charge copy metrics
/// once per call instead of once per datum (the interpreter and the
/// runtime specializer): same cursor motion as grab/take, no counters, so
/// copies_per_rpc stays comparable with compiled stubs.
inline uint8_t *flick_buf_grab_raw(flick_buf *b, size_t n) {
  uint8_t *p = b->data + b->len;
  b->len += n;
  return p;
}

inline const uint8_t *flick_buf_take_raw(flick_buf *b, size_t n) {
  const uint8_t *p = b->data + b->pos;
  b->pos += n;
  return p;
}

/// Records a borrowed segment: the \p n bytes at \p p join the logical
/// message at the current append position without being copied.  When the
/// segment list is full, degrades to a plain copy so callers never need a
/// fallback path of their own.  Returns FLICK_OK or FLICK_ERR_ALLOC.
inline int flick_buf_ref(flick_buf *b, const void *p, size_t n) {
  if (b->nrefs == FLICK_BUF_MAX_REFS) {
    if (int err = flick_buf_ensure(b, n))
      return err;
    flick_memcpy(flick_buf_grab(b, n), p, n);
    return FLICK_OK;
  }
  flick_buf_ref_ent &E = b->refs[b->nrefs++];
  E.base = static_cast<const uint8_t *>(p);
  E.len = n;
  E.own_off = b->len;
  b->ref_bytes += n;
  if (flick_metrics_active) {
    ++flick_metrics_active->gather_refs;
    flick_metrics_active->gather_bytes += n;
  }
  return FLICK_OK;
}

/// Logical message length: owned bytes plus borrowed segments.  Equals
/// b->len whenever no references were taken.
inline size_t flick_buf_total(const flick_buf *b) {
  return b->len + b->ref_bytes;
}

/// Flattens \p b into wire-order segments: owned-byte runs interleaved
/// with borrowed spans at their splice points.  \p iov must hold at least
/// 2 * FLICK_BUF_MAX_REFS + 1 entries; returns the count used.
size_t flick_buf_iovec(const flick_buf *b, flick_iov *iov);

/// Zero-pads the append cursor up to \p a alignment (a power of two).
/// Alignment is of the *logical* position (owned + borrowed bytes), so a
/// gathered message keeps the exact wire layout of its copied twin.
inline int flick_buf_align_write(flick_buf *b, size_t a) {
  size_t pad = (a - ((b->len + b->ref_bytes) & (a - 1))) & (a - 1);
  if (!pad)
    return FLICK_OK;
  if (int err = flick_buf_ensure(b, pad))
    return err;
  std::memset(b->data + b->len, 0, pad);
  b->len += pad;
  return FLICK_OK;
}

/// Advances the read cursor up to \p a alignment (a power of two).
inline int flick_buf_align_read(flick_buf *b, size_t a) {
  size_t pad = (a - (b->pos & (a - 1))) & (a - 1);
  if (!pad)
    return FLICK_OK;
  if (!flick_buf_check(b, pad))
    return FLICK_ERR_DECODE;
  b->pos += pad;
  return FLICK_OK;
}

//===----------------------------------------------------------------------===//
// Atomic encode/decode primitives
//===----------------------------------------------------------------------===//
//
// Generated marshal code addresses a chunk pointer plus constant offsets and
// calls these on raw pointers; the compiler lowers each to a single
// (possibly byte-swapped) load or store.

inline void flick_enc_u8(uint8_t *p, uint8_t v) { *p = v; }
inline uint8_t flick_dec_u8(const uint8_t *p) { return *p; }

inline void flick_enc_u16le(uint8_t *p, uint16_t v) { std::memcpy(p, &v, 2); }
inline void flick_enc_u32le(uint8_t *p, uint32_t v) { std::memcpy(p, &v, 4); }
inline void flick_enc_u64le(uint8_t *p, uint64_t v) { std::memcpy(p, &v, 8); }

inline uint16_t flick_dec_u16le(const uint8_t *p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
inline uint32_t flick_dec_u32le(const uint8_t *p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
inline uint64_t flick_dec_u64le(const uint8_t *p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline void flick_enc_u16be(uint8_t *p, uint16_t v) {
  v = __builtin_bswap16(v);
  std::memcpy(p, &v, 2);
}
inline void flick_enc_u32be(uint8_t *p, uint32_t v) {
  v = __builtin_bswap32(v);
  std::memcpy(p, &v, 4);
}
inline void flick_enc_u64be(uint8_t *p, uint64_t v) {
  v = __builtin_bswap64(v);
  std::memcpy(p, &v, 8);
}

inline uint16_t flick_dec_u16be(const uint8_t *p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return __builtin_bswap16(v);
}
inline uint32_t flick_dec_u32be(const uint8_t *p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return __builtin_bswap32(v);
}
inline uint64_t flick_dec_u64be(const uint8_t *p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return __builtin_bswap64(v);
}

// Native (host-endian) variants; the Mach and Fluke formats use these.
inline void flick_enc_u16ne(uint8_t *p, uint16_t v) { std::memcpy(p, &v, 2); }
inline void flick_enc_u32ne(uint8_t *p, uint32_t v) { std::memcpy(p, &v, 4); }
inline void flick_enc_u64ne(uint8_t *p, uint64_t v) { std::memcpy(p, &v, 8); }
inline uint16_t flick_dec_u16ne(const uint8_t *p) {
  return flick_dec_u16le(p);
}
inline uint32_t flick_dec_u32ne(const uint8_t *p) {
  return flick_dec_u32le(p);
}
inline uint64_t flick_dec_u64ne(const uint8_t *p) {
  return flick_dec_u64le(p);
}

// Floats travel as their IEEE bit patterns.
inline uint32_t flick_f32_bits(float f) {
  uint32_t v;
  std::memcpy(&v, &f, 4);
  return v;
}
inline float flick_bits_f32(uint32_t v) {
  float f;
  std::memcpy(&f, &v, 4);
  return f;
}
inline uint64_t flick_f64_bits(double d) {
  uint64_t v;
  std::memcpy(&v, &d, 8);
  return v;
}
inline double flick_bits_f64(uint64_t v) {
  double d;
  std::memcpy(&d, &v, 8);
  return d;
}

/// Byte-swaps a whole array of 32-bit words while copying; the fallback for
/// arrays whose wire format differs from host format only by endianness.
void flick_swap_copy_u32(uint8_t *dst, const uint8_t *src, size_t words);
void flick_swap_copy_u16(uint8_t *dst, const uint8_t *src, size_t halves);
void flick_swap_copy_u64(uint8_t *dst, const uint8_t *src, size_t dwords);

//===----------------------------------------------------------------------===//
// Naive (rpcgen-style) marshal primitives
//===----------------------------------------------------------------------===//
//
// The baseline back end reproduces the codegen style of traditional IDL
// compilers: every datum goes through an out-of-line function call that
// performs its own buffer check and advances a read/write pointer (see
// paper §3.3, "Inline Code").  These live in Naive.cpp and are deliberately
// NOT inline.

int flick_naive_put_u8(flick_buf *b, uint8_t v);
int flick_naive_put_u16(flick_buf *b, uint16_t v, int bigendian);
int flick_naive_put_u32(flick_buf *b, uint32_t v, int bigendian);
int flick_naive_put_u64(flick_buf *b, uint64_t v, int bigendian);
int flick_naive_put_pad(flick_buf *b, size_t align);
int flick_naive_get_u8(flick_buf *b, uint8_t *v);
int flick_naive_get_u16(flick_buf *b, uint16_t *v, int bigendian);
int flick_naive_get_u32(flick_buf *b, uint32_t *v, int bigendian);
int flick_naive_get_u64(flick_buf *b, uint64_t *v, int bigendian);
int flick_naive_get_pad(flick_buf *b, size_t align);

//===----------------------------------------------------------------------===//
// Per-request scratch arena
//===----------------------------------------------------------------------===//

/// Bump allocator whose lifetime is one request: Flick's stand-in for
/// run-time-stack parameter storage (paper §3.1).  Reset after the work
/// function returns.  Growth allocates a fresh block and chains the old
/// one -- existing allocations never move.
struct flick_arena {
  uint8_t *base = nullptr; ///< current block
  size_t cap = 0;
  size_t used = 0;
  void *retired = nullptr; ///< older, still-live blocks (freed on reset)
};

void flick_arena_destroy(flick_arena *a);
void *flick_arena_grow_alloc(flick_arena *a, size_t n);

inline void *flick_arena_alloc(flick_arena *a, size_t n) {
  // Null arena means "no scratch storage available": fall back to malloc.
  if (!a)
    return std::malloc(n ? n : 1);
  size_t aligned = (a->used + 15) & ~static_cast<size_t>(15);
  if (aligned + n <= a->cap) {
    a->used = aligned + n;
    return a->base + aligned;
  }
  return flick_arena_grow_alloc(a, n);
}

/// Out-of-line: releases retired blocks, keeps the (largest) current one.
void flick_arena_reset(flick_arena *a);

//===----------------------------------------------------------------------===//
// Client and server objects
//===----------------------------------------------------------------------===//

/// Client-side state for one connection: the channel plus reused request
/// and reply buffers.  `endpoint` (flick_endpoint_intern) tags this
/// client's RPC spans so latency anatomy attributes per endpoint; 0 (the
/// default) groups everything under "default".
struct flick_client {
  flick_channel *chan = nullptr;
  flick_buf req;
  flick_buf rep;
  uint32_t next_xid = 1;
  uint32_t endpoint = 0;
};

void flick_client_init(flick_client *c, flick_channel *chan);
void flick_client_destroy(flick_client *c);

void flick_channel_release(flick_channel *ch, flick_buf *buf);

/// Resets and returns the reused request buffer.  The previous reply's
/// bytes are dead by now (the caller decoded them before starting a new
/// call), so the reply buffer's adopted wire storage is handed back to
/// the transport first -- the server's next reply refills the same hot
/// allocation instead of ping-ponging between two.
inline flick_buf *flick_client_begin(flick_client *c) {
  flick_channel_release(c->chan, &c->rep);
  flick_buf_reset(&c->req);
  return &c->req;
}

/// Sends the request buffer and blocks for the reply (into c->rep).
int flick_client_invoke(flick_client *c);

/// Sends the request buffer without expecting a reply.
int flick_client_send_oneway(flick_client *c);

//===----------------------------------------------------------------------===//
// Async pipelined client
//===----------------------------------------------------------------------===//
//
// Keeps up to `window` requests in flight on one connection.  Each submit
// stamps a fresh nonzero correlation id that rides *out of band* next to
// the trace context (transport Msg / SocketLink frame header -- DESIGN.md
// §15), so the CDR payload bytes are identical to the synchronous stubs'.
// The server end echoes the request's id onto its reply; the client-side
// demultiplexer (the pump inside wait/drain/blocking-submit) receives
// replies in whatever order they arrive and completes the matching call.
// Replies matching no pending call are dropped and counted (corr_drops).

struct flick_call;

/// Completion callback, run on the pumping thread the moment the call's
/// reply (or a transport failure) lands.  The call is already off the
/// pending list; releasing it from inside the callback is legal.
typedef void (*flick_call_fn)(flick_call *call, void *ctx);

/// One in-flight (or completed, not-yet-released) pipelined call.  Slots
/// have stable addresses and are recycled through a free list; the window
/// bounds calls *in flight*, so a completed-but-unreleased handle costs an
/// extra slot rather than wedging a blocking submit.
struct flick_call {
  uint64_t id = 0;        ///< correlation id (unique per client, nonzero)
  int status = FLICK_OK;  ///< completion status; valid once done
  int done = 0;           ///< reply landed or the call failed
  flick_buf rep;          ///< reply payload once done (adopted wire storage)
  uint64_t submit_ns = 0; ///< per-call submit stamp: rpc_latency stays
                          ///< correct under out-of-order completion
  flick_call_fn on_complete = nullptr;
  void *ctx = nullptr;
  flick_call *next = nullptr; ///< intrusive pending/free list
};

/// Tuning knobs for flick_async_client_init (null means all defaults).
struct flick_async_opts {
  uint32_t window = 16;  ///< max two-way calls in flight
  int fail_fast = 0;     ///< full window: FLICK_ERR_WOULD_BLOCK, don't pump
  uint32_t cork_max = 64;///< corked oneways per batch before auto-flush
                         ///< (bounded well under IOV_MAX)
};

/// Client-side state for one pipelined connection.  Single-threaded like
/// flick_client: submits and pumps happen on one thread (the channel's
/// thread contract); concurrency comes from many requests in flight, not
/// from many threads sharing a client.
struct flick_async_client {
  flick_channel *chan = nullptr;
  flick_buf req;         ///< staging buffer for the next submit/oneway
  uint32_t endpoint = 0; ///< trace/anatomy tag, as in flick_client
  uint32_t window = 0;
  int fail_fast = 0;
  uint32_t inflight = 0; ///< two-way calls currently pending
  uint64_t next_id = 0;  ///< last correlation id issued
  void *impl = nullptr;  ///< call slots, pending/free lists, cork state
};

/// Allocates the call-slot arena and cork state.  Returns FLICK_OK or
/// FLICK_ERR_ALLOC.
int flick_async_client_init(flick_async_client *c, flick_channel *chan,
                            const flick_async_opts *opts = nullptr);

/// Destroys all slots and buffers.  Safe with calls still in flight (their
/// replies, if any ever arrive, die with the connection); prefer
/// flick_async_drain first when the transport is still up.
void flick_async_client_destroy(flick_async_client *c);

/// Resets and returns the reused request staging buffer; marshal the next
/// request into it, then submit or oneway it.
flick_buf *flick_async_begin(flick_async_client *c);

/// Sends the staged request with a fresh correlation id and returns its
/// handle in *out.  When the window is full: pumps completions until a
/// slot frees (default), or fails with FLICK_ERR_WOULD_BLOCK (fail_fast) --
/// either way one window_stalls gauge event is recorded.  The staging
/// buffer is reusable as soon as this returns.
int flick_async_submit(flick_async_client *c, flick_call **out,
                       flick_call_fn on_complete = nullptr,
                       void *ctx = nullptr);

/// Pumps replies until \p call completes; other calls completing meanwhile
/// are demultiplexed to their own handles (and callbacks) as a side effect.
/// Returns the call's status.
int flick_async_wait(flick_async_client *c, flick_call *call);

/// Flushes corked oneways, then pumps until no two-way call is pending.
/// Returns the first error seen (pending calls are still all completed --
/// with FLICK_ERR_TRANSPORT -- when the transport dies mid-drain).
int flick_async_drain(flick_async_client *c);

/// Returns a completed call's slot (and its reply storage) to the client
/// for reuse.  Must not be called on a call still in flight.
void flick_async_release(flick_async_client *c, flick_call *call);

/// Corks the staged request as a oneway: the bytes are staged into the
/// batch arena and nothing is sent until flush (or until cork_max oneways
/// accumulate).  Cheap calls coalesce into one sendv/sendmsg on the wire.
int flick_async_oneway(flick_async_client *c);

/// Sends every corked oneway as ONE batch (a single sendmsg on
/// SocketLink).  No-op when nothing is corked.
int flick_async_flush(flick_async_client *c);

struct flick_server;

/// A generated dispatch function: consumes the request, fills the reply.
/// Returns FLICK_OK when a reply should be sent (including exceptional
/// replies), FLICK_ERR_NO_SUCH_OP / FLICK_ERR_DECODE on protocol errors.
typedef int (*flick_dispatch_fn)(flick_server *srv, flick_buf *req,
                                 flick_buf *rep);

/// Server-side state: channel, reused buffers, scratch arena, and the
/// dispatch function produced by the back end.
struct flick_server {
  flick_channel *chan = nullptr;
  flick_dispatch_fn dispatch = nullptr;
  void *impl = nullptr; ///< opaque hook for servant state
  flick_buf req;
  flick_buf rep;
  flick_arena arena;
};

void flick_server_init(flick_server *s, flick_channel *chan,
                       flick_dispatch_fn dispatch);
void flick_server_destroy(flick_server *s);

/// Receives one request, dispatches it, sends the reply (if any).
/// Returns FLICK_OK, or FLICK_ERR_TRANSPORT when the channel is drained.
int flick_server_handle_one(flick_server *s);

//===----------------------------------------------------------------------===//
// Worker-pool server dispatch (threaded runtime)
//===----------------------------------------------------------------------===//

/// A pool of N server worker threads draining one Transport (threaded,
/// sharded, or socket -- see runtime/transport/Transport.h): each worker
/// loops flick_server_handle_one over its own worker channel with its
/// own flick_server (request/reply buffers, scratch arena) and its own
/// wire-buffer pool, so the only shared state on the hot path is the
/// transport's request path.  When the thread calling
/// flick_server_pool_start has metrics (or tracing) enabled, every worker
/// collects into a private per-thread block (or span ring) and stop()
/// merges them back into the starting thread's block, so dumps show the
/// whole pool's traffic with exact counts.
struct flick_server_pool {
  void *impl = nullptr; ///< opaque pool state; null when not running
};

/// Starts \p workers dispatch threads on \p link.  \p impl_hook is stored
/// as each worker server's `impl`; servant state reached through it is
/// shared across workers and must be thread-safe.  Returns FLICK_OK, or
/// FLICK_ERR_ALLOC when the pool is already running or \p workers is 0.
int flick_server_pool_start(flick_server_pool *p, flick::Transport *link,
                            flick_dispatch_fn dispatch, unsigned workers,
                            void *impl_hook = nullptr);

/// Shuts the link down (workers finish every already-queued request
/// first), joins the worker threads, and merges per-worker telemetry into
/// the blocks that were active when start was called.  Call from the
/// starting thread, after client traffic has stopped; calling on a
/// stopped pool is a no-op.
void flick_server_pool_stop(flick_server_pool *p);

/// Worker-thread count of a running pool; 0 before start / after stop.
unsigned flick_server_pool_workers(const flick_server_pool *p);

//===----------------------------------------------------------------------===//
// Object references and the CORBA C-mapping environment
//===----------------------------------------------------------------------===//

/// A client-side object reference; CORBA-presentation object types are
/// `typedef flick_obj *<Interface>;`.
struct flick_obj {
  flick_client *client = nullptr;
};

#ifndef FLICK_CORBA_ENV_DEFINED
#define FLICK_CORBA_ENV_DEFINED
enum {
  CORBA_NO_EXCEPTION = 0,
  CORBA_USER_EXCEPTION = 1,
  CORBA_SYSTEM_EXCEPTION = 2,
};

/// The CORBA C mapping's environment parameter.  On a user exception the
/// stub stores the wire exception code and a heap-allocated copy of the
/// exception members (caller frees with free()).
typedef struct CORBA_Environment {
  uint32_t _major;
  uint32_t _exc_code;
  void *_exc_value;
} CORBA_Environment;

inline void CORBA_exception_free(CORBA_Environment *ev) {
  std::free(ev->_exc_value);
  ev->_exc_value = nullptr;
  ev->_major = CORBA_NO_EXCEPTION;
  ev->_exc_code = 0;
}
#endif // FLICK_CORBA_ENV_DEFINED

//===----------------------------------------------------------------------===//
// Channel C shims (implemented in Channel.cpp)
//===----------------------------------------------------------------------===//

/// Sends the message in \p buf: its owned bytes and borrowed spans, in
/// order (flick_buf_iovec), as one sendv.  The client, the async client
/// and the server reply all send through this.
int flick_channel_send_buf(flick_channel *ch, const flick_buf *buf);
/// Receives one message into \p into (reset first).  Returns FLICK_OK or
/// FLICK_ERR_TRANSPORT.
int flick_channel_recv(flick_channel *ch, flick_buf *into);
/// Tells the transport \p buf's contents are dead so adopted wire storage
/// can return to the buffer pool early (see Channel::release).  Declared
/// above flick_client_begin, which uses it.
void flick_channel_release(flick_channel *ch, flick_buf *buf);

#endif // FLICK_RUNTIME_FLICK_RUNTIME_H
