//===- runtime/MetricSchema.h - Runtime counter/gauge schema ----*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one declaration of every scalar runtime counter (`flick_metrics`)
/// and gauge (`flick_gauges`).  Each block is an X-macro list whose entries
/// read `X(Type, name, Kind, Unit, "Help.")`:
///
///  - Kind is SUM (cumulative: merged by addition, exported as the
///    Prometheus counter `flick_<name>_total`) or MAX (a level: merged by
///    taking the larger value, exported as the gauge `flick_<name>`);
///  - Unit is COUNT, BYTES, NS or US.  A time field's name ends in `_ns` or
///    `_us`; Prometheus gets it as `flick_<stem>_seconds[_total]`, scaled
///    to seconds;
///  - Help is the Prometheus HELP text and the member's documentation.
///
/// Every consumer is expanded from these lists: the struct members,
/// flick_metrics_merge, flick_metrics_to_json, flick_metrics_to_prometheus,
/// flick_gauges_enable's zeroing and the sampler's gauge snapshot.  A new
/// counter is one line here plus its update sites.  Entry order is member
/// order, and hot paths and perfbench address members by name and offset,
/// so insert new entries deliberately.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_RUNTIME_METRICSCHEMA_H
#define FLICK_RUNTIME_METRICSCHEMA_H

/// A consumer's X receives Kind and Unit as bare tokens; paste them onto
/// these prefixes (`FLICK_KIND_##Kind`, `FLICK_UNIT_##Unit`).
enum flick_metric_kind { FLICK_KIND_SUM, FLICK_KIND_MAX };
enum flick_metric_unit {
  FLICK_UNIT_COUNT,
  FLICK_UNIT_BYTES,
  FLICK_UNIT_NS,
  FLICK_UNIT_US
};

/// For consumers that ignore an entry shape (e.g. the gauge ARRAY).
#define FLICK_SCHEMA_SKIP(...)

// The lists are tables, one entry per line; keep clang-format from
// reflowing them.
// clang-format off

/// The scalar members of flick_metrics (runtime/flick_runtime.h), in
/// declaration order.  Per-thread blocks merge with flick_metrics_merge.
#define FLICK_METRICS_SCHEMA(X)                                                \
  /* Client endpoint. */                                                       \
  X(uint64_t, rpcs_sent, SUM, COUNT, "Two-way invokes issued.")                \
  X(uint64_t, oneways_sent, SUM, COUNT, "One-way sends issued.")               \
  X(uint64_t, replies_received, SUM, COUNT, "Replies successfully received.")  \
  X(uint64_t, request_bytes, SUM, BYTES, "Bytes sent client to server.")       \
  X(uint64_t, reply_bytes, SUM, BYTES, "Bytes received server to client.")     \
  /* Server endpoint. */                                                       \
  X(uint64_t, rpcs_handled, SUM, COUNT, "Requests received and dispatched.")   \
  X(uint64_t, replies_sent, SUM, COUNT, "Non-empty replies sent.")             \
  X(uint64_t, server_request_bytes, SUM, BYTES,                                \
    "Request bytes seen by the server.")                                       \
  X(uint64_t, server_reply_bytes, SUM, BYTES,                                  \
    "Reply bytes sent by the server.")                                         \
  /* Buffer reuse (paper section 3.1). */                                      \
  X(uint64_t, buf_grows, SUM, COUNT, "Marshal buffer grow slow paths.")        \
  X(uint64_t, buf_reuses, SUM, COUNT,                                          \
    "Buffer resets that kept an allocation.")                                  \
  /* Scratch arena. */                                                         \
  X(uint64_t, arena_grows, SUM, COUNT, "Scratch-arena block allocations.")     \
  X(uint64_t, arena_high_water, MAX, BYTES,                                    \
    "Most bytes live in one scratch-arena block.")                             \
  /* Errors. */                                                                \
  X(uint64_t, decode_errors, SUM, COUNT, "Malformed or truncated messages.")   \
  X(uint64_t, transport_errors, SUM, COUNT, "Channel send/recv failures.")     \
  X(uint64_t, demux_errors, SUM, COUNT,                                        \
    "Requests that matched no operation at dispatch.")                         \
  X(uint64_t, alloc_errors, SUM, COUNT,                                        \
    "Buffer or arena allocation failures.")                                    \
  /* Interpreted marshaling (runtime/Interp.h). */                             \
  X(uint64_t, interp_encodes, SUM, COUNT,                                      \
    "Encode calls run by the interpretive marshaler.")                         \
  X(uint64_t, interp_decodes, SUM, COUNT,                                      \
    "Decode calls run by the interpretive marshaler.")                         \
  /* Runtime marshal specialization (runtime/Specialize.h). */                 \
  X(uint64_t, interp_dispatches, SUM, COUNT,                                   \
    "Dynamic dispatches run by the interpretive marshaler.")                   \
  X(uint64_t, spec_programs, SUM, COUNT,                                       \
    "Type programs compiled by the runtime specializer.")                      \
  X(uint64_t, spec_compile_ns, SUM, NS,                                        \
    "Time spent specializing type programs.")                                  \
  X(uint64_t, spec_cache_hits, SUM, COUNT, "Specialized-program cache hits.")  \
  X(uint64_t, spec_steps_fused, SUM, COUNT,                                    \
    "Primitive marshal steps fused at specialization time.")                   \
  X(uint64_t, spec_dispatches_avoided, SUM, COUNT,                             \
    "Interpreter dispatches saved by specialized programs.")                   \
  /* Copy accounting: every bulk byte movement on the message path (stub */    \
  /* marshal copies, transport staging, pooled-buffer fills). */               \
  X(uint64_t, bytes_copied, SUM, BYTES, "Payload bytes moved by copies.")      \
  X(uint64_t, copy_ops, SUM, COUNT,                                            \
    "Bulk copy operations on the message path.")                               \
  /* Scatter-gather marshaling (--gather-min-bytes). */                        \
  X(uint64_t, gather_refs, SUM, COUNT,                                         \
    "Segments appended by reference instead of copied.")                       \
  X(uint64_t, gather_bytes, SUM, BYTES,                                        \
    "Bytes covered by by-reference segments.")                                 \
  /* Wire-buffer pools and request-queue backpressure. */                      \
  X(uint64_t, pool_hits, SUM, COUNT, "Pooled wire buffers reused.")            \
  X(uint64_t, pool_misses, SUM, COUNT, "Wire-buffer pool misses.")             \
  X(uint64_t, queue_full, SUM, COUNT, "Sends that met a full request queue.")  \
  /* Async client demultiplexer (duplicate or unknown ids are dropped). */     \
  X(uint64_t, corr_drops, SUM, COUNT,                                          \
    "Replies whose correlation id matched no pending call.")                   \
  X(double, wire_time_us, SUM, US,                                             \
    "Simulated wire time accumulated by modeled links.")

/// The members of flick_gauges (runtime/Sampler.h), in declaration order.
/// ARRAY(Type, name, Extent, Kind, Unit, Help) declares a per-shard slot
/// array, exported as one series per slot labeled `shard`.
#define FLICK_GAUGES_SCHEMA(X, ARRAY)                                          \
  /* Instantaneous. */                                                         \
  X(uint64_t, queue_depth, MAX, COUNT, "Transport requests currently queued.") \
  X(uint64_t, inflight_rpcs, MAX, COUNT,                                       \
    "Client invokes currently in flight.")                                     \
  X(uint64_t, pool_buffers, MAX, COUNT,                                        \
    "Wire buffers parked in per-thread pools.")                                \
  X(uint64_t, workers_busy, MAX, COUNT,                                        \
    "Pool workers currently inside dispatch.")                                 \
  X(uint64_t, workers_running, MAX, COUNT, "Live pool worker threads.")        \
  /* Cumulative. */                                                            \
  X(uint64_t, rpcs_completed, SUM, COUNT, "Client invokes finished.")          \
  X(uint64_t, queue_enqueues, SUM, COUNT,                                      \
    "Requests pushed to the MPSC queue.")                                      \
  X(uint64_t, queue_dequeues, SUM, COUNT, "Requests popped by workers.")       \
  X(uint64_t, queue_wait_ns, SUM, NS, "Total enqueue-to-dequeue wait.")        \
  X(uint64_t, lock_wait_ns, SUM, NS,                                           \
    "Total time blocked acquiring the queue mutex.")                           \
  X(uint64_t, lock_acquires, SUM, COUNT, "Timed queue-mutex acquisitions.")    \
  X(uint64_t, queue_full_waits, SUM, COUNT,                                    \
    "Sends that met a full request queue.")                                    \
  X(uint64_t, pool_gauge_hits, SUM, COUNT,                                     \
    "Pooled wire buffers reused (gauge-side count).")                          \
  X(uint64_t, pool_gauge_misses, SUM, COUNT,                                   \
    "Wire-buffer pool misses (gauge-side count).")                             \
  X(uint64_t, worker_busy_ns, SUM, NS,                                         \
    "Total time pool workers spent dispatching.")                              \
  X(uint64_t, stalls_detected, SUM, COUNT, "Watchdog deadline violations.")    \
  /* Sharded transport (the lock-free analogues of lock_wait_ns). */           \
  X(uint64_t, ring_wait_ns, SUM, NS,                                           \
    "Total time senders blocked on a full sharded ring.")                      \
  X(uint64_t, steals, SUM, COUNT, "Cross-shard request pops by pool workers.") \
  /* Socket transport. */                                                      \
  X(uint64_t, sock_syscalls, SUM, COUNT, "Socket-transport syscalls issued.")  \
  X(uint64_t, sock_eagain, SUM, COUNT,                                         \
    "Socket-transport send EAGAIN retries.")                                   \
  X(uint64_t, window_stalls, SUM, COUNT,                                       \
    "Async-client submits that found the pipeline window full.")               \
  /* Shard i of a ShardedLink reports in slot i mod the slot count. */         \
  ARRAY(uint64_t, shard_depth, FLICK_GAUGE_SHARD_SLOTS, MAX, COUNT,            \
        "Requests queued per transport shard.")                                \
  X(uint64_t, shard_slots_live, MAX, COUNT,                                    \
    "Shard slots in use by the live sharded link (0: none reported).")

// clang-format on

#endif // FLICK_RUNTIME_METRICSCHEMA_H
