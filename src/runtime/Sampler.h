//===- runtime/Sampler.h - Runtime flight recorder --------------*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime flight recorder: always-compiled, off-by-default
/// time-series telemetry for the RPC runtime.  Three pieces:
///
///  - `flick_gauges`: one process-global block of relaxed atomics updated
///    at the places the known bottlenecks live -- ThreadedLink queue depth
///    and enqueue->dequeue wait, time blocked acquiring the MPSC queue
///    mutex, in-flight RPC count, WireBufPool occupancy and hit rate, and
///    worker busy time in flick_server_pool.  Every update site is guarded
///    by one relaxed flag load (`flick_gauges_on()`), so a build with the
///    recorder idle pays a predictable test-and-branch, the same idiom as
///    `flick_metrics` / `flick_trace`.  Unlike those, the block is shared
///    -- gauges exist to be read *live* from another thread.
///
///  - `flick_sampler`: a background thread that wakes on a fixed interval
///    and snapshots the gauges (plus, optionally, a watched flick_metrics
///    block) into a fixed-size single-writer ring.  Readers never block
///    the sampler: the ring publishes through one atomic head counter,
///    and a reader that races a wrap simply re-reads.  Exports: JSONL
///    time series (one object per sample with per-interval rates), Chrome
///    trace *counter* events ("ph":"C") that interleave with the span
///    tracer's timeline, and a post-mortem JSON dump of the whole ring.
///
///  - the stall watchdog: client invokes stamp a start time into a small
///    lock-free slot table; each sampler tick scans it and flags RPCs in
///    flight past a configurable deadline, bumping `stalls_detected` and
///    dumping the ring as post-mortem JSON so a hang under load leaves
///    evidence behind.
///
/// Every gauge is declared once, in FLICK_GAUGES_SCHEMA
/// (runtime/MetricSchema.h).  The Prometheus text exposition of the
/// metrics block plus the live gauges is flick_metrics_to_prometheus in
/// runtime/Metrics.cpp; bench binaries dump it when FLICK_METRICS_PROM
/// names a path.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_RUNTIME_SAMPLER_H
#define FLICK_RUNTIME_SAMPLER_H

#include "MetricSchema.h"
#include <atomic>
#include <cstdint>
#include <string>

struct flick_metrics;
struct flick_tracer;

//===----------------------------------------------------------------------===//
// Gauges
//===----------------------------------------------------------------------===//

/// Per-shard occupancy slots exported by ShardedLink (shard i reports in
/// slot i mod FLICK_GAUGE_SHARD_SLOTS; the default shard counts fit
/// without aliasing).
enum { FLICK_GAUGE_SHARD_SLOTS = 8 };

/// Process-global contention and utilization gauges.  All fields are
/// relaxed atomics: single writes are exact, cross-field reads are
/// individually coherent but not a consistent cut -- exactly what a
/// telemetry sampler needs and nothing more.  Instantaneous (MAX) gauges
/// (queue_depth, inflight_rpcs, ...) move both ways; cumulative (SUM) ones
/// only grow, and the sampler turns them into per-interval rates.
/// shard_slots_live counts the shard slots the live ShardedLink uses, so
/// exporters average occupancy over those instead of all slots.
struct flick_gauges {
#define FLICK_GAUGE_MEMBER(Type, Name, Kind, Unit, Help)                       \
  std::atomic<Type> Name{0};
#define FLICK_GAUGE_ARRAY(Type, Name, Extent, Kind, Unit, Help)                \
  std::atomic<Type> Name[Extent] = {};
  FLICK_GAUGES_SCHEMA(FLICK_GAUGE_MEMBER, FLICK_GAUGE_ARRAY)
#undef FLICK_GAUGE_ARRAY
#undef FLICK_GAUGE_MEMBER
};

/// The global gauge block (always present; cold when recording is off).
extern flick_gauges flick_gauges_global;

/// Nonzero while a sampler (or an explicit enable) wants gauge updates.
extern std::atomic<int> flick_gauges_enabled;

inline bool flick_gauges_on() {
  return flick_gauges_enabled.load(std::memory_order_relaxed) != 0;
}

/// Turns gauge updates on/off process-wide.  flick_sampler_start/stop do
/// this for you; tests use it directly.  Enabling zeroes the block so
/// instantaneous gauges cannot inherit an unbalanced count from a
/// previous session.
void flick_gauges_enable();
void flick_gauges_disable();

/// Nanoseconds on the shared monotonic gauge clock (epoch = first use).
uint64_t flick_gauge_now_ns();

inline void flick_gauge_add(std::atomic<uint64_t> flick_gauges::*F,
                            uint64_t V) {
  if (flick_gauges_on())
    (flick_gauges_global.*F).fetch_add(V, std::memory_order_relaxed);
}

/// Decrement that saturates at zero, so a gauge enabled mid-conversation
/// (inc unseen, dec seen) degrades to a brief undercount instead of
/// wrapping to 2^64.
inline void flick_gauge_sub(std::atomic<uint64_t> flick_gauges::*F,
                            uint64_t V) {
  if (!flick_gauges_on())
    return;
  std::atomic<uint64_t> &G = flick_gauges_global.*F;
  uint64_t Cur = G.load(std::memory_order_relaxed);
  while (Cur != 0 &&
         !G.compare_exchange_weak(Cur, Cur > V ? Cur - V : 0,
                                  std::memory_order_relaxed))
    ;
}

/// Lock-wait bracket: `t0 = flick_gauge_lock_begin()` before a mutex
/// acquisition, `flick_gauge_lock_end(t0)` once it is held.  Returns 0
/// (and the end is a no-op) when gauges are off, so the off cost is one
/// relaxed load per bracket.
inline uint64_t flick_gauge_lock_begin() {
  return flick_gauges_on() ? flick_gauge_now_ns() : 0;
}
void flick_gauge_lock_end(uint64_t t0_ns);

/// Per-shard occupancy updates (slot = shard index mod the slot count);
/// the decrement saturates at zero like flick_gauge_sub.
inline void flick_gauge_shard_add(size_t Shard, uint64_t V) {
  if (flick_gauges_on())
    flick_gauges_global.shard_depth[Shard % FLICK_GAUGE_SHARD_SLOTS].fetch_add(
        V, std::memory_order_relaxed);
}
inline void flick_gauge_shard_sub(size_t Shard, uint64_t V) {
  if (!flick_gauges_on())
    return;
  std::atomic<uint64_t> &G =
      flick_gauges_global.shard_depth[Shard % FLICK_GAUGE_SHARD_SLOTS];
  uint64_t Cur = G.load(std::memory_order_relaxed);
  while (Cur != 0 &&
         !G.compare_exchange_weak(Cur, Cur > V ? Cur - V : 0,
                                  std::memory_order_relaxed))
    ;
}

//===----------------------------------------------------------------------===//
// Stall watchdog slots
//===----------------------------------------------------------------------===//

/// In-flight RPC start times for the watchdog, one slot per client
/// thread (assigned round-robin; with more threads than slots two threads
/// share one and the watchdog merely loses sight of one of them -- it
/// never reports a false stall for an RPC that completed, because
/// completion clears the slot).
enum { FLICK_STALL_SLOTS = 256 };

/// Marks the calling thread's slot "RPC started now"; returns the slot
/// index, or -1 when gauges are off.
int flick_stall_mark_begin();

/// Clears \p slot (RPC completed).  Negative slots are ignored.
void flick_stall_mark_end(int slot);

//===----------------------------------------------------------------------===//
// Samples
//===----------------------------------------------------------------------===//

/// One flight-recorder sample: a timestamp plus a raw snapshot of every
/// scalar gauge, named as in flick_gauges (cumulative fields stay
/// cumulative; exporters derive per-interval rates from consecutive
/// samples), and an optional watched-metrics excerpt.
struct flick_sample {
  double t_us = 0;           ///< since sampler start
  uint64_t stalled_rpcs = 0; ///< in flight past the deadline at this tick
#define FLICK_SAMPLE_GAUGE(Type, Name, Kind, Unit, Help) Type Name = 0;
  FLICK_GAUGES_SCHEMA(FLICK_SAMPLE_GAUGE, FLICK_SCHEMA_SKIP)
#undef FLICK_SAMPLE_GAUGE
  uint64_t shard_depth_max = 0; ///< deepest shard slot at this tick
  double shard_depth_avg = 0;   ///< mean occupancy over the live slots only
  // Watched flick_metrics excerpt (zero when nothing is watched).
  uint64_t m_rpcs_sent = 0;
  uint64_t m_rpcs_handled = 0;
  uint64_t m_request_bytes = 0;
  uint64_t m_queue_full = 0;
  // SLO counters summed over the watched block's per-endpoint anatomy
  // table (zero when nothing is watched or no SLO is configured).
  uint64_t slo_met = 0;
  uint64_t slo_violated = 0;
};

//===----------------------------------------------------------------------===//
// The sampler
//===----------------------------------------------------------------------===//

struct flick_sampler_opts {
  double interval_us = 1000.0;  ///< sampling period (default 1 ms)
  uint32_t ring_cap = 8192;     ///< samples retained (oldest overwritten)
  double stall_deadline_us = 0; ///< 0 disables the watchdog
  /// When the watchdog fires, the whole ring is dumped here as JSON (once
  /// per sampler session).  Null: no post-mortem file.
  const char *postmortem_path = nullptr;
};

/// Starts the background sampler (one per process) and enables gauges.
/// Returns FLICK_OK, or FLICK_ERR_ALLOC when already running / opts are
/// unusable.  \p opts null means defaults.
int flick_sampler_start(const flick_sampler_opts *opts);

/// Stops the sampler thread (taking one final sample), disables gauges,
/// and keeps the ring readable until the next start.
void flick_sampler_stop();

int flick_sampler_running();

/// Registers \p m to be excerpted into each sample.  The sampler reads
/// the watched fields with relaxed atomic loads while the owning thread
/// writes them plainly: values may lag by a store but are never torn.
/// Watch only a block that outlives the sampler session; null clears.
void flick_sampler_watch(flick_metrics *m);

/// Samples currently readable (after stop, or racily while running).
size_t flick_sampler_count();

/// Copies the \p i-th retained sample, oldest first.  Returns false when
/// \p i is out of range or the slot was overwritten mid-read (caller
/// skips it).
int flick_sampler_get(size_t i, flick_sample *out);

/// Watchdog detections so far this session.
uint64_t flick_sampler_stalls();

/// JSONL time series: one JSON object per line per sample, cumulative
/// fields rendered as per-interval rates (rpc/s, mean queue wait us,
/// lock-wait and worker-busy fractions of the interval, pool hit rate)
/// beside the instantaneous gauges.  First line is a header object with
/// the build info and sampler configuration.
std::string flick_sampler_to_jsonl();

/// The whole ring as one JSON document {"build": ..., "config": ...,
/// "stalls_detected": N, "samples": [...]} -- the post-mortem format.
std::string flick_sampler_to_json(const char *indent = "  ");

/// Chrome trace counter events ("ph":"C"), one per series per sample,
/// rendered as a comma-separated fragment ready to splice into a
/// traceEvents array.  \p epoch_offset_us is added to every timestamp --
/// pass flick_sampler_epoch_offset_us(tracer) to land the counters on a
/// span tracer's timeline.  Empty string when no samples exist.
std::string flick_sampler_chrome_counters(double epoch_offset_us);

/// Microseconds from \p t's epoch to the sampler's start (positive when
/// the sampler started after the tracer).  0 when either is absent.
double flick_sampler_epoch_offset_us(const flick_tracer *t);

#endif // FLICK_RUNTIME_SAMPLER_H
