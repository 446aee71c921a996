//===- runtime/transport/ShardedLink.cpp - Lock-free rings ----------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "runtime/transport/ShardedLink.h"
#include "runtime/Sampler.h"
#include "runtime/flick_runtime.h"
#include <algorithm>
#include <chrono>

using namespace flick;

// Shards beyond the worker count just add steal sweeps, so the default
// stays small; fig8 tops out at 4 workers.
static const size_t DefaultShards = 4;

//===----------------------------------------------------------------------===//
// Ring
//===----------------------------------------------------------------------===//

void ShardedLink::Ring::init(size_t Cap) {
  // Minimum 2: with one cell, "pushed, awaiting pop" (Seq = T+1) and
  // "popped, free for the next lap" (Seq = T+Cap = T+1) are the same
  // state, so a 1-cell ring could never report full.
  size_t C = 2;
  while (C < Cap)
    C <<= 1;
  Cells.reset(new Cell[C]);
  for (size_t I = 0; I != C; ++I)
    Cells[I].Seq.store(I, std::memory_order_relaxed);
  Mask = C - 1;
}

bool ShardedLink::Ring::push(Conn *From, const Msg &M) {
  uint64_t Ticket = Head.load(std::memory_order_relaxed);
  for (;;) {
    Cell &C = Cells[Ticket & Mask];
    uint64_t Seq = C.Seq.load(std::memory_order_acquire);
    if (Seq == Ticket) {
      // Cell is free for this ticket; claim it.
      if (Head.compare_exchange_weak(Ticket, Ticket + 1,
                                     std::memory_order_relaxed))
        break;
      // Lost the claim race; Ticket was reloaded by the CAS.
    } else if (Seq < Ticket) {
      // The consumer of (Ticket - Cap) has not freed this cell: full.
      return false;
    } else {
      // Another producer advanced Head past us; chase it.
      Ticket = Head.load(std::memory_order_relaxed);
    }
  }
  Cell &C = Cells[Ticket & Mask];
  C.From = From;
  C.M = M;
  // Publish: pop's acquire load of Seq sees the payload stores above.
  C.Seq.store(Ticket + 1, std::memory_order_release);
  return true;
}

bool ShardedLink::Ring::pop(Conn **From, Msg *M) {
  uint64_t Ticket = Tail.load(std::memory_order_relaxed);
  for (;;) {
    Cell &C = Cells[Ticket & Mask];
    uint64_t Seq = C.Seq.load(std::memory_order_acquire);
    if (Seq == Ticket + 1) {
      if (Tail.compare_exchange_weak(Ticket, Ticket + 1,
                                     std::memory_order_relaxed))
        break;
    } else if (Seq < Ticket + 1) {
      // The producer for this ticket has not published yet: empty.
      return false;
    } else {
      Ticket = Tail.load(std::memory_order_relaxed);
    }
  }
  Cell &C = Cells[Ticket & Mask];
  *From = C.From;
  *M = C.M;
  // Free the cell for the producer one lap ahead.
  C.Seq.store(Ticket + Mask + 1, std::memory_order_release);
  return true;
}

size_t ShardedLink::Ring::size() const {
  uint64_t H = Head.load(std::memory_order_relaxed);
  uint64_t T = Tail.load(std::memory_order_relaxed);
  return H > T ? H - T : 0;
}

//===----------------------------------------------------------------------===//
// Link lifecycle
//===----------------------------------------------------------------------===//

ShardedLink::ShardedLink(size_t ShardCap, size_t Shards)
    : NShards(Shards ? Shards : DefaultShards) {
  Rings.reset(new Ring[NShards]);
  for (size_t I = 0; I != NShards; ++I)
    Rings[I].init(ShardCap ? ShardCap : 1);
}

ShardedLink::~ShardedLink() {
  shutdown();
  // Requests never handed to a worker: reclaim their wire bytes.
  Conn *From;
  Msg M;
  for (size_t I = 0; I != NShards; ++I)
    while (Rings[I].pop(&From, &M))
      std::free(M.Data);
}

Channel &ShardedLink::connect() {
  std::lock_guard<std::mutex> L(EndsMu);
  size_t Shard =
      NextConnShard.fetch_add(1, std::memory_order_relaxed) % NShards;
  Conns.push_back(std::unique_ptr<Conn>(new Conn(*this, Shard)));
  return *Conns.back();
}

Channel &ShardedLink::workerEnd() {
  std::lock_guard<std::mutex> L(EndsMu);
  size_t Shard =
      NextWorkerShard.fetch_add(1, std::memory_order_relaxed) % NShards;
  Workers.push_back(std::unique_ptr<WorkerChan>(new WorkerChan(*this, Shard)));
  return *Workers.back();
}

void ShardedLink::shutdown() {
  if (Down.exchange(true, std::memory_order_seq_cst))
    return;
  // Lock-then-notify on both park mutexes closes the checked-predicate-
  // but-not-yet-parked window (the bounded waits below it are only the
  // backstop); same idiom as ThreadedLink::shutdown.
  {
    std::lock_guard<std::mutex> L(ParkMu);
  }
  WorkCv.notify_all();
  {
    std::lock_guard<std::mutex> L(FullMu);
  }
  SpaceCv.notify_all();
  std::lock_guard<std::mutex> E(EndsMu);
  for (auto &C : Conns)
    C->wake();
}

size_t ShardedLink::pendingRequests() const {
  size_t N = 0;
  for (size_t I = 0; I != NShards; ++I)
    N += Rings[I].size();
  return N;
}

size_t ShardedLink::shardDepth(size_t I) const {
  return I < NShards ? Rings[I].size() : 0;
}

bool ShardedLink::anyReady() const {
  for (size_t I = 0; I != NShards; ++I)
    if (Rings[I].size())
      return true;
  return false;
}

void ShardedLink::wakeWorker() {
  // seq_cst pairs with the worker's seq_cst Sleepers increment: either we
  // see the sleeper (and notify), or the sleeper's post-increment ring
  // recheck sees our push.  The worker's bounded wait covers the rest.
  if (Sleepers.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> L(ParkMu);
    WorkCv.notify_one();
  }
}

void ShardedLink::notifySpace() {
  if (FullWaiters.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> L(FullMu);
    SpaceCv.notify_all();
  }
}

//===----------------------------------------------------------------------===//
// Request path
//===----------------------------------------------------------------------===//

int ShardedLink::pushRequest(Conn *From, Msg M) {
  if (Down.load(std::memory_order_acquire)) {
    From->Pool->release(M.Data, M.Cap);
    return FLICK_ERR_TRANSPORT;
  }
  Ring &R = Rings[From->Shard];
  // Account the enqueue *before* the push: a worker can pop the message
  // the instant push publishes it, and its depth decrement must find our
  // increment already there (the saturating sub would otherwise floor at
  // zero and leave the gauge drifted +1).  The abort path below undoes
  // these.
  if (flick_gauges_on()) {
    M.EnqNs = flick_gauge_now_ns();
    flick_gauges_global.queue_enqueues.fetch_add(1, std::memory_order_relaxed);
    flick_gauges_global.queue_depth.fetch_add(1, std::memory_order_relaxed);
    flick_gauge_shard_add(From->Shard, 1);
    // Tell the sampler how many shard slots actually exist, so JSONL
    // depth statistics average over live shards, not all 8 slots.
    flick_gauges_global.shard_slots_live.store(
        std::min<uint64_t>(NShards, FLICK_GAUGE_SHARD_SLOTS),
        std::memory_order_relaxed);
  } else if (M.TraceId) {
    // A traced request still wants its queue wait attributed (the QUEUE
    // span) even with the flight recorder off.
    M.EnqNs = flick_gauge_now_ns();
  }
  if (!R.push(From, M)) {
    // Backpressure: count the event once, then wait for a worker to free
    // a cell.  ring_wait_ns is the sharded analogue of lock_wait_ns --
    // the only blocking this transport's senders ever do.
    flick_metric_add(&flick_metrics::queue_full, 1);
    flick_gauge_add(&flick_gauges::queue_full_waits, 1);
    uint64_t T0 = flick_gauges_on() ? flick_gauge_now_ns() : 0;
    FullWaiters.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> L(FullMu);
      for (;;) {
        if (Down.load(std::memory_order_relaxed)) {
          FullWaiters.fetch_sub(1, std::memory_order_relaxed);
          if (T0)
            flick_gauge_add(&flick_gauges::ring_wait_ns,
                            flick_gauge_now_ns() - T0);
          // Undo the optimistic enqueue accounting: nothing was queued.
          flick_gauge_sub(&flick_gauges::queue_depth, 1);
          flick_gauge_shard_sub(From->Shard, 1);
          flick_gauge_sub(&flick_gauges::queue_enqueues, 1);
          L.unlock();
          From->Pool->release(M.Data, M.Cap);
          return FLICK_ERR_TRANSPORT;
        }
        if (flick_gauges_on() || M.TraceId)
          M.EnqNs = flick_gauge_now_ns();
        if (R.push(From, M))
          break;
        // Bounded: a consumer's notify can race our park; 1ms caps the
        // damage of the lost wakeup.
        SpaceCv.wait_for(L, std::chrono::milliseconds(1));
      }
    }
    FullWaiters.fetch_sub(1, std::memory_order_relaxed);
    if (T0)
      flick_gauge_add(&flick_gauges::ring_wait_ns, flick_gauge_now_ns() - T0);
  }
  wakeWorker();
  return FLICK_OK;
}

bool ShardedLink::tryPopAny(size_t Pref, Conn **From, Msg *M) {
  for (size_t I = 0; I != NShards; ++I) {
    size_t S = (Pref + I) % NShards;
    if (!Rings[S].pop(From, M))
      continue;
    if (flick_gauges_on()) {
      flick_gauge_sub(&flick_gauges::queue_depth, 1);
      flick_gauge_shard_sub(S, 1);
      flick_gauges_global.queue_dequeues.fetch_add(1,
                                                   std::memory_order_relaxed);
      if (I)
        flick_gauges_global.steals.fetch_add(1, std::memory_order_relaxed);
      if (M->EnqNs) {
        uint64_t Now = flick_gauge_now_ns();
        flick_gauges_global.queue_wait_ns.fetch_add(
            Now > M->EnqNs ? Now - M->EnqNs : 0, std::memory_order_relaxed);
      }
    }
    if (M->EnqNs && flick_trace_active) {
      uint64_t Now = flick_gauge_now_ns();
      flick_trace_deposit_wait(Now > M->EnqNs ? Now - M->EnqNs : 0);
    }
    notifySpace();
    return true;
  }
  return false;
}

int ShardedLink::popRequest(WorkerChan *W, Conn **From, Msg *M) {
  for (;;) {
    // Spin a bounded number of sweeps (own shard first, then steal)
    // before parking; each empty sweep is NShards acquire loads.
    for (int Spin = 0; Spin != 64; ++Spin) {
      if (tryPopAny(W->Shard, From, M))
        return FLICK_OK;
      if (Down.load(std::memory_order_acquire)) {
        // Drain-then-stop: one final sweep so every request published
        // before shutdown is still handed out.
        if (tryPopAny(W->Shard, From, M))
          return FLICK_OK;
        return FLICK_ERR_TRANSPORT;
      }
    }
    // Park.  The seq_cst increment-then-recheck pairs with wakeWorker's
    // push-then-load; the bounded wait backstops the residual race.
    Sleepers.fetch_add(1, std::memory_order_seq_cst);
    if (!anyReady() && !Down.load(std::memory_order_relaxed)) {
      std::unique_lock<std::mutex> L(ParkMu);
      WorkCv.wait_for(L, std::chrono::milliseconds(10), [&] {
        return anyReady() || Down.load(std::memory_order_relaxed);
      });
    }
    Sleepers.fetch_sub(1, std::memory_order_relaxed);
  }
}

//===----------------------------------------------------------------------===//
// Channel endpoints
//===----------------------------------------------------------------------===//

int ShardedLink::Conn::sendv(const flick_iov *Segs, size_t Count) {
  Msg M;
  if (int Err = pack(Segs, Count, &M))
    return Err;
  Link.wireDelay(M.Len);
  return Link.pushRequest(this, M);
}

int ShardedLink::WorkerChan::recvInto(flick_buf *Into) {
  Conn *From = nullptr;
  Msg M;
  if (int Err = Link.popRequest(this, &From, &M))
    return Err;
  Cur = From;
  adopt(M, Into, /*Echo=*/true);
  return FLICK_OK;
}
