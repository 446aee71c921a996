//===- runtime/transport/Message.h - Shared message handling ----*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The message handling every in-tree transport shares, written once:
///
///  - Msg:          one message in flight -- pooled wire bytes plus the
///                  out-of-band trace context and correlation id.
///  - MsgEndpoint:  a Channel bound to a WireBufPool, with the two steps
///                  of every send and receive: pack (acquire, gather-copy,
///                  count the copy, stamp trace and correlation id) and
///                  adopt (deposit the trace context, take the correlation
///                  id, hand the pooled buffer over to the receiver).
///                  Reclaiming it is Channel::release.
///  - QueueConn / QueueWorker:  the client and worker ends of the queue
///                  transports (ThreadedLink, ShardedLink), which differ
///                  only in how requests are queued.  The per-connection
///                  reply queue lives here.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_RUNTIME_TRANSPORT_MESSAGE_H
#define FLICK_RUNTIME_TRANSPORT_MESSAGE_H

#include "runtime/transport/Transport.h"
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

namespace flick {

/// One message in flight.  The wire bytes live in a pool-managed malloc
/// allocation so a receiver can adopt it whole instead of copying it out.
/// The sender's trace context (trace id, span id, endpoint tag) rides
/// beside the bytes, never inside them, so tracing cannot perturb the
/// wire format; Corr carries the async client's correlation id (0 for
/// synchronous callers) the same way.  EnqNs stamps when a request
/// entered a queue transport's request queue (gauge clock, 0 when neither
/// the flight recorder nor the sender's tracer is on) so the dequeue side
/// can account the wait.
struct Msg {
  uint8_t *Data = nullptr;
  size_t Cap = 0;
  size_t Len = 0;
  uint64_t TraceId = 0;
  uint64_t ParentSpan = 0;
  uint32_t Endpoint = 0;
  uint64_t EnqNs = 0;
  uint64_t Corr = 0;
};

/// A Channel endpoint whose message buffers come from, and return to,
/// the pool it is constructed with: its own, or for LocalLink the one
/// both ends share.
class MsgEndpoint : public Channel {
protected:
  explicit MsgEndpoint(WireBufPool *P) { Pool = P; }

  /// Packs the \p Count segments into one pooled buffer: the endpoint's
  /// single user-space copy of an outgoing message, counted in
  /// bytes_copied/copy_ops, with the trace context and CorrOut stamped.
  /// Fails (alloc_errors) only when no buffer can be allocated.
  int pack(const flick_iov *Segs, size_t Count, Msg *M);

  /// Receives \p M into \p Into by adoption: deposits the trace context,
  /// records the correlation id (and, on a worker end, \p Echo makes the
  /// next reply carry it, so servers stay untouched by pipelining), and
  /// hands the pooled buffer over whole, parking Into's old storage in
  /// the pool.  Copies nothing.
  void adopt(const Msg &M, flick_buf *Into, bool Echo);
};

/// Client end of a queue transport.  Requests leave through the link's
/// request queue (sendv, per link); replies come back on this
/// connection's own mutex-guarded queue, which recvInto blocks on.
class QueueConn : public MsgEndpoint {
public:
  ~QueueConn() override;
  int recvInto(flick_buf *Into) override;

  /// Queues a reply for this connection and wakes its waiter.
  void putReply(const Msg &M);

  /// Wakes a waiter blocked in recvInto so it can see the link's shutdown
  /// flag.  Taking (and dropping) the lock before notifying closes the
  /// window where a waiter has checked the predicate but not yet parked.
  void wake();

protected:
  explicit QueueConn(const std::atomic<bool> &Down)
      : MsgEndpoint(&Bufs), Down(Down) {}

private:
  WireBufPool Bufs;
  const std::atomic<bool> &Down;
  std::mutex RMu;
  std::condition_variable RCv;
  std::deque<Msg> RepQ;
};

/// Worker end of a queue transport.  recvInto (per link) pops the next
/// request and records its connection in Cur; sendv answers it.
class QueueWorker : public MsgEndpoint {
public:
  /// Packs the reply and queues it to Cur after the modeled transit;
  /// fails when no request has been received yet.
  int sendv(const flick_iov *Segs, size_t Count) override;

protected:
  explicit QueueWorker(const Transport &Link)
      : MsgEndpoint(&Bufs), Link(Link) {}

  QueueConn *Cur = nullptr; ///< connection of the last received request

private:
  WireBufPool Bufs;
  const Transport &Link;
};

} // namespace flick

#endif // FLICK_RUNTIME_TRANSPORT_MESSAGE_H
