//===- runtime/Channel.h - Message channel + wire-buffer pool ---*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Channel abstraction beneath the generated stubs (gather send and
/// receive-by-adoption of one framed message, with flat wrappers) and the
/// WireBufPool both sides of every link share.
///
/// The concrete transports moved to `runtime/transport/`:
///
///  - transport/LocalLink.h    deterministic single-threaded pump link
///                             (examples, goldens, fig3-7 benches)
///  - transport/Transport.h    the pluggable seam for the concurrent
///                             runtime, with ThreadedLink (mutex queue
///                             baseline), ShardedLink (lock-free rings +
///                             work stealing), and SocketLink (Unix
///                             sockets + epoll) behind it
///
/// This header intentionally keeps no transport: code that only moves
/// bytes over "some channel" includes this; code that builds links picks
/// one from transport/.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_RUNTIME_CHANNEL_H
#define FLICK_RUNTIME_CHANNEL_H

#include <cstddef>
#include <cstdint>
#include <vector>

struct flick_buf;
struct flick_iov;

namespace flick {

class WireBufPool;

/// Abstract message transport: send one framed message / receive one.
/// A transport implements one I/O path -- gather send (sendv) and
/// receive-by-adoption (recvInto) -- and may specialize sendBatch.  The
/// flat send/recv pair and release are written once here on top of it:
/// send is a one-segment sendv, recv adopts into a scratch buffer and
/// copies out, and release hands adopted storage back to the endpoint's
/// WireBufPool.
class Channel {
public:
  virtual ~Channel();

  /// Queues one message given as \p Count scatter-gather segments, which
  /// are borrowed only for the duration of the call.  Returns FLICK_OK or
  /// FLICK_ERR_TRANSPORT.
  virtual int sendv(const flick_iov *Segs, size_t Count) = 0;

  /// Receives one message directly into \p Into (reset first).  In-tree
  /// transports hand their pooled message storage over whole instead of
  /// copying.  Returns FLICK_OK or FLICK_ERR_TRANSPORT when no message
  /// can be produced.
  virtual int recvInto(flick_buf *Into) = 0;

  /// Queues \p NMsgs whole messages in one call, each given as its own
  /// scatter-gather segment list (Segs[i], Counts[i] segments).  Used by
  /// the async client's oneway corking: transports that can amortize
  /// per-send cost override this (SocketLink issues one sendmsg over all
  /// frames); the default just loops sendv per message.  Stops at the
  /// first failure and returns its status.
  virtual int sendBatch(const flick_iov *const *Segs, const size_t *Counts,
                        size_t NMsgs);

  /// Queues one message of \p Len flat bytes: sendv with one segment.
  int send(const uint8_t *Data, size_t Len);

  /// Receives one message into \p Out (replaced on success): recvInto a
  /// scratch buffer, copy the bytes out (one counted copy), release.
  int recv(std::vector<uint8_t> &Out);

  /// Hint that \p Buf's contents are dead (the dispatch frame or client
  /// call that was reading them has finished).  An endpoint with a pool
  /// reclaims the storage recvInto adopted into \p Buf, so the next
  /// sender refills the same hot allocation instead of ping-ponging
  /// between two, and leaves \p Buf empty but valid.  Without a pool
  /// (test doubles) the buffer is left alone for flick_buf's own reuse.
  void release(flick_buf *Buf);

  //===--------------------------------------------------------------------===//
  // Out-of-band request correlation (DESIGN.md §15)
  //
  // The async pipelined client tags every outgoing request with a nonzero
  // correlation id; the transport carries it *next to* the payload (in
  // the queue transports' Msg struct / SocketLink's frame header, exactly
  // where the trace context already rides) so payload bytes are identical
  // whether or not the caller pipelines.  A worker-side channel that
  // receives a request auto-echoes the id onto its next reply, so servers
  // need no changes.  Synchronous clients never call setCorrelation and
  // the id stays 0 throughout.
  //===--------------------------------------------------------------------===//

  /// Sets the correlation id stamped on subsequent outgoing messages.
  void setCorrelation(uint64_t Id) { CorrOut = Id; }

  /// The correlation id carried by the most recently received message
  /// (0 when the sender did not tag it).
  uint64_t lastCorrelation() const { return CorrIn; }

protected:
  uint64_t CorrOut = 0; ///< id stamped on the next send
  uint64_t CorrIn = 0;  ///< id carried by the last received message
  WireBufPool *Pool = nullptr; ///< where release() reclaims storage
};

/// Fixed-size free list of malloc'd wire-message allocations (DESIGN.md
/// §11): a receiver adopts a pooled buffer whole instead of copying it
/// out, and releases its previous one for the next sender to refill.  Not
/// internally synchronized -- every pool belongs to one channel endpoint,
/// and in threaded mode each endpoint is confined to one thread, so the
/// zero-copy path stays hot without a global lock.  Buffers migrate
/// freely between pools (all storage is plain malloc/free).
class WireBufPool {
public:
  ~WireBufPool();

  /// Returns a buffer with capacity >= \p Need: a pooled one when the
  /// free list has a fit (pool_hits), else a fresh malloc (pool_misses).
  uint8_t *acquire(size_t Need, size_t *Cap);

  /// Parks \p Data for reuse, or frees it when the pool is full.
  void release(uint8_t *Data, size_t Cap);

private:
  struct Ent {
    uint8_t *Data;
    size_t Cap;
  };
  enum { MaxBufs = 8 };
  Ent Bufs[MaxBufs];
  size_t Count = 0;
};

} // namespace flick

#endif // FLICK_RUNTIME_CHANNEL_H
