//===- runtime/transport/Message.cpp - Shared message handling ------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "runtime/transport/Message.h"
#include "runtime/flick_runtime.h"

using namespace flick;

int MsgEndpoint::pack(const flick_iov *Segs, size_t Count, Msg *M) {
  size_t Total = 0;
  for (size_t I = 0; I != Count; ++I)
    Total += Segs[I].len;
  M->Data = Pool->acquire(Total, &M->Cap);
  if (!M->Data) {
    flick_metric_add(&flick_metrics::alloc_errors, 1);
    return FLICK_ERR_TRANSPORT;
  }
  size_t Off = 0;
  for (size_t I = 0; I != Count; ++I) {
    std::memcpy(M->Data + Off, Segs[I].base, Segs[I].len);
    Off += Segs[I].len;
  }
  M->Len = Total;
  if (flick_metrics_active) {
    flick_metrics_active->bytes_copied += Total;
    ++flick_metrics_active->copy_ops;
  }
  if (flick_trace_active)
    flick_trace_stamp(&M->TraceId, &M->ParentSpan, &M->Endpoint);
  M->Corr = CorrOut;
  return FLICK_OK;
}

void MsgEndpoint::adopt(const Msg &M, flick_buf *Into, bool Echo) {
  CorrIn = M.Corr;
  if (Echo)
    CorrOut = M.Corr;
  if (flick_trace_active)
    flick_trace_deposit(M.TraceId, M.ParentSpan, M.Endpoint);
  // Legal because flick_buf manages data with realloc/free and the pool
  // allocates with malloc.
  flick_buf_reset(Into);
  Pool->release(Into->data, Into->cap);
  Into->data = M.Data;
  Into->cap = M.Cap;
  Into->len = M.Len;
  Into->pos = 0;
}

QueueConn::~QueueConn() {
  for (Msg &M : RepQ)
    std::free(M.Data);
}

int QueueConn::recvInto(flick_buf *Into) {
  Msg M;
  {
    std::unique_lock<std::mutex> L(RMu);
    RCv.wait(L, [&] {
      return !RepQ.empty() || Down.load(std::memory_order_relaxed);
    });
    if (RepQ.empty())
      return FLICK_ERR_TRANSPORT;
    M = RepQ.front();
    RepQ.pop_front();
  }
  // The buffer migrates from the worker's pool to this connection's
  // (both plain malloc).
  adopt(M, Into, /*Echo=*/false);
  return FLICK_OK;
}

void QueueConn::putReply(const Msg &M) {
  {
    std::lock_guard<std::mutex> L(RMu);
    RepQ.push_back(M);
  }
  RCv.notify_one();
}

void QueueConn::wake() {
  { std::lock_guard<std::mutex> L(RMu); }
  RCv.notify_all();
}

int QueueWorker::sendv(const flick_iov *Segs, size_t Count) {
  Msg M;
  if (int Err = pack(Segs, Count, &M))
    return Err;
  if (!Cur) {
    Pool->release(M.Data, M.Cap);
    return FLICK_ERR_TRANSPORT;
  }
  Link.wireDelay(M.Len);
  Cur->putReply(M);
  return FLICK_OK;
}
