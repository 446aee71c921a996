//===- runtime/transport/LocalLink.cpp - In-process pump link -------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "runtime/transport/LocalLink.h"
#include "runtime/flick_runtime.h"

using namespace flick;

LocalLink::LocalLink() : AEnd(*this, true), BEnd(*this, false) {}

LocalLink::~LocalLink() {
  for (std::deque<Msg> *Q : {&ToA, &ToB})
    for (Msg &M : *Q)
      std::free(M.Data);
}

void LocalLink::setModel(NetworkModel Model, SimClock *Clock) {
  this->Model = std::move(Model);
  this->Clock = Clock;
}

void LocalLink::account(size_t Len) {
  if (!Clock)
    return;
  double Us = Model.wireTimeUs(Len);
  Clock->advance(Us);
  if (flick_metrics_active)
    flick_metrics_active->wire_time_us += Us;
  // The modeled transit time is already known, so it is recorded as a
  // completed child span of whatever send is in flight.
  if (flick_trace_active)
    flick_trace_record_complete(FLICK_SPAN_WIRE, "wire", Us);
}

int LocalLink::End::sendv(const flick_iov *Segs, size_t Count) {
  Msg M;
  if (int Err = pack(Segs, Count, &M))
    return Err;
  Link.account(M.Len);
  (IsClient ? Link.ToB : Link.ToA).push_back(M);
  return FLICK_OK;
}

int LocalLink::End::recvInto(flick_buf *Into) {
  auto &Queue = IsClient ? Link.ToA : Link.ToB;
  // The client side synchronously pumps the server until a reply shows up;
  // the server side simply fails when no request is pending.
  while (Queue.empty()) {
    if (!IsClient || !Link.Pump || !Link.Pump())
      return FLICK_ERR_TRANSPORT;
  }
  Msg M = Queue.front();
  Queue.pop_front();
  // The server end echoes the request's correlation id onto its reply.
  adopt(M, Into, /*Echo=*/!IsClient);
  return FLICK_OK;
}
