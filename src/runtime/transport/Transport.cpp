//===- runtime/transport/Transport.cpp - Transport seam -------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "runtime/transport/Transport.h"
#include "runtime/transport/ShardedLink.h"
#include "runtime/transport/SocketLink.h"
#include "runtime/transport/ThreadedLink.h"
#include "runtime/flick_runtime.h"
#include <chrono>
#include <cstring>
#include <thread>

using namespace flick;

Transport::~Transport() = default;

void Transport::setModel(NetworkModel Model) {
  this->Model = std::move(Model);
  Modeled = true;
}

void Transport::wireDelay(size_t Len) const {
  if (!Modeled)
    return;
  double Us = Model.wireTimeUs(Len);
  if (flick_metrics_active)
    flick_metrics_active->wire_time_us += Us;
  if (flick_trace_active)
    flick_trace_record_complete(FLICK_SPAN_WIRE, "wire", Us);
  // Realized as real blocking time on the sending thread, so worker-pool
  // concurrency genuinely overlaps it.
  std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(Us));
}

std::unique_ptr<Transport> flick::makeTransport(const char *Name,
                                                size_t QueueCap) {
  if (!Name || !std::strcmp(Name, "sharded"))
    return std::unique_ptr<Transport>(new ShardedLink(QueueCap));
  if (!std::strcmp(Name, "threaded"))
    return std::unique_ptr<Transport>(new ThreadedLink(QueueCap));
  if (!std::strcmp(Name, "socket"))
    return std::unique_ptr<Transport>(new SocketLink(QueueCap));
  return nullptr;
}
