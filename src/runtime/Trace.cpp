//===- runtime/Trace.cpp - Per-RPC distributed tracing --------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "runtime/Trace.h"
#include "runtime/flick_runtime.h"
#include "support/BuildInfo.h"
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

thread_local flick_tracer *flick_trace_active = nullptr;

//===----------------------------------------------------------------------===//
// Endpoint registry and SLOs
//===----------------------------------------------------------------------===//

namespace {

struct EndpointReg {
  std::mutex Mu;
  char Names[FLICK_MAX_ENDPOINTS][48];
  flick_slo Slos[FLICK_MAX_ENDPOINTS];
  /// Ids minted; names/slos below Count are immutable once published
  /// (release store), so readers only need the acquire load.
  std::atomic<uint32_t> Count{1};
};

bool parseSlo(const char *Spec, flick_slo *Out) {
  *Out = flick_slo{};
  if (!Spec || Spec[0] != 'p')
    return false;
  const char *P = Spec + 1;
  const char *Digits = P;
  while (*P >= '0' && *P <= '9')
    ++P;
  if (P == Digits || *P != '<')
    return false;
  double Target = 0, Scale = 1;
  for (const char *C = Digits; C != P; ++C) {
    Scale /= 10;
    Target += (*C - '0') * Scale;
  }
  ++P; // past '<'
  char *End = nullptr;
  double Bound = std::strtod(P, &End);
  if (End == P || Bound <= 0)
    return false;
  double Mult;
  if (!std::strcmp(End, "us"))
    Mult = 1;
  else if (!std::strcmp(End, "ms"))
    Mult = 1e3;
  else if (!std::strcmp(End, "s"))
    Mult = 1e6;
  else
    return false;
  Out->set = 1;
  Out->target = Target;
  Out->threshold_us = Bound * Mult;
  std::snprintf(Out->objective, sizeof(Out->objective), "%s", Spec);
  return true;
}

/// Reads FLICK_SLO_<NAME> (falling back to FLICK_SLO_DEFAULT) for slot
/// \p Id.  Caller holds R.Mu or is still single-threaded.
void loadSloFor(EndpointReg &R, uint32_t Id) {
  char Env[96] = "FLICK_SLO_";
  size_t At = std::strlen(Env);
  for (const char *C = R.Names[Id]; *C && At + 1 < sizeof(Env); ++C)
    Env[At++] = std::isalnum(static_cast<unsigned char>(*C))
                    ? static_cast<char>(
                          std::toupper(static_cast<unsigned char>(*C)))
                    : '_';
  Env[At] = 0;
  const char *Spec = std::getenv(Env);
  if (!Spec || !*Spec)
    Spec = std::getenv("FLICK_SLO_DEFAULT");
  parseSlo(Spec, &R.Slos[Id]);
}

EndpointReg &endpointReg() {
  static EndpointReg *R = [] {
    auto *Reg = new EndpointReg;
    std::snprintf(Reg->Names[0], sizeof(Reg->Names[0]), "default");
    loadSloFor(*Reg, 0);
    return Reg;
  }();
  return *R;
}

} // namespace

uint32_t flick_endpoint_intern(const char *name) {
  if (!name || !*name)
    return 0;
  EndpointReg &R = endpointReg();
  std::lock_guard<std::mutex> L(R.Mu);
  uint32_t N = R.Count.load(std::memory_order_relaxed);
  for (uint32_t I = 0; I != N; ++I)
    if (!std::strcmp(R.Names[I], name))
      return I;
  if (N == FLICK_MAX_ENDPOINTS)
    return 0; // full: attribute to the default endpoint
  std::snprintf(R.Names[N], sizeof(R.Names[N]), "%s", name);
  loadSloFor(R, N);
  R.Count.store(N + 1, std::memory_order_release);
  return N;
}

const char *flick_endpoint_name(uint32_t id) {
  EndpointReg &R = endpointReg();
  if (id >= R.Count.load(std::memory_order_acquire))
    return "default";
  return R.Names[id];
}

uint32_t flick_endpoint_count() {
  return endpointReg().Count.load(std::memory_order_acquire);
}

void flick_endpoint_reset_for_tests() {
  EndpointReg &R = endpointReg();
  std::lock_guard<std::mutex> L(R.Mu);
  R.Count.store(1, std::memory_order_release);
  loadSloFor(R, 0);
}

const flick_slo *flick_slo_for(uint32_t id) {
  EndpointReg &R = endpointReg();
  if (id >= R.Count.load(std::memory_order_acquire))
    id = 0;
  return &R.Slos[id];
}

void flick_slo_reload() {
  EndpointReg &R = endpointReg();
  std::lock_guard<std::mutex> L(R.Mu);
  uint32_t N = R.Count.load(std::memory_order_relaxed);
  for (uint32_t I = 0; I != N; ++I)
    loadSloFor(R, I);
}

double flick_slo_strictest_allowed() {
  EndpointReg &R = endpointReg();
  uint32_t N = R.Count.load(std::memory_order_acquire);
  double Allowed = 0;
  for (uint32_t I = 0; I != N; ++I)
    if (R.Slos[I].set) {
      double A = 1.0 - R.Slos[I].target;
      if (Allowed == 0 || A < Allowed)
        Allowed = A;
    }
  return Allowed;
}

//===----------------------------------------------------------------------===//
// Latency histogram
//===----------------------------------------------------------------------===//

void flick_hist_record(flick_latency_hist *h, double us) {
  if (us < 0)
    us = 0;
  ++h->count;
  h->sum_us += us;
  if (us > h->max_us)
    h->max_us = us;
  // Bucket i holds [2^(i-1), 2^i); find the smallest i with us < 2^i.
  int I = 0;
  while (I < FLICK_HIST_BUCKETS - 1 &&
         us >= static_cast<double>(uint64_t(1) << I))
    ++I;
  ++h->buckets[I];
}

void flick_hist_merge(flick_latency_hist *dst, const flick_latency_hist *src) {
  dst->count += src->count;
  for (int I = 0; I != FLICK_HIST_BUCKETS; ++I)
    dst->buckets[I] += src->buckets[I];
  dst->sum_us += src->sum_us;
  if (src->max_us > dst->max_us)
    dst->max_us = src->max_us;
}

double flick_hist_percentile(const flick_latency_hist *h, double p) {
  if (h->count == 0)
    return 0;
  if (p < 0)
    p = 0;
  if (p > 1)
    p = 1;
  uint64_t Target = static_cast<uint64_t>(p * static_cast<double>(h->count));
  if (Target * 1.0 < p * static_cast<double>(h->count))
    ++Target; // ceil
  if (Target == 0)
    Target = 1;
  uint64_t Cum = 0;
  for (int I = 0; I != FLICK_HIST_BUCKETS; ++I) {
    Cum += h->buckets[I];
    if (Cum >= Target) {
      double Bound = static_cast<double>(uint64_t(1) << I);
      return Bound < h->max_us ? Bound : h->max_us;
    }
  }
  return h->max_us;
}

std::string flick_hist_to_json(const flick_latency_hist *h,
                               const char *indent) {
  char Buf[96];
  std::string Out = "{\n";
  auto Line = [&](const char *Key, double V, bool Comma) {
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": %.3f%s\n", indent, Key, V,
                  Comma ? "," : "");
    Out += Buf;
  };
  std::snprintf(Buf, sizeof(Buf), "%s\"count\": %llu,\n", indent,
                static_cast<unsigned long long>(h->count));
  Out += Buf;
  Line("sum_us", h->sum_us, true);
  Line("mean_us",
       h->count ? h->sum_us / static_cast<double>(h->count) : 0, true);
  Line("p50_us", flick_hist_percentile(h, 0.50), true);
  Line("p90_us", flick_hist_percentile(h, 0.90), true);
  Line("p99_us", flick_hist_percentile(h, 0.99), true);
  Line("max_us", h->max_us, true);
  // Nonzero buckets as [upper_bound_us, count] pairs.
  Out += indent;
  Out += "\"buckets\": [";
  bool First = true;
  for (int I = 0; I != FLICK_HIST_BUCKETS; ++I) {
    if (!h->buckets[I])
      continue;
    std::snprintf(Buf, sizeof(Buf), "%s[%llu, %llu]", First ? "" : ", ",
                  static_cast<unsigned long long>(uint64_t(1) << I),
                  static_cast<unsigned long long>(h->buckets[I]));
    Out += Buf;
    First = false;
  }
  Out += "]\n";
  // Close at the indent one level up from the body.
  std::string Ind = indent;
  if (Ind.size() >= 2)
    Ind.resize(Ind.size() - 2);
  Out += Ind + "}";
  return Out;
}

//===----------------------------------------------------------------------===//
// Recording
//===----------------------------------------------------------------------===//

namespace {

double nowUs(const flick_tracer *T) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - T->epoch)
      .count();
}

/// Pushes \p S into the completed-span ring.
void record(flick_tracer *T, const flick_span &S) {
  if (!T->spans || T->cap == 0)
    return;
  if (T->head >= T->cap)
    ++T->dropped;
  T->spans[T->head % T->cap] = S;
  ++T->head;
}

/// The innermost open span the stack still tracks (the caller ensures
/// depth > 0; past FLICK_TRACE_MAX_DEPTH that is the deepest tracked one).
const flick_span &topOpen(const flick_tracer *T) {
  return T->open[std::min<uint32_t>(T->depth, FLICK_TRACE_MAX_DEPTH) - 1];
}

/// Opens \p S (already initialized except ids/begin) under the current
/// innermost span, or as a root of a fresh trace when the stack is empty.
void pushOpen(flick_tracer *T, flick_span &S) {
  S.span_id = ++T->next_span_id;
  S.begin_us = nowUs(T);
  if (S.trace_id == 0) {
    if (T->depth > 0) {
      const flick_span &Top = topOpen(T);
      S.trace_id = Top.trace_id;
      S.parent_id = Top.span_id;
      if (!S.endpoint)
        S.endpoint = Top.endpoint;
    } else {
      S.trace_id = ++T->next_trace_id;
      S.parent_id = 0;
    }
  }
  if (T->depth < FLICK_TRACE_MAX_DEPTH)
    T->open[T->depth] = S;
  else
    ++T->truncated; // depth still advances so the matching end pairs up
  ++T->depth;
}

/// Attributes a completed span to the active metrics block's anatomy
/// table, and -- for a thread-root RPC close -- settles it against the
/// endpoint's SLO.
void recordAnatomy(const flick_span &S, bool thread_root) {
  flick_metrics *M = flick_metrics_active;
  if (!M)
    return;
  uint32_t Ep = S.endpoint < FLICK_MAX_ENDPOINTS ? S.endpoint : 0;
  flick_endpoint_stats &E = M->anatomy[Ep];
  if (S.kind < FLICK_SPAN_KIND_COUNT) {
    E.used = 1;
    flick_hist_record(&E.phase[S.kind], S.dur_us);
  }
  if (thread_root && S.kind == FLICK_SPAN_RPC) {
    const flick_slo *Slo = flick_slo_for(Ep);
    if (Slo->set) {
      if (S.dur_us <= Slo->threshold_us)
        ++E.slo_met;
      else
        ++E.slo_violated;
    }
  }
}

/// The reservoir slot a candidate of \p dur_us would occupy: the first
/// empty one, else the fastest retained -- or null when the candidate is
/// no slower than everything already held.
flick_exemplar *exemplarVictim(flick_exemplar *Slots, double dur_us) {
  flick_exemplar *Dst = nullptr;
  for (uint32_t I = 0; I != FLICK_EXEMPLAR_SLOTS; ++I) {
    if (!Slots[I].n_spans)
      return &Slots[I];
    if (!Dst || Slots[I].dur_us < Dst->dur_us)
      Dst = &Slots[I];
  }
  return dur_us > Dst->dur_us ? Dst : nullptr;
}

/// Retains the closing RPC root's span tree when it ranks among the
/// endpoint's slowest-N, copying it out of the ring before overwrites
/// can claim it.
void captureExemplar(flick_tracer *T, const flick_span &Root) {
  uint32_t Ep = Root.endpoint < FLICK_MAX_ENDPOINTS ? Root.endpoint : 0;
  flick_exemplar *Dst = exemplarVictim(T->exemplars.slots[Ep], Root.dur_us);
  if (!Dst)
    return;
  Dst->dur_us = Root.dur_us;
  Dst->trace_id = Root.trace_id;
  Dst->endpoint = Ep;
  Dst->n_spans = 0;
  // The root closes after its children, so this trace's spans are the
  // newest run in the ring: walk newest -> oldest while the id matches.
  uint64_t Held = T->head < T->cap ? T->head : T->cap;
  for (uint64_t I = 0; I != Held && Dst->n_spans < FLICK_EXEMPLAR_SPANS;
       ++I) {
    const flick_span &S = T->spans[(T->head - 1 - I) % T->cap];
    if (S.trace_id != Root.trace_id)
      break;
    Dst->spans[Dst->n_spans++] = S;
  }
  if (!Dst->n_spans)
    Dst->spans[Dst->n_spans++] = Root; // ring too small for even the root
  std::reverse(Dst->spans, Dst->spans + Dst->n_spans); // chronological
}

/// Offers an absorbed tracer's exemplar (timestamps already rebased) to
/// \p T's reservoir under the same slowest-N competition.
void offerExemplar(flick_tracer *T, const flick_exemplar &Src) {
  uint32_t Ep = Src.endpoint < FLICK_MAX_ENDPOINTS ? Src.endpoint : 0;
  flick_exemplar *Dst = exemplarVictim(T->exemplars.slots[Ep], Src.dur_us);
  if (Dst)
    *Dst = Src;
}

} // namespace

void flick_trace_enable(flick_tracer *t, flick_span *storage, uint32_t cap) {
  *t = flick_tracer{};
  t->spans = storage;
  t->cap = cap;
  t->epoch = std::chrono::steady_clock::now();
  flick_trace_active = t;
}

void flick_trace_disable() { flick_trace_active = nullptr; }

void flick_trace_enable_thread(flick_tracer *t, flick_span *storage,
                               uint32_t cap) {
  // Salting the high bits leaves each tracer 2^40 locally minted ids --
  // far beyond any ring -- while keeping concurrent tracers disjoint.
  static std::atomic<uint64_t> NextSalt{0};
  flick_trace_enable(t, storage, cap);
  uint64_t Salt = NextSalt.fetch_add(1, std::memory_order_relaxed) + 1;
  t->next_trace_id = Salt << 40;
  t->next_span_id = Salt << 40;
}

void flick_trace_absorb(flick_tracer *dst, const flick_tracer *src) {
  double Off = std::chrono::duration<double, std::micro>(src->epoch -
                                                         dst->epoch)
                   .count();
  size_t N = flick_trace_span_count(src);
  for (size_t I = 0; I != N; ++I) {
    flick_span S = *flick_trace_span(src, I);
    S.begin_us += Off;
    record(dst, S);
  }
  dst->dropped += src->dropped;
  dst->truncated += src->truncated;
  for (uint32_t Ep = 0; Ep != FLICK_MAX_ENDPOINTS; ++Ep)
    for (uint32_t I = 0; I != FLICK_EXEMPLAR_SLOTS; ++I) {
      const flick_exemplar &Slot = src->exemplars.slots[Ep][I];
      if (!Slot.n_spans)
        continue;
      flick_exemplar E = Slot;
      for (uint32_t J = 0; J != E.n_spans; ++J)
        E.spans[J].begin_us += Off;
      offerExemplar(dst, E);
    }
}

void flick_trace_begin_impl(int kind, const char *name) {
  flick_tracer *T = flick_trace_active;
  flick_span S;
  S.kind = static_cast<uint8_t>(kind);
  S.name = name;
  pushOpen(T, S);
}

void flick_trace_begin_remote_impl(int kind, const char *name) {
  flick_tracer *T = flick_trace_active;
  flick_span S;
  S.kind = static_cast<uint8_t>(kind);
  S.name = name;
  if (T->pending_valid) {
    S.trace_id = T->pending_trace_id;
    S.parent_id = T->pending_parent_id;
    S.endpoint = static_cast<uint8_t>(
        T->pending_endpoint < FLICK_MAX_ENDPOINTS ? T->pending_endpoint : 0);
    T->pending_valid = 0;
  }
  double Wait = T->pending_wait_us;
  T->pending_wait_us = 0;
  pushOpen(T, S);
  if (Wait > 0 && T->depth <= FLICK_TRACE_MAX_DEPTH) {
    // The queue wait ended where this root begins: record it as a
    // completed QUEUE child backdated by its duration, so the phase sums
    // reconcile with wall time without a span ever being open across
    // threads.
    const flick_span &Root = T->open[T->depth - 1];
    flick_span Q;
    Q.kind = FLICK_SPAN_QUEUE;
    Q.name = "queue";
    Q.span_id = ++T->next_span_id;
    Q.trace_id = Root.trace_id;
    Q.parent_id = Root.span_id;
    Q.endpoint = Root.endpoint;
    Q.begin_us = Root.begin_us - Wait;
    Q.dur_us = Wait;
    record(T, Q);
    recordAnatomy(Q, false);
  }
}

void flick_trace_end_impl() {
  flick_tracer *T = flick_trace_active;
  if (T->depth == 0)
    return;
  --T->depth;
  if (T->depth < FLICK_TRACE_MAX_DEPTH) {
    flick_span S = T->open[T->depth];
    S.dur_us = nowUs(T) - S.begin_us;
    record(T, S);
    recordAnatomy(S, T->depth == 0);
    if (T->depth == 0 && S.kind == FLICK_SPAN_RPC)
      captureExemplar(T, S);
  }
}

void flick_trace_close_to(uint32_t depth) {
  flick_tracer *T = flick_trace_active;
  if (!T)
    return;
  while (T->depth > depth)
    flick_trace_end_impl();
}

void flick_trace_record_complete(int kind, const char *name, double dur_us) {
  flick_tracer *T = flick_trace_active;
  if (!T)
    return;
  flick_span S;
  S.kind = static_cast<uint8_t>(kind);
  S.name = name;
  S.span_id = ++T->next_span_id;
  S.begin_us = nowUs(T);
  S.dur_us = dur_us;
  if (T->depth > 0) {
    const flick_span &Top = topOpen(T);
    S.trace_id = Top.trace_id;
    S.parent_id = Top.span_id;
    S.endpoint = Top.endpoint;
  } else {
    S.trace_id = ++T->next_trace_id;
  }
  record(T, S);
  recordAnatomy(S, false);
}

void flick_trace_tag_endpoint(uint32_t endpoint) {
  flick_tracer *T = flick_trace_active;
  if (!T || T->depth == 0 || T->depth > FLICK_TRACE_MAX_DEPTH)
    return;
  T->open[T->depth - 1].endpoint =
      static_cast<uint8_t>(endpoint < FLICK_MAX_ENDPOINTS ? endpoint : 0);
}

void flick_trace_stamp(uint64_t *trace_id, uint64_t *parent_id,
                       uint32_t *endpoint) {
  *trace_id = 0;
  *parent_id = 0;
  if (endpoint)
    *endpoint = 0;
  flick_tracer *T = flick_trace_active;
  if (!T || T->depth == 0)
    return;
  const flick_span &Top = topOpen(T);
  *trace_id = Top.trace_id;
  *parent_id = Top.span_id;
  if (endpoint)
    *endpoint = Top.endpoint;
}

void flick_trace_deposit(uint64_t trace_id, uint64_t parent_id,
                         uint32_t endpoint) {
  flick_tracer *T = flick_trace_active;
  if (!T)
    return;
  T->pending_trace_id = trace_id;
  T->pending_parent_id = parent_id;
  T->pending_endpoint = endpoint;
  T->pending_valid = trace_id != 0;
}

void flick_trace_deposit_wait(uint64_t wait_ns) {
  flick_tracer *T = flick_trace_active;
  if (!T)
    return;
  T->pending_wait_us = static_cast<double>(wait_ns) / 1000.0;
}

//===----------------------------------------------------------------------===//
// Reading and exporting
//===----------------------------------------------------------------------===//

const char *flick_span_kind_name(int kind) {
  switch (kind) {
  case FLICK_SPAN_RPC:
    return "rpc";
  case FLICK_SPAN_MARSHAL:
    return "marshal";
  case FLICK_SPAN_SEND:
    return "send";
  case FLICK_SPAN_WIRE:
    return "wire";
  case FLICK_SPAN_DEMUX:
    return "demux";
  case FLICK_SPAN_WORK:
    return "work";
  case FLICK_SPAN_UNMARSHAL:
    return "unmarshal";
  case FLICK_SPAN_REPLY:
    return "reply";
  case FLICK_SPAN_QUEUE:
    return "queue";
  default:
    return "unknown";
  }
}

size_t flick_trace_span_count(const flick_tracer *t) {
  if (!t->spans || t->cap == 0)
    return 0;
  return t->head < t->cap ? static_cast<size_t>(t->head) : t->cap;
}

const flick_span *flick_trace_span(const flick_tracer *t, size_t i) {
  size_t N = flick_trace_span_count(t);
  if (i >= N)
    return nullptr;
  size_t First = t->head < t->cap ? 0 : static_cast<size_t>(t->head % t->cap);
  return &t->spans[(First + i) % t->cap];
}

std::string flick_json_escape(const std::string &s) {
  std::string Out;
  Out.reserve(s.size());
  for (char C : s) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

namespace {

/// Nesting depth of each span, for the B/E ordering rules below.  Spans
/// whose parents were overwritten in the ring count as roots.
std::vector<unsigned>
spanDepths(const flick_tracer *T,
           const std::unordered_map<uint64_t, size_t> &ById) {
  size_t N = flick_trace_span_count(T);
  std::vector<unsigned> Depth(N, 0);
  for (size_t I = 0; I != N; ++I) {
    unsigned D = 0;
    uint64_t P = flick_trace_span(T, I)->parent_id;
    while (P) {
      auto It = ById.find(P);
      if (It == ById.end() || ++D >= 2 * FLICK_TRACE_MAX_DEPTH)
        break;
      P = flick_trace_span(T, It->second)->parent_id;
    }
    Depth[I] = D;
  }
  return Depth;
}

std::unordered_map<uint64_t, size_t> indexById(const flick_tracer *T) {
  std::unordered_map<uint64_t, size_t> ById;
  size_t N = flick_trace_span_count(T);
  for (size_t I = 0; I != N; ++I)
    ById.emplace(flick_trace_span(T, I)->span_id, I);
  return ById;
}

} // namespace

std::string flick_trace_to_chrome_json(const flick_tracer *t,
                                       const std::string &extra_events) {
  struct Event {
    double Ts;
    bool IsBegin;
    unsigned Depth;
    const flick_span *S;
  };
  auto ById = indexById(t);
  std::vector<unsigned> Depth = spanDepths(t, ById);
  size_t N = flick_trace_span_count(t);
  std::vector<Event> Events;
  Events.reserve(2 * N);
  for (size_t I = 0; I != N; ++I) {
    const flick_span *S = flick_trace_span(t, I);
    Events.push_back({S->begin_us, true, Depth[I], S});
    Events.push_back({S->begin_us + S->dur_us, false, Depth[I], S});
  }
  // Chrome requires well-nested B/E per track: order by time; at equal
  // times, ends before begins; deeper ends first, shallower begins first.
  std::stable_sort(Events.begin(), Events.end(),
                   [](const Event &A, const Event &B) {
                     if (A.Ts != B.Ts)
                       return A.Ts < B.Ts;
                     if (A.IsBegin != B.IsBegin)
                       return !A.IsBegin;
                     return A.IsBegin ? A.Depth < B.Depth
                                      : A.Depth > B.Depth;
                   });
  std::string Out = "{\n  \"traceEvents\": [";
  char Buf[384];
  for (size_t I = 0; I != Events.size(); ++I) {
    const Event &E = Events[I];
    std::string Name =
        flick_json_escape(E.S->name ? E.S->name
                                    : flick_span_kind_name(E.S->kind));
    if (E.IsBegin)
      std::snprintf(Buf, sizeof(Buf),
                    "%s\n    {\"name\": \"%s\", \"cat\": \"%s\", "
                    "\"ph\": \"B\", \"ts\": %.3f, \"pid\": 1, "
                    "\"tid\": %llu, \"args\": {\"kind\": \"%s\", "
                    "\"endpoint\": \"%s\"}}",
                    I ? "," : "", Name.c_str(),
                    flick_span_kind_name(E.S->kind), E.Ts,
                    static_cast<unsigned long long>(E.S->trace_id),
                    flick_span_kind_name(E.S->kind),
                    flick_endpoint_name(E.S->endpoint));
    else
      std::snprintf(Buf, sizeof(Buf),
                    "%s\n    {\"name\": \"%s\", \"cat\": \"%s\", "
                    "\"ph\": \"E\", \"ts\": %.3f, \"pid\": 1, "
                    "\"tid\": %llu}",
                    I ? "," : "", Name.c_str(),
                    flick_span_kind_name(E.S->kind), E.Ts,
                    static_cast<unsigned long long>(E.S->trace_id));
    Out += Buf;
  }
  if (!extra_events.empty()) {
    if (!Events.empty())
      Out += ",";
    Out += extra_events;
  }
  Out += Events.empty() && extra_events.empty() ? "]" : "\n  ]";
  std::snprintf(Buf, sizeof(Buf),
                ",\n  \"displayTimeUnit\": \"ms\",\n"
                "  \"flick\": {\"spans\": %zu, \"dropped\": %llu, "
                "\"truncated\": %llu, \"open_at_export\": %u, \"build\": ",
                N, static_cast<unsigned long long>(t->dropped),
                static_cast<unsigned long long>(t->truncated), t->depth);
  Out += Buf;
  Out += flick_build_info_json();
  Out += "}\n}\n";
  return Out;
}

std::string flick_trace_to_collapsed(const flick_tracer *t) {
  auto ById = indexById(t);
  size_t N = flick_trace_span_count(t);
  // Self time: a span's duration minus its children's.
  std::vector<double> Self(N);
  for (size_t I = 0; I != N; ++I)
    Self[I] = flick_trace_span(t, I)->dur_us;
  for (size_t I = 0; I != N; ++I) {
    auto It = ById.find(flick_trace_span(t, I)->parent_id);
    if (It != ById.end())
      Self[It->second] -= flick_trace_span(t, I)->dur_us;
  }
  std::map<std::string, double> Stacks;
  for (size_t I = 0; I != N; ++I) {
    std::string Stack;
    const flick_span *S = flick_trace_span(t, I);
    unsigned Guard = 0;
    for (const flick_span *W = S; W;) {
      std::string Frame =
          W->name ? W->name : flick_span_kind_name(W->kind);
      Stack = Stack.empty() ? Frame : Frame + ";" + Stack;
      auto It = ById.find(W->parent_id);
      W = (It != ById.end() && ++Guard < 2 * FLICK_TRACE_MAX_DEPTH)
              ? flick_trace_span(t, It->second)
              : nullptr;
    }
    Stacks[Stack] += Self[I] > 0 ? Self[I] : 0;
  }
  std::string Out;
  char Buf[32];
  for (const auto &[Stack, Us] : Stacks) {
    std::snprintf(Buf, sizeof(Buf), " %llu\n",
                  static_cast<unsigned long long>(Us + 0.5));
    Out += Stack + Buf;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Exemplar exporters
//===----------------------------------------------------------------------===//

namespace {

/// The endpoint's retained exemplars, slowest first.
std::vector<const flick_exemplar *> sortedSlots(const flick_tracer *T,
                                                uint32_t Ep) {
  std::vector<const flick_exemplar *> Order;
  for (uint32_t I = 0; I != FLICK_EXEMPLAR_SLOTS; ++I)
    if (T->exemplars.slots[Ep][I].n_spans)
      Order.push_back(&T->exemplars.slots[Ep][I]);
  std::sort(Order.begin(), Order.end(),
            [](const flick_exemplar *A, const flick_exemplar *B) {
              return A->dur_us > B->dur_us;
            });
  return Order;
}

void appendSpanJson(std::string &Out, const flick_span &S,
                    const char *Prefix) {
  char Buf[256];
  std::string Name =
      flick_json_escape(S.name ? S.name : flick_span_kind_name(S.kind));
  std::snprintf(Buf, sizeof(Buf),
                "%s{\"name\": \"%s\", \"kind\": \"%s\", "
                "\"endpoint\": \"%s\", \"span_id\": %llu, "
                "\"parent_id\": %llu, \"begin_us\": %.3f, "
                "\"dur_us\": %.3f}",
                Prefix, Name.c_str(), flick_span_kind_name(S.kind),
                flick_endpoint_name(S.endpoint),
                static_cast<unsigned long long>(S.span_id),
                static_cast<unsigned long long>(S.parent_id), S.begin_us,
                S.dur_us);
  Out += Buf;
}

} // namespace

std::string flick_exemplars_to_json(const flick_tracer *t,
                                    const char *indent) {
  std::string Ind = indent;
  std::string Out = "{\n" + Ind + "\"build\": " + flick_build_info_json() +
                    ",\n" + Ind + "\"endpoints\": {";
  char Buf[128];
  bool FirstEp = true;
  for (uint32_t Ep = 0; Ep != FLICK_MAX_ENDPOINTS; ++Ep) {
    auto Order = sortedSlots(t, Ep);
    if (Order.empty())
      continue;
    Out += FirstEp ? "\n" : ",\n";
    FirstEp = false;
    Out += Ind + Ind + "\"" +
           flick_json_escape(flick_endpoint_name(Ep)) + "\": [";
    for (size_t X = 0; X != Order.size(); ++X) {
      const flick_exemplar &E = *Order[X];
      std::snprintf(Buf, sizeof(Buf),
                    "%s\n%s%s%s{\"trace_id\": \"0x%llx\", "
                    "\"dur_us\": %.3f, \"spans\": [",
                    X ? "," : "", Ind.c_str(), Ind.c_str(), Ind.c_str(),
                    static_cast<unsigned long long>(E.trace_id), E.dur_us);
      Out += Buf;
      bool FirstSpan = true;
      auto Emit = [&](const flick_span &S) {
        Out += FirstSpan ? "\n" : ",\n";
        FirstSpan = false;
        Out += Ind + Ind + Ind + Ind;
        appendSpanJson(Out, S, "");
      };
      // The retained copy first, then any spans still in the ring that
      // share the trace id but were recorded elsewhere (e.g. server-side
      // segments absorbed from worker tracers after capture).
      std::vector<uint64_t> SeenIds;
      for (uint32_t J = 0; J != E.n_spans; ++J) {
        Emit(E.spans[J]);
        SeenIds.push_back(E.spans[J].span_id);
      }
      size_t N = flick_trace_span_count(t);
      for (size_t J = 0; J != N; ++J) {
        const flick_span &S = *flick_trace_span(t, J);
        if (S.trace_id != E.trace_id)
          continue;
        if (std::find(SeenIds.begin(), SeenIds.end(), S.span_id) !=
            SeenIds.end())
          continue;
        Emit(S);
        SeenIds.push_back(S.span_id);
      }
      Out += "\n" + Ind + Ind + Ind + "]}";
    }
    Out += "\n" + Ind + Ind + "]";
  }
  Out += FirstEp ? "}" : "\n" + Ind + "}";
  Out += "\n}\n";
  return Out;
}

std::string flick_exemplars_to_chrome_json(const flick_tracer *t) {
  std::vector<flick_span> Flat;
  for (uint32_t Ep = 0; Ep != FLICK_MAX_ENDPOINTS; ++Ep)
    for (uint32_t I = 0; I != FLICK_EXEMPLAR_SLOTS; ++I) {
      const flick_exemplar &E = t->exemplars.slots[Ep][I];
      for (uint32_t J = 0; J != E.n_spans; ++J)
        Flat.push_back(E.spans[J]);
    }
  // A borrowed tracer over the flat copy reuses the Chrome exporter; its
  // tid-per-trace convention already gives each retained RPC a track.
  flick_tracer View;
  View.spans = Flat.empty() ? nullptr : Flat.data();
  View.cap = static_cast<uint32_t>(Flat.size());
  View.head = Flat.size();
  View.epoch = t->epoch;
  return flick_trace_to_chrome_json(&View);
}
