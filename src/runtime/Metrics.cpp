//===- runtime/Metrics.cpp - Runtime metrics block and its exports --------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "runtime/Sampler.h"
#include "runtime/flick_runtime.h"
#include "support/BuildInfo.h"
#include <cstdio>

thread_local flick_metrics *flick_metrics_active = nullptr;

void flick_metrics_enable(flick_metrics *m) {
  *m = flick_metrics{};
  flick_metrics_active = m;
}

void flick_metrics_disable() { flick_metrics_active = nullptr; }

namespace {

template <class T> void mergeField(flick_metric_kind Kind, T &Dst, T Src) {
  if (Kind == FLICK_KIND_SUM)
    Dst += Src;
  else if (Src > Dst)
    Dst = Src;
}

} // namespace

void flick_metrics_merge(flick_metrics *dst, const flick_metrics *src) {
#define FLICK_MERGE_FIELD(Type, Name, Kind, Unit, Help)                        \
  mergeField(FLICK_KIND_##Kind, dst->Name, src->Name);
  FLICK_METRICS_SCHEMA(FLICK_MERGE_FIELD)
#undef FLICK_MERGE_FIELD
  flick_hist_merge(&dst->rpc_latency, &src->rpc_latency);
  for (int E = 0; E != FLICK_MAX_ENDPOINTS; ++E) {
    const flick_endpoint_stats &S = src->anatomy[E];
    if (!S.used)
      continue; // empty entries merge as no-ops (the common case)
    flick_endpoint_stats &D = dst->anatomy[E];
    D.used = 1;
    D.slo_met += S.slo_met;
    D.slo_violated += S.slo_violated;
    for (int K = 0; K != FLICK_SPAN_KIND_COUNT; ++K)
      if (S.phase[K].count)
        flick_hist_merge(&D.phase[K], &S.phase[K]);
  }
}

std::string flick_metrics_anatomy_json(const flick_metrics *m,
                                       const char *indent) {
  std::string Ind = indent;
  char Buf[160];
  std::string Out = "{";
  bool FirstEp = true;
  for (int Ep = 0; Ep != FLICK_MAX_ENDPOINTS; ++Ep) {
    const flick_endpoint_stats &E = m->anatomy[Ep];
    if (!E.used)
      continue;
    Out += FirstEp ? "\n" : ",\n";
    FirstEp = false;
    Out += Ind + "\"" + flick_json_escape(flick_endpoint_name(Ep)) +
           "\": {\n";
    const flick_latency_hist &Rpc = E.phase[FLICK_SPAN_RPC];
    double RpcMean =
        Rpc.count ? Rpc.sum_us / static_cast<double>(Rpc.count) : 0;
    double RpcP50 = flick_hist_percentile(&Rpc, 0.50);
    double RpcP99 = flick_hist_percentile(&Rpc, 0.99);
    std::snprintf(Buf, sizeof(Buf),
                  "%s  \"rpc\": {\"count\": %llu, \"mean_us\": %.3f, "
                  "\"p50_us\": %.3f, \"p99_us\": %.3f, \"max_us\": %.3f},\n",
                  Ind.c_str(), static_cast<unsigned long long>(Rpc.count),
                  RpcMean, RpcP50, RpcP99, Rpc.max_us);
    Out += Buf;
    Out += Ind + "  \"phases\": {";
    bool FirstPh = true;
    for (int K = 0; K != FLICK_SPAN_KIND_COUNT; ++K) {
      if (K == FLICK_SPAN_RPC)
        continue;
      const flick_latency_hist &H = E.phase[K];
      if (!H.count)
        continue;
      double Mean = H.sum_us / static_cast<double>(H.count);
      double P50 = flick_hist_percentile(&H, 0.50);
      double P99 = flick_hist_percentile(&H, 0.99);
      std::snprintf(
          Buf, sizeof(Buf),
          "%s%s    \"%s\": {\"count\": %llu, \"mean_us\": %.3f, "
          "\"p50_us\": %.3f, \"p99_us\": %.3f",
          FirstPh ? "\n" : ",\n", Ind.c_str(), flick_span_kind_name(K),
          static_cast<unsigned long long>(H.count), Mean, P50, P99);
      Out += Buf;
      FirstPh = false;
      if (Rpc.count) {
        // Phase shares against the end-to-end rpc span at matching
        // percentiles: "what fraction of a p99 call is this phase".
        std::snprintf(Buf, sizeof(Buf),
                      ", \"share_mean\": %.4f, \"share_p50\": %.4f, "
                      "\"share_p99\": %.4f",
                      RpcMean > 0 ? Mean / RpcMean : 0,
                      RpcP50 > 0 ? P50 / RpcP50 : 0,
                      RpcP99 > 0 ? P99 / RpcP99 : 0);
        Out += Buf;
      }
      Out += "}";
    }
    Out += FirstPh ? "}" : "\n" + Ind + "  }";
    const flick_slo *Slo = flick_slo_for(static_cast<uint32_t>(Ep));
    if (Slo->set) {
      uint64_t Total = E.slo_met + E.slo_violated;
      double Allowed = 1.0 - Slo->target;
      double Burn =
          Total && Allowed > 0
              ? (static_cast<double>(E.slo_violated) /
                 static_cast<double>(Total)) /
                    Allowed
              : 0;
      std::snprintf(Buf, sizeof(Buf),
                    ",\n%s  \"slo\": {\"objective\": \"%s\", "
                    "\"met\": %llu, \"violated\": %llu, "
                    "\"burn_rate\": %.4f}",
                    Ind.c_str(), Slo->objective,
                    static_cast<unsigned long long>(E.slo_met),
                    static_cast<unsigned long long>(E.slo_violated), Burn);
      Out += Buf;
    }
    if (Rpc.count) {
      // Self-consistency: the client-visible top-level phases (send,
      // queue, demux) partition the rpc span's wall time, so their means
      // must sum to the rpc mean.  Percentiles don't add; means do.
      double TopMean = 0;
      const int TopKinds[] = {FLICK_SPAN_SEND, FLICK_SPAN_QUEUE,
                              FLICK_SPAN_DEMUX};
      for (int K : TopKinds) {
        const flick_latency_hist &H = E.phase[K];
        if (H.count)
          TopMean += H.sum_us / static_cast<double>(Rpc.count);
      }
      double Drift = RpcMean > 0 ? (RpcMean - TopMean) / RpcMean : 0;
      std::snprintf(Buf, sizeof(Buf),
                    ",\n%s  \"consistency\": {\"rpc_mean_us\": %.3f, "
                    "\"top_level_mean_us\": %.3f, \"drift_frac\": %.4f}",
                    Ind.c_str(), RpcMean, TopMean, Drift);
      Out += Buf;
    }
    Out += "\n" + Ind + "}";
  }
  if (FirstEp)
    return "{}";
  std::string Close = Ind;
  if (Close.size() >= 2)
    Close.resize(Close.size() - 2);
  return Out + "\n" + Close + "}";
}

namespace {

void jsonValue(std::string &Out, uint64_t V) { Out += std::to_string(V); }

void jsonValue(std::string &Out, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.3f", V);
  Out += Buf;
}

} // namespace

std::string flick_metrics_to_json(const flick_metrics *m,
                                  const char *indent) {
  std::string Out = "{\n";
  Out += indent;
  Out += "\"build\": " + flick_build_info_json() + ",\n";
#define FLICK_JSON_FIELD(Type, Name, Kind, Unit, Help)                         \
  Out += std::string(indent) + "\"" #Name "\": ";                              \
  jsonValue(Out, m->Name);                                                     \
  Out += ",\n";
  FLICK_METRICS_SCHEMA(FLICK_JSON_FIELD)
#undef FLICK_JSON_FIELD
  // Derived: bulk copies per issued RPC, the headline zero-copy number.
  uint64_t Calls = m->rpcs_sent + m->oneways_sent;
  Out += indent;
  Out += "\"copies_per_rpc\": ";
  jsonValue(Out, static_cast<double>(m->copy_ops) /
                     static_cast<double>(Calls ? Calls : 1));
  Out += ",\n";
  Out += indent;
  Out += "\"rpc_latency\": ";
  Out += flick_hist_to_json(&m->rpc_latency,
                            (std::string(indent) + "  ").c_str());
  Out += ",\n";
  Out += indent;
  Out += "\"latency_anatomy\": ";
  Out += flick_metrics_anatomy_json(m,
                                    (std::string(indent) + "  ").c_str());
  Out += "\n}";
  return Out;
}

//===----------------------------------------------------------------------===//
// Prometheus text exposition
//===----------------------------------------------------------------------===//

namespace {

/// Escapes a Prometheus label value (backslash, double quote, newline).
std::string promEscape(const char *S) {
  std::string Out;
  for (; *S; ++S) {
    if (*S == '\\' || *S == '"')
      Out += '\\';
    if (*S == '\n') {
      Out += "\\n";
      continue;
    }
    Out += *S;
  }
  return Out;
}

/// Writes the HELP/TYPE pair of the family a schema entry exports as, and
/// returns its name: `flick_<name>`, with a `_ns`/`_us` suffix replaced by
/// `_seconds`, plus `_total` for a SUM (counter) entry.
std::string promFamily(std::string &Out, const char *Name,
                       flick_metric_kind Kind, flick_metric_unit Unit,
                       const char *Help) {
  std::string Family = std::string("flick_") + Name;
  if (Unit == FLICK_UNIT_NS || Unit == FLICK_UNIT_US)
    Family.replace(Family.size() - 3, 3, "_seconds");
  if (Kind == FLICK_KIND_SUM)
    Family += "_total";
  Out += "# HELP " + Family + " " + Help + "\n# TYPE " + Family +
         (Kind == FLICK_KIND_SUM ? " counter\n" : " gauge\n");
  return Family;
}

/// A sample value in the family's base unit: times scale to seconds,
/// counts and bytes print exactly.
std::string promValue(flick_metric_unit Unit, double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.9g",
                Unit == FLICK_UNIT_NS   ? V / 1e9
                : Unit == FLICK_UNIT_US ? V / 1e6
                                        : V);
  return Buf;
}

std::string promValue(flick_metric_unit Unit, uint64_t V) {
  if (Unit == FLICK_UNIT_NS || Unit == FLICK_UNIT_US)
    return promValue(Unit, static_cast<double>(V));
  return std::to_string(V);
}

template <class T>
void promScalar(std::string &Out, const char *Name, flick_metric_kind Kind,
                flick_metric_unit Unit, const char *Help, T V) {
  std::string Family = promFamily(Out, Name, Kind, Unit, Help);
  Out += Family + " " + promValue(Unit, V) + "\n";
}

/// A per-shard slot array: one series per slot, labeled `shard`.
template <size_t N>
void promSlots(std::string &Out, const char *Name, flick_metric_kind Kind,
               flick_metric_unit Unit, const char *Help,
               const std::atomic<uint64_t> (&Slots)[N]) {
  std::string Family = promFamily(Out, Name, Kind, Unit, Help);
  for (size_t I = 0; I != N; ++I)
    Out += Family + "{shard=\"" + std::to_string(I) + "\"} " +
           promValue(Unit, Slots[I].load(std::memory_order_relaxed)) + "\n";
}

} // namespace

std::string flick_metrics_to_prometheus(const flick_metrics *m,
                                        const flick_tracer *exemplars) {
  std::string Out;
  Out += "# HELP flick_build_info Build attribution; value is always 1.\n";
  Out += "# TYPE flick_build_info gauge\n";
  Out += "flick_build_info{git=\"" + promEscape(flick_build_git_hash()) +
         "\",compiler=\"" + promEscape(flick_build_compiler()) +
         "\",build_type=\"" + promEscape(flick_build_type()) + "\"} 1\n";

  if (m) {
#define FLICK_PROM_METRIC(Type, Name, Kind, Unit, Help)                        \
  promScalar(Out, #Name, FLICK_KIND_##Kind, FLICK_UNIT_##Unit, Help, m->Name);
    FLICK_METRICS_SCHEMA(FLICK_PROM_METRIC)
#undef FLICK_PROM_METRIC

    // The RPC latency histogram, in base-unit seconds with cumulative
    // buckets as the exposition format requires.  When a tracer with a
    // tail-exemplar reservoir is supplied, each bucket line gets at most
    // one OpenMetrics exemplar annotation: the slowest retained RPC whose
    // duration falls in that bucket, so the post-mortem trace for a tail
    // latency is one trace_id lookup away from the histogram.
    const flick_exemplar *BucketEx[FLICK_HIST_BUCKETS] = {};
    if (exemplars) {
      for (int E = 0; E != FLICK_MAX_ENDPOINTS; ++E)
        for (int S = 0; S != FLICK_EXEMPLAR_SLOTS; ++S) {
          const flick_exemplar &X = exemplars->exemplars.slots[E][S];
          if (!X.n_spans)
            continue;
          // Same bucket rule as flick_hist_record: smallest I with
          // dur < 2^I us.
          int I = 0;
          while (I < FLICK_HIST_BUCKETS - 1 &&
                 X.dur_us >= static_cast<double>(uint64_t(1) << I))
            ++I;
          if (!BucketEx[I] || X.dur_us > BucketEx[I]->dur_us)
            BucketEx[I] = &X;
        }
    }
    const flick_latency_hist &H = m->rpc_latency;
    Out += "# HELP flick_rpc_latency_seconds Client round-trip latency.\n";
    Out += "# TYPE flick_rpc_latency_seconds histogram\n";
    char Buf[256];
    uint64_t Cum = 0;
    for (int I = 0; I != FLICK_HIST_BUCKETS; ++I) {
      if (!H.buckets[I])
        continue;
      Cum += H.buckets[I];
      std::snprintf(Buf, sizeof(Buf),
                    "flick_rpc_latency_seconds_bucket{le=\"%.9g\"} %llu",
                    static_cast<double>(uint64_t(1) << I) / 1e6,
                    static_cast<unsigned long long>(Cum));
      Out += Buf;
      if (const flick_exemplar *X = BucketEx[I]) {
        std::snprintf(Buf, sizeof(Buf),
                      " # {trace_id=\"0x%llx\",endpoint=\"%s\"} %.9g",
                      static_cast<unsigned long long>(X->trace_id),
                      promEscape(flick_endpoint_name(X->endpoint)).c_str(),
                      X->dur_us / 1e6);
        Out += Buf;
      }
      Out += "\n";
    }
    std::snprintf(Buf, sizeof(Buf),
                  "flick_rpc_latency_seconds_bucket{le=\"+Inf\"} %llu\n"
                  "flick_rpc_latency_seconds_sum %.9g\n"
                  "flick_rpc_latency_seconds_count %llu\n",
                  static_cast<unsigned long long>(H.count), H.sum_us / 1e6,
                  static_cast<unsigned long long>(H.count));
    Out += Buf;

    // SLO error-budget counters: one series per endpoint with a
    // configured objective, labeled with the endpoint name and the
    // objective's source text.
    bool AnySlo = false;
    uint32_t NEndpoints = flick_endpoint_count();
    if (NEndpoints > FLICK_MAX_ENDPOINTS)
      NEndpoints = FLICK_MAX_ENDPOINTS;
    for (uint32_t E = 0; E != NEndpoints; ++E)
      if (flick_slo_for(E)->set)
        AnySlo = true;
    if (AnySlo) {
      struct SloFamily {
        const char *Name;
        const char *Help;
        uint64_t flick_endpoint_stats::*Field;
      };
      const SloFamily Families[] = {
          {"flick_slo_met_total",
           "RPCs that completed within their endpoint's latency objective.",
           &flick_endpoint_stats::slo_met},
          {"flick_slo_violated_total",
           "RPCs over their endpoint's latency objective (budget spend).",
           &flick_endpoint_stats::slo_violated},
      };
      for (const SloFamily &F : Families) {
        Out += std::string("# HELP ") + F.Name + " " + F.Help + "\n";
        Out += std::string("# TYPE ") + F.Name + " counter\n";
        for (uint32_t E = 0; E != NEndpoints; ++E) {
          const flick_slo *Slo = flick_slo_for(E);
          if (!Slo->set)
            continue;
          std::snprintf(Buf, sizeof(Buf),
                        "%s{endpoint=\"%s\",objective=\"%s\"} %llu\n", F.Name,
                        promEscape(flick_endpoint_name(E)).c_str(),
                        promEscape(Slo->objective).c_str(),
                        static_cast<unsigned long long>(m->anatomy[E].*
                                                        F.Field));
          Out += Buf;
        }
      }
    }
  }

  // The live gauge block.
  const flick_gauges &G = flick_gauges_global;
#define FLICK_PROM_GAUGE(Type, Name, Kind, Unit, Help)                         \
  promScalar(Out, #Name, FLICK_KIND_##Kind, FLICK_UNIT_##Unit, Help,           \
             G.Name.load(std::memory_order_relaxed));
#define FLICK_PROM_GAUGE_ARRAY(Type, Name, Extent, Kind, Unit, Help)           \
  promSlots(Out, #Name, FLICK_KIND_##Kind, FLICK_UNIT_##Unit, Help, G.Name);
  FLICK_GAUGES_SCHEMA(FLICK_PROM_GAUGE, FLICK_PROM_GAUGE_ARRAY)
#undef FLICK_PROM_GAUGE_ARRAY
#undef FLICK_PROM_GAUGE
  return Out;
}
