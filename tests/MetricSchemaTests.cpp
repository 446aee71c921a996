//===- tests/MetricSchemaTests.cpp - metric schema export coverage --------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table-driven coverage of runtime/MetricSchema.h: every flick_metrics
/// counter must merge by its declared kind and reach the JSON and
/// Prometheus exports, and every flick_gauges field must be zeroed by
/// flick_gauges_enable, carried by sampler snapshots and exported to
/// Prometheus -- under the name, type, help text and scaled value the
/// schema's naming rule derives.  A counter added to the schema is covered
/// here with no edit to this file.
///
/// Suite names are load-bearing for CI: `Metrics.*` and `Sampler.*` run
/// under TSan.
///
//===----------------------------------------------------------------------===//

#include "runtime/MetricSchema.h"
#include "runtime/Sampler.h"
#include "runtime/flick_runtime.h"
#include <chrono>
#include <cstdio>
#include <gtest/gtest.h>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace {

/// The Prometheus family a schema entry exports as: `flick_<name>`, a
/// `_ns`/`_us` suffix becomes `_seconds`, and SUM entries are `_total`
/// counters while MAX entries are gauges.
std::string family(const char *Name, flick_metric_kind Kind,
                   flick_metric_unit Unit) {
  std::string F = std::string("flick_") + Name;
  if (Unit == FLICK_UNIT_NS || Unit == FLICK_UNIT_US) {
    EXPECT_EQ(F.substr(F.size() - 3), Unit == FLICK_UNIT_NS ? "_ns" : "_us")
        << "time fields name their unit";
    F.replace(F.size() - 3, 3, "_seconds");
  }
  return Kind == FLICK_KIND_SUM ? F + "_total" : F;
}

/// The exported sample value: times in seconds, counts and bytes exact.
std::string promValue(flick_metric_unit Unit, bool Floating, double V) {
  char Buf[64];
  if (Unit == FLICK_UNIT_NS || Unit == FLICK_UNIT_US)
    std::snprintf(Buf, sizeof(Buf), "%.9g",
                  V / (Unit == FLICK_UNIT_NS ? 1e9 : 1e6));
  else if (Floating)
    std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  else
    std::snprintf(Buf, sizeof(Buf), "%llu",
                  static_cast<unsigned long long>(V));
  return Buf;
}

/// Checks the HELP/TYPE pair and one sample line of a family.
void expectPromSeries(const std::string &Text, const std::string &Family,
                      flick_metric_kind Kind, const char *Help,
                      const std::string &Sample) {
  const char *Type = Kind == FLICK_KIND_SUM ? "counter" : "gauge";
  EXPECT_NE(Text.find("# HELP " + Family + " " + Help + "\n"),
            std::string::npos)
      << Family;
  EXPECT_NE(Text.find("# TYPE " + Family + " " + Type + "\n"),
            std::string::npos)
      << Family;
  EXPECT_NE(Text.find("\n" + Sample + "\n"), std::string::npos) << Sample;
}

//===----------------------------------------------------------------------===//
// flick_metrics
//===----------------------------------------------------------------------===//

struct MetricRow {
  const char *Name;
  flick_metric_kind Kind;
  flick_metric_unit Unit;
  const char *Help;
  bool Floating;
  void (*Set)(flick_metrics &, double);
  double (*Get)(const flick_metrics &);
};

const std::vector<MetricRow> &metricRows() {
  static const std::vector<MetricRow> Rows = {
#define METRIC_ROW(Type, Name, Kind, Unit, Help)                               \
  {#Name,                                                                      \
   FLICK_KIND_##Kind,                                                          \
   FLICK_UNIT_##Unit,                                                          \
   Help,                                                                       \
   std::is_floating_point_v<Type>,                                             \
   [](flick_metrics &M, double V) { M.Name = static_cast<Type>(V); },          \
   [](const flick_metrics &M) { return static_cast<double>(M.Name); }},
      FLICK_METRICS_SCHEMA(METRIC_ROW)
#undef METRIC_ROW
  };
  return Rows;
}

TEST(Metrics, SchemaDrivesMergeJsonAndPrometheus) {
  // Distinct values per field; the destination holds the larger one, so
  // a MAX merge keeps it while a SUM merge adds the source.
  flick_metrics Dst, Src;
  const std::vector<MetricRow> &Rows = metricRows();
  ASSERT_FALSE(Rows.empty());
  for (size_t I = 0; I != Rows.size(); ++I) {
    Rows[I].Set(Dst, static_cast<double>(1000 + I));
    Rows[I].Set(Src, static_cast<double>(100 + I));
  }
  flick_metrics_merge(&Dst, &Src);
  std::string Json = flick_metrics_to_json(&Dst);
  std::string Prom = flick_metrics_to_prometheus(&Dst);

  for (size_t I = 0; I != Rows.size(); ++I) {
    const MetricRow &R = Rows[I];
    SCOPED_TRACE(R.Name);
    double Want = R.Kind == FLICK_KIND_SUM
                      ? static_cast<double>(1100 + 2 * I)
                      : static_cast<double>(1000 + I);
    EXPECT_EQ(R.Get(Dst), Want);

    char Buf[64];
    if (R.Floating)
      std::snprintf(Buf, sizeof(Buf), "%.3f", Want);
    else
      std::snprintf(Buf, sizeof(Buf), "%llu",
                    static_cast<unsigned long long>(Want));
    EXPECT_NE(Json.find(std::string("\"") + R.Name + "\": " + Buf + ","),
              std::string::npos)
        << Json;

    std::string Family = family(R.Name, R.Kind, R.Unit);
    expectPromSeries(Prom, Family, R.Kind, R.Help,
                     Family + " " + promValue(R.Unit, R.Floating, Want));
  }
}

//===----------------------------------------------------------------------===//
// flick_gauges
//===----------------------------------------------------------------------===//

struct GaugeRow {
  const char *Name;
  flick_metric_kind Kind;
  flick_metric_unit Unit;
  const char *Help;
  std::atomic<uint64_t> flick_gauges::*Gauge;
  uint64_t flick_sample::*Snapshot;
};

struct GaugeArrayRow {
  const char *Name;
  flick_metric_kind Kind;
  flick_metric_unit Unit;
  const char *Help;
  std::atomic<uint64_t> *Slots;
  size_t Extent;
};

#define GAUGE_ROW(Type, Name, Kind, Unit, Help)                                \
  {#Name,                                                                      \
   FLICK_KIND_##Kind,                                                          \
   FLICK_UNIT_##Unit,                                                          \
   Help,                                                                       \
   &flick_gauges::Name,                                                        \
   &flick_sample::Name},
#define GAUGE_ARRAY_ROW(Type, Name, Extent, Kind, Unit, Help)                  \
  {#Name, FLICK_KIND_##Kind, FLICK_UNIT_##Unit, Help, G.Name, Extent},

TEST(Sampler, SchemaGaugesZeroOnEnableReachSamplesAndPrometheus) {
  flick_gauges &G = flick_gauges_global;
  const GaugeRow Rows[] = {FLICK_GAUGES_SCHEMA(GAUGE_ROW, FLICK_SCHEMA_SKIP)};
  const GaugeArrayRow Arrays[] = {
      FLICK_GAUGES_SCHEMA(FLICK_SCHEMA_SKIP, GAUGE_ARRAY_ROW)};
  auto Dirty = [&](uint64_t Base) {
    for (size_t I = 0; I != std::size(Rows); ++I)
      (G.*Rows[I].Gauge).store(Base + I, std::memory_order_relaxed);
    for (const GaugeArrayRow &A : Arrays)
      for (size_t S = 0; S != A.Extent; ++S)
        A.Slots[S].store(Base + S, std::memory_order_relaxed);
  };

  // Enabling zeroes every gauge, array slots included.
  flick_gauges_disable();
  Dirty(7);
  flick_gauges_enable();
  for (const GaugeRow &R : Rows)
    EXPECT_EQ((G.*R.Gauge).load(std::memory_order_relaxed), 0u) << R.Name;
  for (const GaugeArrayRow &A : Arrays)
    for (size_t S = 0; S != A.Extent; ++S)
      EXPECT_EQ(A.Slots[S].load(std::memory_order_relaxed), 0u) << A.Name;
  flick_gauges_disable();

  // The sampler's final snapshot carries each gauge's value.  Starting the
  // sampler zeroes the block again, so the values go in afterwards.
  flick_sampler_opts O;
  O.interval_us = 200;
  ASSERT_EQ(flick_sampler_start(&O), FLICK_OK);
  Dirty(500);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  flick_sampler_stop();
  flick_sample Last;
  ASSERT_TRUE(flick_sampler_get(flick_sampler_count() - 1, &Last));
  for (size_t I = 0; I != std::size(Rows); ++I)
    EXPECT_EQ(Last.*Rows[I].Snapshot, 500 + I) << Rows[I].Name;

  std::string Prom = flick_metrics_to_prometheus(nullptr);
  for (size_t I = 0; I != std::size(Rows); ++I) {
    const GaugeRow &R = Rows[I];
    std::string Family = family(R.Name, R.Kind, R.Unit);
    expectPromSeries(
        Prom, Family, R.Kind, R.Help,
        Family + " " +
            promValue(R.Unit, false, static_cast<double>(500 + I)));
  }
  for (const GaugeArrayRow &A : Arrays) {
    std::string Family = family(A.Name, A.Kind, A.Unit);
    for (size_t S = 0; S != A.Extent; ++S)
      expectPromSeries(Prom, Family, A.Kind, A.Help,
                       Family + "{shard=\"" + std::to_string(S) + "\"} " +
                           promValue(A.Unit, false,
                                     static_cast<double>(500 + S)));
  }
  // Leave the process-global block as clean as a fresh process has it.
  flick_gauges_enable();
  flick_gauges_disable();
}

#undef GAUGE_ARRAY_ROW
#undef GAUGE_ROW

} // namespace
