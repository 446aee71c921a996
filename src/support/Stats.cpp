//===- support/Stats.cpp - Compiler phase timing and counters -------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Stats.h"
#include "support/BuildInfo.h"
#include <cstdio>

using namespace flick;

StatsRegion &StatsRegion::child(const std::string &ChildName) {
  for (auto &C : Children)
    if (C->Name == ChildName)
      return *C;
  Children.push_back(std::make_unique<StatsRegion>(ChildName));
  return *Children.back();
}

uint64_t &StatsRegion::counter(const std::string &CounterName) {
  for (auto &C : Counters)
    if (C.first == CounterName)
      return C.second;
  Counters.emplace_back(CounterName, 0);
  return Counters.back().second;
}

uint64_t StatsRegion::counterValue(const std::string &CounterName) const {
  for (const auto &C : Counters)
    if (C.first == CounterName)
      return C.second;
  return 0;
}

const StatsRegion *StatsRegion::findChild(const std::string &ChildName) const {
  for (const auto &C : Children)
    if (C->Name == ChildName)
      return C.get();
  return nullptr;
}

Stats &Stats::get() {
  static Stats Instance;
  return Instance;
}

void Stats::reset() {
  Root.WallUs = 0;
  Root.StartUs = 0;
  Root.Counters.clear();
  Root.Children.clear();
  Stack.clear();
  Notes.clear();
  Epoch = std::chrono::steady_clock::now();
}

void Stats::push(const std::string &Name) {
  StatsRegion &Parent = Stack.empty() ? Root : *Stack.back();
  StatsRegion &R = Parent.child(Name);
  if (R.StartUs < 0)
    R.StartUs = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - Epoch)
                    .count();
  Stack.push_back(&R);
}

void Stats::pop(double WallUs) {
  if (Stack.empty())
    return;
  Stack.back()->WallUs += WallUs;
  Stack.pop_back();
}

void Stats::count(const std::string &Name, uint64_t Delta) {
  StatsRegion &R = Stack.empty() ? Root : *Stack.back();
  R.counter(Name) += Delta;
}

void Stats::note(const std::string &Key, const std::string &Value) {
  for (auto &N : Notes)
    if (N.first == Key) {
      N.second = Value;
      return;
    }
  Notes.emplace_back(Key, Value);
}

std::string flick::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
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

void indentTo(std::string &Out, unsigned Depth) {
  Out.append(Depth * 2, ' ');
}

std::string fmtUs(double Us) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.3f", Us);
  return Buf;
}

void renderCounters(
    std::string &Out,
    const std::vector<std::pair<std::string, uint64_t>> &Counters,
    unsigned Depth) {
  indentTo(Out, Depth);
  Out += "\"counters\": {";
  for (size_t I = 0; I != Counters.size(); ++I) {
    if (I)
      Out += ",";
    Out += "\n";
    indentTo(Out, Depth + 1);
    Out += '"' + jsonEscape(Counters[I].first) +
           "\": " + std::to_string(Counters[I].second);
  }
  if (!Counters.empty()) {
    Out += "\n";
    indentTo(Out, Depth);
  }
  Out += "}";
}

void renderRegion(std::string &Out, const StatsRegion &R, unsigned Depth) {
  indentTo(Out, Depth);
  Out += "{\n";
  indentTo(Out, Depth + 1);
  Out += "\"name\": \"" + jsonEscape(R.Name) + "\",\n";
  indentTo(Out, Depth + 1);
  Out += "\"wall_us\": " + fmtUs(R.WallUs) + ",\n";
  renderCounters(Out, R.Counters, Depth + 1);
  Out += ",\n";
  indentTo(Out, Depth + 1);
  Out += "\"phases\": [";
  for (size_t I = 0; I != R.Children.size(); ++I) {
    if (I)
      Out += ",";
    Out += "\n";
    renderRegion(Out, *R.Children[I], Depth + 2);
  }
  if (!R.Children.empty()) {
    Out += "\n";
    indentTo(Out, Depth + 1);
  }
  Out += "]\n";
  indentTo(Out, Depth);
  Out += "}";
}

} // namespace

std::string Stats::toJson() const {
  std::string Out = "{\n";
  indentTo(Out, 1);
  Out += "\"tool\": \"flickc\",\n";
  indentTo(Out, 1);
  Out += "\"build\": " + flick_build_info_json() + ",\n";
  for (const auto &N : Notes) {
    indentTo(Out, 1);
    Out += '"' + jsonEscape(N.first) + "\": \"" + jsonEscape(N.second) +
           "\",\n";
  }
  indentTo(Out, 1);
  Out += "\"wall_us\": " + fmtUs(Root.WallUs) + ",\n";
  renderCounters(Out, Root.Counters, 1);
  Out += ",\n";
  indentTo(Out, 1);
  Out += "\"phases\": [";
  for (size_t I = 0; I != Root.Children.size(); ++I) {
    if (I)
      Out += ",";
    Out += "\n";
    renderRegion(Out, *Root.Children[I], 2);
  }
  if (!Root.Children.empty()) {
    Out += "\n";
    indentTo(Out, 1);
  }
  Out += "]\n}\n";
  return Out;
}

namespace {

void renderChromeRegion(std::string &Out, const StatsRegion &R,
                        bool &First) {
  if (!First)
    Out += ",\n";
  First = false;
  double Ts = R.StartUs < 0 ? 0 : R.StartUs;
  Out += "    {\"name\": \"" + jsonEscape(R.Name) +
         "\", \"cat\": \"flickc\", \"ph\": \"X\", \"ts\": " + fmtUs(Ts) +
         ", \"dur\": " + fmtUs(R.WallUs) + ", \"pid\": 1, \"tid\": 1";
  if (!R.Counters.empty()) {
    Out += ", \"args\": {";
    for (size_t I = 0; I != R.Counters.size(); ++I) {
      if (I)
        Out += ", ";
      Out += '"' + jsonEscape(R.Counters[I].first) +
             "\": " + std::to_string(R.Counters[I].second);
    }
    Out += "}";
  }
  Out += "}";
  for (const auto &C : R.Children)
    renderChromeRegion(Out, *C, First);
}

} // namespace

std::string Stats::toChromeTrace() const {
  std::string Out = "{\n  \"displayTimeUnit\": \"ms\",\n";
  for (const auto &N : Notes)
    Out += "  \"" + jsonEscape(N.first) + "\": \"" + jsonEscape(N.second) +
           "\",\n";
  Out += "  \"traceEvents\": [\n";
  bool First = true;
  renderChromeRegion(Out, Root, First);
  Out += "\n  ]\n}\n";
  return Out;
}

StatsPhase::StatsPhase(const char *Name) {
  Stats &S = Stats::get();
  if (!S.enabled())
    return;
  Active = true;
  S.push(Name);
  Start = std::chrono::steady_clock::now();
}

StatsPhase::~StatsPhase() {
  if (!Active)
    return;
  double Us = std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
  Stats::get().pop(Us);
}
