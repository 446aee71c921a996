//===- perfbench/compile_phase.cpp - In-process compiles ------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles every input (the idl/ files plus the seeded corpus) over the
/// default presentation of its front end and each of the five back ends,
/// through the calls flickc's main makes -- parse, AoiModule::verify,
/// PresGen::generate, Backend::generate -- keeping outputs in memory.
/// One corpus pass is the unit compile_s reports (median over passes).
///
//===----------------------------------------------------------------------===//

#include "backends/Backend.h"
#include "bench.h"
#include "corpus.h"
#include "frontends/corba/CorbaFrontEnd.h"
#include "frontends/mig/MigFrontEnd.h"
#include "frontends/oncrpc/OncFrontEnd.h"
#include "presgen/PresGen.h"
#include "support/Diagnostics.h"
#include "support/Stats.h"
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

namespace pb {

struct CompileInputs {
  std::vector<IdlInput> Inputs;
};

namespace {

const char *Backends[] = {"iiop", "fluke", "xdr", "naive", "mach"};
constexpr unsigned NumBackends = 5;

/// The hand-written interfaces of the repository, always part of the
/// corpus (a fixed list: adding a file to idl/ must not change inputs).
const char *IdlFiles[] = {"bank.idl",  "bench.idl", "bench.x", "counter.defs",
                          "kitchen.idl", "list.x",  "mail.idl"};

struct PassResult {
  bool Ok = true;
  uint64_t Hash = 1469598103934665603ull;
  uint64_t Bytes = 0;
  uint64_t BackendNs[NumBackends] = {};
  uint64_t TypeNodes = 0;
  uint64_t CheckNs = 0;
};

/// One (input, back end) compile, as flickc's main performs it.
bool compileOne(const IdlInput &In, unsigned BI, Tracer &T, PassResult &P,
                Results &R) {
  flick::DiagnosticEngine Diags;
  Span Root(T, L_Bench);
  std::unique_ptr<flick::AoiModule> Module;
  T.begin(L_Frontends);
  switch (In.Kind) {
  case Idl::Corba:
    Module = flick::parseCorbaIdl(In.Text, In.Name, Diags);
    break;
  case Idl::Onc:
    Module = flick::parseOncIdl(In.Text, In.Name, Diags);
    break;
  case Idl::Mig:
    Module = flick::parseMigDefs(In.Text, In.Name, Diags);
    break;
  }
  T.end();
  if (!Module)
    return false;
  if (T.On)
    P.TypeNodes += Module->numTypeNodes();
  T.begin(L_Aoi);
  bool Verified = Module->verify(Diags);
  T.end();
  if (!Verified)
    return false;

  flick::PresGenOptions PO;
  std::unique_ptr<flick::PresGen> PG;
  switch (In.Kind) {
  case Idl::Corba:
    PG = std::make_unique<flick::CorbaPresGen>(PO);
    break;
  case Idl::Onc:
    PG = std::make_unique<flick::RpcgenPresGen>(PO);
    break;
  case Idl::Mig:
    PG = std::make_unique<flick::MigPresGen>(PO);
    break;
  }
  T.begin(L_Presgen);
  std::unique_ptr<flick::PresC> Pres = PG->generate(*Module, Diags);
  T.end();
  if (!Pres)
    return false;

  std::unique_ptr<flick::Backend> BE =
      flick::createBackend(Backends[BI], flick::BackendOptions{});
  if (!BE)
    return false;
  std::string Base = In.Name.substr(0, In.Name.find('.'));
  T.begin(L_Backends);
  flick::BackendOutput Out = BE->generate(*Pres, Base);
  P.BackendNs[BI] += T.end();
  // Hashing the output is the benchmark's check, not compile work: its
  // time is taken back out of the pass time.
  uint64_t H0 = nowNs();
  for (const std::string *S :
       {&Out.Header, &Out.ClientSrc, &Out.ServerSrc, &Out.CommonSrc}) {
    P.Hash = fnv1a(S->data(), S->size(), P.Hash);
    P.Bytes += S->size();
  }
  P.CheckNs += nowNs() - H0;
  if (Diags.errorCount() != 0 && R.Failures.size() < 8)
    R.Failures.push_back(In.Name + "/" + Backends[BI] + ": " +
                         Diags.renderAll());
  return Diags.errorCount() == 0;
}

PassResult compilePass(const CompileInputs &In, Tracer &T, Results &R) {
  PassResult P;
  for (const IdlInput &I : In.Inputs)
    for (unsigned B = 0; B != NumBackends; ++B) {
      bool Ok = compileOne(I, B, T, P, R);
      R.check(Ok, "compile " + I.Name + " -b " + Backends[B]);
      P.Ok = P.Ok && Ok;
    }
  return P;
}

/// Sums the Stats region tree: wall time of regions matching \p Pred, and
/// named counters anywhere in the tree.
template <typename Pred>
double sumRegions(const flick::StatsRegion &Rg, Pred P) {
  double Us = P(Rg.Name) ? Rg.WallUs : 0;
  for (const auto &C : Rg.Children)
    Us += sumRegions(*C, P);
  return Us;
}

uint64_t sumCounter(const flick::StatsRegion &Rg, const std::string &N) {
  uint64_t V = Rg.counterValue(N);
  for (const auto &C : Rg.Children)
    V += sumCounter(*C, N);
  return V;
}

} // namespace

CompileInputs *compileSetup(const RunConfig &C, const std::string &IdlDir) {
  auto *In = new CompileInputs;
  for (const char *F : IdlFiles) {
    std::ifstream S(IdlDir + "/" + F, std::ios::binary);
    if (!S) {
      std::fprintf(stderr, "perfbench: cannot read %s/%s\n", IdlDir.c_str(), F);
      delete In;
      return nullptr;
    }
    std::stringstream Ss;
    Ss << S.rdbuf();
    std::string Name = F;
    Idl K = Name.size() > 2 && Name.substr(Name.size() - 2) == ".x" ? Idl::Onc
            : Name.find(".defs") != std::string::npos             ? Idl::Mig
                                                                  : Idl::Corba;
    In->Inputs.push_back({Name, K, Ss.str()});
  }
  for (IdlInput &G : generateCorpus(C.Seed, C.Prof.LargeCorpus))
    In->Inputs.push_back(std::move(G));
  return In;
}

void compileFree(CompileInputs *In) { delete In; }

namespace {

class CompilePhase : public Phase {
public:
  CompilePhase(const RunConfig &C, CompileInputs &In, Results &R)
      : C(C), In(In), R(R) {
    if (C.Trace)
      flick::Stats::get().reset();
  }

  /// Untraced passes measure compile_s; in the traced run every other
  /// round is traced (spans + Stats), so the overhead is measured in-run.
  void round(bool Traced, double Seconds) override {
    flick::Stats &St = flick::Stats::get();
    uint64_t End = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
    do {
      T.On = Traced;
      St.setEnabled(Traced);
      uint64_t T0 = nowNs();
      PassResult P = compilePass(In, T, R);
      double Secs = static_cast<double>(nowNs() - T0 - P.CheckNs) * 1e-9;
      St.setEnabled(false);
      T.On = false;
      (Traced ? TracedS : Plain).push_back(Secs);
      if (Traced) {
        for (unsigned B = 0; B != NumBackends; ++B)
          TracedBackendNs[B] += P.BackendNs[B];
        TypeNodes += P.TypeNodes;
      }
      if (Plain.size() + TracedS.size() == 1) {
        Ref = P;
      } else {
        // Byte-identical output on every pass of the same inputs.
        R.check(P.Hash == Ref.Hash && P.Bytes == Ref.Bytes,
                "compile output differs between passes");
      }
    } while (nowNs() < End);
  }

  void finish() override;

private:
  const RunConfig &C;
  CompileInputs &In;
  Results &R;
  Tracer T;
  std::vector<double> Plain, TracedS;
  PassResult Ref;
  uint64_t TracedBackendNs[NumBackends] = {};
  uint64_t TypeNodes = 0;
};

void CompilePhase::finish() {
  char Hex[32];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(Ref.Hash));
  R.Notes["compile.output_hash"] = Hex;
  R.Notes["compile.inputs"] = std::to_string(In.Inputs.size());
  R.Notes["compile.passes"] = std::to_string(Plain.size());
  R.Notes["rounds.compile_s"] = joinNums(Plain);
  // The fastest pass: interference from the rest of the host only ever
  // adds time, and the fastest of many passes is the steadiest figure.
  double CompileS = *std::min_element(Plain.begin(), Plain.end());
  R.e2e("compile_s", CompileS, "s");
  R.e2e("gen_bytes", static_cast<double>(Ref.Bytes), "bytes");
  if (!C.Trace)
    return;

  flick::Stats &St = flick::Stats::get();
  double NT = static_cast<double>(TracedS.size());
  auto PerPass = [&](uint64_t Ns) { return static_cast<double>(Ns) * 1e-9 / NT; };
  R.layer("frontends.parse_s", PerPass(T.Acc[L_Frontends].TotalNs), "s");
  R.layer("aoi.verify_s", PerPass(T.Acc[L_Aoi].TotalNs), "s");
  R.layer("presgen.generate_s", PerPass(T.Acc[L_Presgen].TotalNs), "s");
  R.layer("backends.generate_s", PerPass(T.Acc[L_Backends].TotalNs), "s");
  for (unsigned B = 0; B != NumBackends; ++B)
    R.layer(std::string("backends.generate_s.") + Backends[B],
            PerPass(TracedBackendNs[B]), "s");
  const flick::StatsRegion &Root = St.root();
  auto PerPassUs = [&](double Us) { return Us * 1e-6 / NT; };
  R.layer("backends.passes_s",
          PerPassUs(sumRegions(Root, [](const std::string &N) {
            return N.rfind("pass.", 0) == 0;
          })),
          "s");
  R.layer("backends.print_s",
          PerPassUs(sumRegions(Root, [](const std::string &N) { return N == "print"; })),
          "s");
  auto PerPassCount = [&](const char *N) {
    return static_cast<double>(sumCounter(Root, N)) / NT;
  };
  R.layer("frontends.tokens", PerPassCount("lexer.tokens"), "count");
  R.layer("aoi.type_nodes", static_cast<double>(TypeNodes) / NT, "count");
  R.layer("presgen.mint_nodes", PerPassCount("mint.nodes.total"), "count");
  R.layer("presgen.pres_nodes", PerPassCount("pres.nodes"), "count");
  R.layer("backends.plan.inline_items", PerPassCount("plan.inline_items"), "count");
  R.layer("backends.plan.chunks_after", PerPassCount("plan.chunks_after"), "count");
  R.layer("backends.plan.memcpy_members", PerPassCount("plan.memcpy_members"), "count");
  St.reset();

  // Closure: the four layer spans against the traced pass time; what is
  // left is the benchmark's own loop (bench self time).
  double TracedPass = median(TracedS);
  double LayerSum = 0;
  for (int L : {L_Frontends, L_Aoi, L_Presgen, L_Backends})
    LayerSum += PerPass(T.Acc[L].SelfNs);
  for (int L : {L_Frontends, L_Aoi, L_Presgen, L_Backends})
    R.layer(std::string(layerName(L)) + ".self_frac.compile",
            PerPass(T.Acc[L].SelfNs) / (LayerSum > 0 ? LayerSum : 1), "ratio");
  R.layer("closure.compile.gap_frac", std::fabs(LayerSum / TracedPass - 1), "ratio");
  R.layer("trace.slowdown.compile", TracedPass / median(Plain), "ratio");
}

} // namespace

std::unique_ptr<Phase> compilePhase(const RunConfig &C, CompileInputs &In,
                                    Results &R) {
  return std::make_unique<CompilePhase>(C, In, R);
}

} // namespace pb
