//===- perfbench/corpus.cpp - Seeded IDL corpus generator -----------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small grammar-driven generator (in the spirit of L-system benchmark
/// generation) for the three IDLs Flick reads.  Why each shape is here:
///
///  - wide: one interface with hundreds of operations.  Work that is
///    linear per operation stays linear, but a pass that rescans the
///    interface (demultiplexer emission, helper sharing, name lookup)
///    turns quadratic and shows up in compile_s on the large workload.
///  - deep: types nested four levels (structs in unions in sequences).
///    Recursive walks over PRES/MINT and the plan passes' per-member
///    analyses scale with nesting depth; a superlinear walk shows here.
///    Inlined marshal code already grows as 2^depth (each level reaches
///    the one below through a struct and through a sequence): depth 8
///    generated 14 MB for one back end, so four levels keep a corpus
///    pass near a tenth of a second of compile time per input.
///  - narrow: a few small interfaces, like the hand-written idl/ files;
///    per-compile fixed costs dominate.
///  - degenerate: empty-ish interfaces (no parameters, one field, only
///    oneways, one-case unions).  They pin edge paths every back end must
///    take and keep the fixed cost of a compile in the measurement.
///
/// Shapes, counts, signatures and directions are fixed per profile; the
/// seed picks the primitive types and the bounds of strings and arrays.
/// Inlining multiplies every structural choice, so a seeded structure
/// would make compile_s a property of the seed more than of the compiler.
///
//===----------------------------------------------------------------------===//

#include "corpus.h"
#include "bench.h"

namespace pb {
namespace {

std::string num(uint64_t N) { return std::to_string(N); }

//===----------------------------------------------------------------------===//
// CORBA
//===----------------------------------------------------------------------===//

const char *CorbaPrims[] = {"long",   "unsigned long", "short", "octet",
                            "boolean", "double",       "long long",
                            "float",  "char",          "unsigned short"};

std::string corbaPrim(Rng &R) {
  return CorbaPrims[R.below(sizeof(CorbaPrims) / sizeof(*CorbaPrims))];
}

/// A CORBA module whose types nest \p Depth levels; \p Ops operations use
/// them.  Depth 1 with few ops is the narrow shape; Ops in the hundreds is
/// the wide shape; Depth 4 is the deep shape.
std::string corbaModule(Rng &R, const std::string &Name, unsigned Depth,
                        unsigned Ops) {
  std::string S = "module " + Name + " {\n";
  S += "  enum Kind { K_A, K_B, K_C, K_D };\n";
  std::vector<std::string> Types = {"long", "string", "Kind"};
  std::string Prev = "long";
  for (unsigned D = 0; D != Depth; ++D) {
    std::string St = "S" + num(D), Sq = "Seq" + num(D), Un = "U" + num(D);
    S += "  struct " + St + " {\n";
    for (unsigned F = 0; F != 3; ++F)
      S += "    " + corbaPrim(R) + " f" + num(F) + ";\n";
    S += "    " + Prev + " inner;\n";
    if (D % 2)
      S += "    string<" + num(8 + R.below(56)) + "> label;\n";
    else
      S += "    octet tag[" + num(1 + R.below(16)) + "];\n";
    S += "  };\n";
    S += "  typedef sequence<" + St + "> " + Sq + ";\n";
    S += "  union " + Un + " switch (long) {\n";
    S += "  case 1: " + St + " one;\n";
    S += "  case 2: " + Sq + " many;\n";
    S += "  default: " + corbaPrim(R) + " other;\n";
    S += "  };\n";
    Types.push_back(St);
    Types.push_back(Sq);
    Types.push_back(Un);
    Prev = Un;
  }
  S += "  exception Fault { long code; string why; };\n";
  S += "  interface " + Name + "_If {\n";
  static const char *Dirs[] = {"in", "in", "out", "inout"};
  size_t NT = Types.size();
  for (unsigned O = 0; O != Ops; ++O) {
    std::string Ret = O % 4 == 0 ? "void" : Types[(O * 7 + 3) % NT];
    S += "    " + Ret + " op" + num(O) + "(";
    unsigned Params = O % 3; // 0, 1 or 2 parameters
    for (unsigned P = 0; P != Params; ++P) {
      if (P)
        S += ", ";
      S += std::string(Dirs[(O + P) % 4]) + " " + Types[(O * 5 + P * 3) % NT] +
           " p" + num(P);
    }
    S += ")";
    if (O % 7 == 3)
      S += " raises(Fault)";
    S += ";\n";
  }
  S += "    oneway void notify(in long tick);\n";
  S += "  };\n};\n";
  return S;
}

/// Degenerate CORBA: minimal interfaces that still exercise each back end.
std::string corbaDegenerate(Rng &R, unsigned I) {
  std::string N = "Deg" + num(I);
  switch (I % 4) {
  case 0:
    return "interface " + N + " {\n  void nop();\n};\n";
  case 1:
    return "module " + N + " {\n  struct One { " + corbaPrim(R) +
           " v; };\n  interface I {\n    One get();\n  };\n};\n";
  case 2:
    return "interface " + N +
           " {\n  oneway void a(in long x);\n  oneway void b();\n};\n";
  default:
    return "module " + N + " {\n  union Only switch (short) {\n  case 0: " +
           corbaPrim(R) +
           " v;\n  };\n  typedef sequence<sequence<octet> > Blobs;\n"
           "  interface I {\n    Only pick(in Blobs b);\n"
           "    readonly attribute long n;\n  };\n};\n";
  }
}

//===----------------------------------------------------------------------===//
// ONC RPC
//===----------------------------------------------------------------------===//

const char *OncPrims[] = {"int",    "unsigned int", "hyper", "double",
                          "float",  "bool",         "short", "u_char"};

std::string oncPrim(Rng &R) {
  return OncPrims[R.below(sizeof(OncPrims) / sizeof(*OncPrims))];
}

std::string oncProgram(Rng &R, const std::string &Name, unsigned Depth,
                       unsigned Procs, unsigned ProgNum) {
  std::string S;
  std::vector<std::string> Types = {"int", "double"};
  std::string Prev = "int";
  for (unsigned D = 0; D != Depth; ++D) {
    std::string St = Name + "_s" + num(D), Ar = Name + "_arr" + num(D),
                Un = Name + "_u" + num(D);
    S += "struct " + St + " {\n";
    for (unsigned F = 0; F != 3; ++F)
      S += "  " + oncPrim(R) + " f" + num(F) + ";\n";
    S += "  " + Prev + " inner;\n";
    if (D % 2)
      S += "  string label<" + num(8 + R.below(56)) + ">;\n";
    else
      S += "  opaque data<>;\n";
    S += "};\n";
    S += "typedef " + St + " " + Ar + "<>;\n";
    S += "union " + Un + " switch (int which) {\ncase 0: void;\n";
    S += "case 1: " + St + " one;\n";
    S += "case 2: " + Ar + " many;\n";
    S += "default: " + oncPrim(R) + " other;\n};\n";
    Types.push_back(St);
    Types.push_back(Ar);
    Types.push_back(Un);
    Prev = Un;
  }
  S += "program " + Name + "_PROG {\n  version " + Name + "_VERS {\n";
  size_t NT = Types.size();
  for (unsigned P = 0; P != Procs; ++P) {
    std::string Ret = P % 4 == 0 ? "void" : Types[(P * 7 + 3) % NT];
    std::string Arg = P % 5 == 0 ? "void" : Types[(P * 5 + 1) % NT];
    S += "    " + Ret + " PROC" + num(P) + "(" + Arg + ") = " + num(P + 1) +
         ";\n";
  }
  S += "  } = 1;\n} = " + num(0x20000200u + ProgNum) + ";\n";
  return S;
}

std::string oncDegenerate(Rng &R, unsigned I) {
  std::string N = "deg" + num(I);
  if (I % 2)
    return "program " + N + "_PROG {\n  version V1 {\n    void NOP(void) = 1;\n"
           "  } = 1;\n} = " +
           num(0x20000300u + I) + ";\n";
  return "struct " + N + "_one {\n  " + oncPrim(R) + " v;\n};\nprogram " + N +
         "_PROG {\n  version V1 {\n    " + N + "_one GET(int) = 1;\n  } = 1;\n} = " +
         num(0x20000300u + I) + ";\n";
}

//===----------------------------------------------------------------------===//
// MIG
//===----------------------------------------------------------------------===//

const char *MigScalars[] = {"int", "unsigned", "int64", "char", "byte",
                            "int16", "boolean_t", "double"};

/// A MIG parameter type: the shape is fixed by \p Shape, the scalar and
/// the sizes come from the seed.
std::string migType(Rng &R, unsigned Shape) {
  std::string Sc = MigScalars[R.below(sizeof(MigScalars) / sizeof(*MigScalars))];
  switch (Shape % 5) {
  case 0:
    return "array[] of " + Sc;
  case 1:
    return "array[" + num(1 + R.below(32)) + "] of " + Sc;
  case 2:
    return "string[" + num(8 + R.below(120)) + "]";
  default:
    return Sc;
  }
}

std::string migSubsystem(Rng &R, const std::string &Name, unsigned Routines,
                         unsigned Base) {
  std::string S = "subsystem " + Name + " " + num(Base) + ";\n";
  S += "type count_t = MACH_MSG_TYPE_INTEGER_32;\n";
  for (unsigned I = 0; I != Routines; ++I) {
    bool Simple = I % 5 == 4;
    S += std::string(Simple ? "simpleroutine" : "routine") + " r" + num(I) +
         "(";
    unsigned Params = 1 + I % 3;
    for (unsigned P = 0; P != Params; ++P) {
      if (P)
        S += "; ";
      if (!Simple && P == Params - 1 && I % 3 == 0)
        S += "out ";
      S += "a" + num(P) + " : " + (P == 0 && I % 2 ? "count_t" : migType(R, I + P));
    }
    S += ");\n";
  }
  return S;
}

} // namespace

std::vector<IdlInput> generateCorpus(uint64_t Seed, bool Large) {
  Rng R(Seed ^ 0xC0DE5EEDull);
  std::vector<IdlInput> Out;
  auto Add = [&](std::string Name, Idl K, std::string Text) {
    Out.push_back({std::move(Name), K, std::move(Text)});
  };
  if (Large) {
    // Wide: hundreds of operations on one interface.
    Add("gen_wide.idl", Idl::Corba, corbaModule(R, "Wide", 1, 200));
    Add("gen_wide.x", Idl::Onc, oncProgram(R, "wide", 1, 120, 1));
    Add("gen_wide.defs", Idl::Mig, migSubsystem(R, "wide", 200, 1000));
    // Deep: eight levels of struct/union/sequence nesting.
    Add("gen_deep.idl", Idl::Corba, corbaModule(R, "Deep", 4, 8));
    Add("gen_deep.x", Idl::Onc, oncProgram(R, "deep", 4, 8, 2));
    return Out;
  }
  for (unsigned I = 0; I != 4; ++I) {
    Add("gen_narrow" + num(I) + ".idl", Idl::Corba,
        corbaModule(R, "Narrow" + num(I), 1, 6));
    Add("gen_narrow" + num(I) + ".x", Idl::Onc,
        oncProgram(R, "narrow" + num(I), 1, 6, 10 + I));
    Add("gen_narrow" + num(I) + ".defs", Idl::Mig,
        migSubsystem(R, "narrow" + num(I), 6, 2000 + 100 * I));
  }
  for (unsigned I = 0; I != 4; ++I) {
    Add("gen_degenerate" + num(I) + ".idl", Idl::Corba, corbaDegenerate(R, I));
    Add("gen_degenerate" + num(I) + ".x", Idl::Onc, oncDegenerate(R, I));
  }
  return Out;
}

} // namespace pb
