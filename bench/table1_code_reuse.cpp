//===- bench/table1_code_reuse.cpp - Paper Table 1 ------------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table 1: code reuse within the compiler.  Counts substantive source
/// lines (non-blank, non-comment) of each base library and each
/// specialized component in *this* repository, and prints the fraction of
/// code unique to each component -- the same measurement the paper's
/// Table 1 makes on the original Flick.  A fourth phase applies it to the
/// runtime's transports, whose base library is the code they share.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#ifndef FLICK_SOURCE_DIR
#define FLICK_SOURCE_DIR "."
#endif

namespace {

/// Counts substantive lines: not blank, not pure comment.
size_t countLines(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return 0;
  size_t N = 0;
  std::string Line;
  bool InBlock = false;
  while (std::getline(In, Line)) {
    size_t I = Line.find_first_not_of(" \t");
    if (I == std::string::npos)
      continue;
    std::string T = Line.substr(I);
    if (InBlock) {
      if (T.find("*/") != std::string::npos)
        InBlock = false;
      continue;
    }
    if (T.rfind("//", 0) == 0)
      continue;
    if (T.rfind("/*", 0) == 0) {
      if (T.find("*/") == std::string::npos)
        InBlock = true;
      continue;
    }
    ++N;
  }
  return N;
}

size_t countAll(const std::vector<std::string> &Files) {
  size_t N = 0;
  for (const std::string &F : Files)
    N += countLines(std::string(FLICK_SOURCE_DIR) + "/src/" + F);
  return N;
}

struct Component {
  const char *Name;
  std::vector<std::string> Files;
};

void printPhase(const char *Phase, const Component &Base,
                const std::vector<Component> &Specials) {
  size_t BaseN = countAll(Base.Files);
  std::printf("%-10s %-22s %6zu\n", Phase, Base.Name, BaseN);
  for (const Component &C : Specials) {
    size_t N = countAll(C.Files);
    double Pct = 100.0 * double(N) / double(N + BaseN);
    std::printf("%-10s %-22s %6zu  %5.1f%%\n", "", C.Name, N, Pct);
    flickbench::JsonReport::Row R;
    R.str("phase", Phase)
        .str("component", C.Name)
        .num("base_lines", BaseN)
        .num("unique_lines", N)
        .num("unique_pct", Pct);
    flickbench::JsonReport::get().add(R);
  }
}

} // namespace

int main() {
  std::printf(
      "=== Table 1 reproduction: code reuse within the compiler ===\n"
      "Percentages: fraction of code unique to a component when linked\n"
      "with its base library (paper: presentations/back ends 0-11%%,\n"
      "front ends ~45-48%% because of per-IDL scanners/parsers).  The\n"
      "Transport rows apply the same rule to the runtime's transports.\n\n");
  std::printf("%-10s %-22s %6s  %6s\n", "phase", "component", "lines",
              "unique");

  printPhase("Front End",
             {"Base Library",
              {"frontends/Lexer.h", "frontends/Lexer.cpp", "aoi/Aoi.h",
               "aoi/Aoi.cpp", "aoi/Verify.cpp"}},
             {{"CORBA IDL",
               {"frontends/corba/CorbaFrontEnd.h",
                "frontends/corba/CorbaParser.cpp"}},
              {"ONC RPC IDL",
               {"frontends/oncrpc/OncFrontEnd.h",
                "frontends/oncrpc/OncParser.cpp"}}});

  // The presentation generators share PresGen.cpp; their specializations
  // are the policy overrides counted from the style sections.
  printPhase("Pres. Gen.",
             {"Base Library",
              {"presgen/PresGen.h", "presgen/PresGen.cpp", "pres/Pres.h",
               "pres/Pres.cpp", "mint/Mint.h", "mint/Mint.cpp",
               "cast/Cast.h", "cast/Print.cpp", "cast/Builder.h"}},
             {{"CORBA C mapping", {"presgen/CorbaStyle.cpp"}},
              {"rpcgen mapping", {"presgen/RpcgenStyle.cpp"}}});

  printPhase("Back End",
             {"Base Library",
              {"backends/Backend.h", "backends/Backend.cpp",
               "backends/StubShape.h", "backends/MarshalPlan.h",
               "backends/MarshalPlan.cpp", "backends/Passes.h",
               "backends/Passes.cpp", "backends/PlanEmit.cpp",
               "backends/Dispatch.cpp", "mint/Wire.h", "mint/Wire.cpp"}},
             {{"CORBA IIOP", {"backends/IiopBackend.cpp"}},
              {"ONC RPC XDR", {"backends/XdrBackend.cpp"}},
              {"Mach 3 IPC", {"backends/MachBackend.cpp"}},
              {"Fluke IPC", {"backends/FlukeBackend.cpp"}}});

  // The runtime's transports measured the same way: the Channel seam, the
  // shared message handling and the Transport seam (factory and wire
  // model) are their base library.
  printPhase("Transport",
             {"Base Library",
              {"runtime/Channel.h", "runtime/Channel.cpp",
               "runtime/transport/Message.h",
               "runtime/transport/Message.cpp",
               "runtime/transport/Transport.h",
               "runtime/transport/Transport.cpp"}},
             {{"LocalLink",
               {"runtime/transport/LocalLink.h",
                "runtime/transport/LocalLink.cpp"}},
              {"ThreadedLink",
               {"runtime/transport/ThreadedLink.h",
                "runtime/transport/ThreadedLink.cpp"}},
              {"ShardedLink",
               {"runtime/transport/ShardedLink.h",
                "runtime/transport/ShardedLink.cpp"}},
              {"SocketLink",
               {"runtime/transport/SocketLink.h",
                "runtime/transport/SocketLink.cpp"}}});

  std::printf("\n(Substantive lines: non-blank, non-comment, counted from\n"
              "the sources under %s/src.)\n",
              FLICK_SOURCE_DIR);
  return flickbench::JsonReport::get().write("table1_code_reuse") ? 0 : 1;
}
