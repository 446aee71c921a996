//===- perfbench/corpus.h - Seeded IDL corpus generator ---------*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#ifndef FLICK_PERFBENCH_CORPUS_H
#define FLICK_PERFBENCH_CORPUS_H

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

enum class Idl { Corba, Onc, Mig };

struct IdlInput {
  std::string Name; ///< file-like name, used in diagnostics
  Idl Kind;
  std::string Text;
};

/// Generates CORBA, ONC RPC and MIG interface text from \p Seed.  Small
/// corpora hold narrow and degenerate interfaces; large ones hold wide
/// and deep ones.  The same seed always yields the same text.
std::vector<IdlInput> generateCorpus(uint64_t Seed, bool Large);

} // namespace pb

#endif // FLICK_PERFBENCH_CORPUS_H
