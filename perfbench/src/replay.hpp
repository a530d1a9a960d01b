// Stage-by-stage replay of one mor::pmtbr reduction through the library's
// public building blocks, timed span by span from outside:
//
//   circuit.ordering      DescriptorSystem::ordering()
//   sparse.pencil         sparse::shifted_pencil
//   sparse.symbolic       sparse::SymbolicLuC(pencil, ordering)
//   sparse.refactor       sparse::SparseLuC::refactor (full factor on reject)
//   sparse.solve          SparseLuC::solve(B)
//   mor.sample_block      realify + quadrature weight
//   mor.compress          IncrementalCompressor::add_columns
//   mor.order_select      IncrementalCompressor::order_for_tolerance
//   mor.basis             IncrementalCompressor::basis
//   mor.project           mor::project_congruence
//   mor.singular_values   IncrementalCompressor::singular_values
//
// Samples are solved one after another (each solve still fans its columns
// out on the pool), so replay wall / real pmtbr wall is the speed-up the
// sample-level parallelism buys. Adaptive stopping is replayed window by
// window exactly as mor::pmtbr runs it, so solve and refactor counts match.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/descriptor.hpp"
#include "mor/pmtbr.hpp"
#include "common.hpp"
#include "spans.hpp"

namespace perfbench {

struct ReplayResult {
  std::vector<double> singular_values;
  la::index order = 0;
  std::int64_t refactors = 0;  // successful numeric replays
  std::int64_t rejects = 0;    // replays rejected for a degenerate pivot
  std::int64_t solves = 0;     // shifted solves (one per sample attempted)
  std::size_t fill_nnz = 0;    // nonzeros of L + U in the symbolic analysis
  int root = -1;               // the "replay" span
};

/// Replays mor::pmtbr(sys, opts) for options without a weight function.
/// `pool_size` is the global pool's size (it sets the adaptive window).
ReplayResult replay_pmtbr(const DescriptorSystem& sys, const mor::PmtbrOptions& opts,
                          int pool_size, SpanLog& log, std::uint64_t request);

}  // namespace perfbench
