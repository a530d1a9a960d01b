#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>
#include <stdexcept>

#include "la/ops.hpp"
#include "mor/compressor.hpp"
#include "mor/sampling.hpp"
#include "mor/state_space.hpp"
#include "sparse/csr.hpp"
#include "sparse/splu.hpp"

namespace perfbench {

ReplayResult replay_pmtbr(const DescriptorSystem& sys, const mor::PmtbrOptions& opts,
                          int pool_size, SpanLog& log, std::uint64_t request) {
  if (opts.weight_fn) throw std::invalid_argument("replay does not support weight_fn");
  using mor::FrequencySample;
  using Scope = SpanLog::Scope;
  ReplayResult out;
  const Scope root(&log, "replay", request);
  out.root = root.id();
  const auto span = [&](const char* name) { return Scope(&log, name, request, root.id()); };

  const std::vector<FrequencySample> samples =
      mor::sample_bands(opts.bands, opts.num_samples, opts.scheme);
  std::vector<la::index> perm;
  {
    const auto s = span("circuit.ordering");
    perm = sys.ordering();
  }
  std::optional<sparse::SymbolicLuC> symbolic;
  {
    sparse::CsrC pencil;
    {
      const auto s = span("sparse.pencil");
      pencil = sparse::shifted_pencil(samples.front().s, sys.e(), sys.a());
    }
    const auto s = span("sparse.symbolic");
    symbolic.emplace(pencil, perm);
  }
  out.fill_nnz = symbolic->nnz_factors();

  const la::MatC rhs = la::to_complex(sys.b());
  mor::IncrementalCompressor comp(sys.n(), 1e-13, opts.compressor);
  const bool adaptive = opts.adaptive_excess > 0;
  const auto total = static_cast<la::index>(samples.size());
  const la::index window = adaptive ? std::max<la::index>(1, 2 * pool_size) : total;
  la::index used = 0;
  bool stopped = false;
  for (la::index base = 0; base < total && !stopped; base += window) {
    const la::index count = std::min(window, total - base);
    std::vector<la::MatD> blocks;
    for (la::index k = 0; k < count; ++k) {
      const FrequencySample& fs = samples[static_cast<std::size_t>(base + k)];
      sparse::CsrC pencil;
      {
        const auto s = span("sparse.pencil");
        pencil = sparse::shifted_pencil(fs.s, sys.e(), sys.a());
      }
      std::optional<sparse::SparseLuC> lu;
      {
        const auto s = span("sparse.refactor");
        auto replayed = sparse::SparseLuC::refactor(*symbolic, pencil);
        if (replayed.is_ok()) {
          ++out.refactors;
          lu.emplace(std::move(replayed).value());
        } else {
          ++out.rejects;
          lu.emplace(sparse::SparseLuC(pencil, perm));
        }
      }
      la::MatC z;
      {
        const auto s = span("sparse.solve");
        z = lu->solve(rhs);
        ++out.solves;
      }
      const auto s = span("mor.sample_block");
      // mor::pmtbr's quadrature weighting, Parseval 1/(2 pi) folded in; a
      // sample off the real axis stands for its conjugate pair as well.
      la::MatD block;
      if (fs.s.imag() == 0.0) {
        block = la::real_part(z);
        block *= std::sqrt(fs.weight / (2.0 * std::numbers::pi));
      } else {
        block = la::realify_columns(z);
        block *= std::sqrt(fs.weight / std::numbers::pi);
      }
      blocks.push_back(std::move(block));
    }
    for (const la::MatD& block : blocks) {
      {
        const auto s = span("mor.compress");
        comp.add_columns(block);
      }
      ++used;
      if (adaptive && used >= opts.min_samples) {
        la::index est = 0;
        {
          const auto s = span("mor.order_select");
          est = comp.order_for_tolerance(opts.truncation_tol);
        }
        if (static_cast<double>(used) >= opts.adaptive_excess * static_cast<double>(est)) {
          stopped = true;
          break;
        }
      }
    }
  }

  {
    const auto s = span("mor.order_select");
    out.order = opts.fixed_order > 0 ? std::min<la::index>(opts.fixed_order, comp.rank())
                                     : comp.order_for_tolerance(opts.truncation_tol);
  }
  if (opts.max_order > 0) out.order = std::min(out.order, opts.max_order);
  out.order = std::max<la::index>(out.order, 1);
  la::MatD v;
  {
    const auto s = span("mor.basis");
    v = comp.basis(out.order);
  }
  {
    const auto s = span("mor.project");
    const mor::DenseSystem reduced = mor::project_congruence(sys, v);
    if (reduced.n() != out.order) throw std::logic_error("replay projection has the wrong order");
  }
  const auto s = span("mor.singular_values");
  out.singular_values = comp.singular_values();
  return out;
}

}  // namespace perfbench
