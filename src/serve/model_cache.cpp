#include "serve/model_cache.hpp"

#include <sstream>

#include "util/obs/json.hpp"

namespace pmtbr::serve {

namespace {

std::size_t dense_bytes(const la::MatD& m) { return m.size() * sizeof(double); }

// `with_order` = false leaves out the order selectors the finish stage
// alone reads, which gives the sampling stage's key.
void mix_options(util::FingerprintHasher& h, const mor::PmtbrOptions& opts, bool with_order) {
  h.mix(opts.bands.size());
  for (const mor::Band& band : opts.bands) {
    h.mix_double(band.f_lo);
    h.mix_double(band.f_hi);
  }
  h.mix_i64(static_cast<std::int64_t>(opts.num_samples));
  h.mix_i64(static_cast<std::int64_t>(opts.scheme));
  if (with_order) h.mix_i64(static_cast<std::int64_t>(opts.fixed_order));
  h.mix_double(opts.truncation_tol);
  if (with_order) h.mix_i64(static_cast<std::int64_t>(opts.max_order));
  h.mix_double(opts.adaptive_excess);
  h.mix_i64(static_cast<std::int64_t>(opts.min_samples));
  h.mix_i64(opts.resilience.max_retries);
  h.mix_double(opts.resilience.retry_shift_eps);
  h.mix_double(opts.resilience.diag_reg);
  h.mix_double(opts.resilience.min_coverage);
  h.mix_i64(static_cast<std::int64_t>(opts.compressor));
}

std::optional<util::Fingerprint> fingerprint(const JobRequest& req, bool with_order) {
  // A std::function weight has no content identity: two textually equal
  // lambdas are distinct values, so memoizing across them would be wrong.
  if (req.options.weight_fn) return std::nullopt;
  util::FingerprintHasher h;
  const util::Fingerprint system = req.system.content_fingerprint();
  h.mix(system.hi);
  h.mix(system.lo);
  h.mix_i64(static_cast<std::int64_t>(req.method));
  mix_options(h, req.options, with_order);
  if (req.method == Method::kPmtbrAdaptive) {
    h.mix_double(req.adaptive.band.f_lo);
    h.mix_double(req.adaptive.band.f_hi);
    h.mix_i64(static_cast<std::int64_t>(req.adaptive.initial_samples));
    h.mix_i64(static_cast<std::int64_t>(req.adaptive.max_samples));
    h.mix_double(req.adaptive.novelty_tol);
  }
  return h.digest();
}

}  // namespace

std::optional<util::Fingerprint> job_fingerprint(const JobRequest& req) {
  return fingerprint(req, true);
}

std::optional<util::Fingerprint> sampling_fingerprint(const JobRequest& req) {
  return fingerprint(req, false);
}

namespace {

// Estimated resident size of one cached value.
std::size_t cached_bytes(const mor::PmtbrResult& result) {
  const mor::DenseSystem& sys = result.model.system;
  std::size_t bytes = dense_bytes(sys.e()) + dense_bytes(sys.a()) + dense_bytes(sys.b()) +
                      dense_bytes(sys.c()) + dense_bytes(result.model.v) +
                      dense_bytes(result.model.w);
  bytes += result.model.singular_values.size() * sizeof(double);
  bytes += result.hankel_estimates.size() * sizeof(double);
  bytes += result.samples_used.size() * sizeof(mor::FrequencySample);
  bytes += result.degradation.failures.size() * sizeof(mor::SampleFailure);
  return bytes;
}

std::size_t cached_bytes(const mor::SamplingStage& stage) {
  // Basis (n x rank) plus the triangular R columns (at most rank x rank).
  const auto n = static_cast<std::size_t>(stage.compressor.n());
  const auto rank = static_cast<std::size_t>(stage.compressor.rank());
  return (n + rank) * rank * sizeof(double) +
         stage.samples_used.size() * sizeof(mor::FrequencySample) +
         stage.degradation.failures.size() * sizeof(mor::SampleFailure);
}

std::size_t resolve_budget(std::size_t byte_budget) {
  return byte_budget > 0 ? byte_budget : util::cache_byte_budget(kDefaultModelCacheBytes);
}

}  // namespace

template <typename T>
typename CacheLayer<T>::Ptr CacheLayer<T>::lookup(const util::Fingerprint& key) {
  auto hit = lru_.get(key);
  if (hit.has_value()) {
    obs::counter_add(counters_.hit);
    return *hit;
  }
  obs::counter_add(counters_.miss);
  return nullptr;
}

template <typename T>
void CacheLayer<T>::insert(const util::Fingerprint& key, Ptr value) {
  const std::size_t bytes = cached_bytes(*value);
  const util::EvictionReport ev = lru_.put(key, std::move(value), bytes);
  if (!ev.inserted) return;
  obs::counter_add(counters_.bytes,
                   static_cast<std::int64_t>(bytes) - ev.bytes - ev.replaced_bytes);
  if (ev.count > 0) obs::counter_add(counters_.evict, ev.count);
}

template <typename T>
void CacheLayer<T>::note_coalesced() {
  lru_.add_coalesced();
  obs::counter_add(counters_.coalesced);
}

template class CacheLayer<mor::PmtbrResult>;
template class CacheLayer<mor::SamplingStage>;

ModelCache::ModelCache(std::size_t byte_budget)
    : results(resolve_budget(byte_budget),
              {obs::Counter::kModelCacheHit, obs::Counter::kModelCacheMiss,
               obs::Counter::kModelCacheEvict, obs::Counter::kModelCacheCoalesced,
               obs::Counter::kModelCacheBytes}),
      stages(resolve_budget(byte_budget),
             {obs::Counter::kSamplingCacheHit, obs::Counter::kSamplingCacheMiss,
              obs::Counter::kSamplingCacheEvict, obs::Counter::kSamplingCacheCoalesced,
              obs::Counter::kSamplingCacheBytes}) {}

namespace {

void write_layer(obs::JsonWriter& w, const util::CacheStats& st) {
  w.begin_object();
  w.key("hits");
  w.value(st.hits);
  w.key("misses");
  w.value(st.misses);
  w.key("evictions");
  w.value(st.evictions);
  w.key("coalesced");
  w.value(st.coalesced);
  w.key("entries");
  w.value(st.entries);
  w.key("bytes");
  w.value(st.bytes);
  w.end_object();
}

}  // namespace

std::pair<std::string, std::string> cache_extra(const util::CacheStats& model,
                                                const util::CacheStats& sampling) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("model");
  write_layer(w, model);
  w.key("sampling");
  write_layer(w, sampling);
  w.end_object();
  return {"cache", os.str()};
}

}  // namespace pmtbr::serve
