#include "netgen.hpp"

#include <charconv>
#include <utility>

namespace perfbench {

namespace {

// splitmix64: a tiny, fully specified generator, so the inputs do not change
// when the library's own RNG does.
class Stream {
 public:
  Stream(std::uint64_t seed, std::uint64_t instance, std::uint64_t tag)
      : state_(seed * 0x9E3779B97F4A7C15ULL ^ (instance + 1) * 0xD1B54A32D192ED03ULL ^ tag) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// value * (1 + u), u uniform in [-kValueJitter, kValueJitter).
  double jitter(double value) {
    const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;  // [0, 1)
    return value * (1.0 + kValueJitter * (2.0 * u - 1.0));
  }

 private:
  std::uint64_t state_;
};

class Writer {
 public:
  explicit Writer(std::size_t reserve) { text_.reserve(reserve); }

  // One element card; the value is printed in the shortest form that parses
  // back to the identical double, so text and system are in one-to-one
  // correspondence.
  void card(char kind, std::size_t id, const std::string& n1, const std::string& n2,
            double value) {
    text_ += kind;
    text_ += std::to_string(id);
    text_ += ' ';
    text_ += n1;
    text_ += ' ';
    text_ += n2;
    text_ += ' ';
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, value);
    text_.append(buf, res.ptr);
    text_ += '\n';
  }
  void line(const std::string& s) {
    text_ += s;
    text_ += '\n';
  }
  std::string take() { return std::move(text_); }

 private:
  std::string text_;
};

constexpr std::uint64_t kMeshTag = 0x6D657368ULL;  // "mesh"
constexpr std::uint64_t kBusTag = 0x627573ULL;     // "bus"
constexpr std::uint64_t kOrderTag = 0x6F72646572ULL;  // "order"

}  // namespace

std::string mesh_netlist(const MeshSpec& spec, std::uint64_t seed, std::uint64_t instance) {
  Stream rng(seed, instance, kMeshTag);
  const std::size_t nodes = static_cast<std::size_t>(spec.rows) * static_cast<std::size_t>(spec.cols);
  Writer w(nodes * 4 * 28 + 256);
  w.line("* rc mesh " + std::to_string(spec.rows) + "x" + std::to_string(spec.cols) +
         " seed " + std::to_string(seed) + " instance " + std::to_string(instance));
  const auto node = [&](int r, int c) {
    return "n" + std::to_string(r) + "_" + std::to_string(c);
  };
  std::size_t id = 0;
  // Capacitors first, row-major, so node numbering follows the grid.
  for (int r = 0; r < spec.rows; ++r)
    for (int c = 0; c < spec.cols; ++c) w.card('C', ++id, node(r, c), "0", rng.jitter(1e-13));
  for (int r = 0; r < spec.rows; ++r) {
    for (int c = 0; c < spec.cols; ++c) {
      w.card('R', ++id, node(r, c), "0", rng.jitter(2000.0));
      if (c + 1 < spec.cols) w.card('R', ++id, node(r, c), node(r, c + 1), rng.jitter(100.0));
      if (r + 1 < spec.rows) w.card('R', ++id, node(r, c), node(r + 1, c), rng.jitter(100.0));
    }
  }
  const std::size_t total = nodes;
  for (int k = 0; k < spec.ports; ++k) {
    const std::size_t flat = (static_cast<std::size_t>(k) * total) / static_cast<std::size_t>(spec.ports);
    const int r = static_cast<int>(flat / static_cast<std::size_t>(spec.cols));
    const int c = static_cast<int>(flat % static_cast<std::size_t>(spec.cols));
    w.line(".port " + node(r, c));
  }
  w.line(".end");
  return w.take();
}

std::string bus_netlist(const BusSpec& spec, std::uint64_t seed, std::uint64_t instance) {
  Stream rng(seed, instance, kBusTag);
  const std::size_t nodes =
      static_cast<std::size_t>(spec.lines) * (static_cast<std::size_t>(spec.segments) + 1);
  Writer w(nodes * 4 * 28 + 256);
  w.line("* rc bus " + std::to_string(spec.lines) + "x" + std::to_string(spec.segments) +
         " seed " + std::to_string(seed) + " instance " + std::to_string(instance));
  const auto node = [](int l, int s) { return "b" + std::to_string(l) + "_" + std::to_string(s); };
  std::size_t id = 0;
  for (int l = 0; l < spec.lines; ++l) {
    // Weak leak at the driven end keeps the conductance matrix nonsingular.
    w.card('C', ++id, node(l, 0), "0", rng.jitter(2e-14));
    w.card('R', ++id, node(l, 0), "0", rng.jitter(1000.0));
    for (int s = 0; s < spec.segments; ++s) {
      w.card('R', ++id, node(l, s), node(l, s + 1), rng.jitter(50.0));
      w.card('C', ++id, node(l, s + 1), "0", rng.jitter(2e-14));
    }
  }
  for (int l = 0; l + 1 < spec.lines; ++l)
    for (int s = 1; s <= spec.segments; ++s)
      w.card('C', ++id, node(l, s), node(l + 1, s), rng.jitter(1e-14));
  for (int l = 0; l < spec.lines; ++l) w.line(".port " + node(l, 0));
  w.line(".end");
  return w.take();
}

std::vector<int> seeded_permutation(int n, std::uint64_t seed, std::uint64_t instance) {
  Stream rng(seed, instance, kOrderTag);
  std::vector<int> perm(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i)  // Fisher-Yates
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[rng.next() % static_cast<std::uint64_t>(i + 1)]);
  return perm;
}

}  // namespace perfbench
