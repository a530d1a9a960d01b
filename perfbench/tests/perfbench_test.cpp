// Benchmark-local unit tests: python3 perfbench/run.py --self-test
#include <cstdio>
#include <string>
#include <vector>

#include "circuit/parser.hpp"
#include "common.hpp"
#include "netgen.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAILED: %s\n", what);
  }
}

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_helper() {
  expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "median of an odd sample");
  expect(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "median of an even sample");
  // p90 needs ten samples beyond it: 99 samples leave only 9.
  expect(!perfbench::tail_percentile(ramp(99), 90).has_value(), "p90 refused with 99 samples");
  expect(!perfbench::tail_percentile(ramp(10), 90).has_value(), "p90 refused with 10 samples");
  const auto p90 = perfbench::tail_percentile(ramp(100), 90);
  expect(p90.has_value() && *p90 == 90.0, "p90 of 1..100 is 90 with 10 beyond");
  const auto p50 = perfbench::tail_percentile(ramp(21), 50);
  expect(p50.has_value() && *p50 == 11.0, "p50 of 1..21 is 11");
}

pmtbr::util::Fingerprint fingerprint(const std::string& text) {
  return pmtbr::circuit::try_assemble_netlist(text).value().content_fingerprint();
}

void netlist_determinism() {
  const perfbench::MeshSpec mesh{6, 5, 3};
  const perfbench::BusSpec bus{3, 7};
  expect(perfbench::mesh_netlist(mesh, 42, 3) == perfbench::mesh_netlist(mesh, 42, 3),
         "same seed and instance give byte-identical mesh text");
  expect(perfbench::bus_netlist(bus, 42, 3) == perfbench::bus_netlist(bus, 42, 3),
         "same seed and instance give byte-identical bus text");
  const auto base = fingerprint(perfbench::mesh_netlist(mesh, 42, 3));
  expect(base == fingerprint(perfbench::mesh_netlist(mesh, 42, 3)),
         "reassembled text keeps its content fingerprint");
  expect(base != fingerprint(perfbench::mesh_netlist(mesh, 43, 3)),
         "a new seed gives a new mesh fingerprint");
  expect(base != fingerprint(perfbench::mesh_netlist(mesh, 42, 4)),
         "a new instance gives a new mesh fingerprint");
  expect(fingerprint(perfbench::bus_netlist(bus, 42, 3)) !=
             fingerprint(perfbench::bus_netlist(bus, 43, 3)),
         "a new seed gives a new bus fingerprint");
  const auto sys = pmtbr::circuit::try_assemble_netlist(perfbench::mesh_netlist(mesh, 1, 0));
  expect(sys.is_ok() && sys.value().n() == perfbench::mesh_states(mesh) &&
             sys.value().num_inputs() == mesh.ports,
         "mesh text assembles to rows*cols states and the requested ports");
  const auto bsys = pmtbr::circuit::try_assemble_netlist(perfbench::bus_netlist(bus, 1, 0));
  expect(bsys.is_ok() && bsys.value().n() == perfbench::bus_states(bus) &&
             bsys.value().num_inputs() == bus.lines,
         "bus text assembles to lines*(segments+1) states and one port per line");
}

void order_rule() {
  // Tail sums: {1, .1, .01, .001} -> tail after q=2 is .011, after q=3 is .001.
  const std::vector<double> sv{1.0, 0.1, 0.01, 0.001};
  expect(perfbench::expected_order(sv, 0.02, -1) == 2, "tail rule picks q=2 at tol .02");
  expect(perfbench::expected_order(sv, 0.005, -1) == 3, "tail rule picks q=3 at tol .005");
  expect(perfbench::expected_order(sv, 0.005, 2) == 2, "max_order caps the tail rule");
  expect(perfbench::expected_order(sv, 10.0, -1) == 1, "order is at least 1");
}

void span_self_time() {
  perfbench::SpanLog log;
  const int root = log.open("root", 1);
  const int child = log.open("child", 1, root);
  log.close(child);
  log.close(root);
  const double self = log.self_time(root);
  expect(self >= 0.0 && self <= log.duration(root), "self time lies within the span");
  expect(log.durations("child").size() == 1, "one closed child span");
}

}  // namespace

int main() {
  percentile_helper();
  netlist_determinism();
  order_rule();
  span_self_time();
  if (g_failures == 0) std::printf("perfbench_tests: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
