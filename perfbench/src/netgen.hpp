// Seeded SPICE-like netlist text for the benchmark's inputs.
//
// The program under test only ever sees this text (through
// circuit::try_assemble_netlist or serve::job_from_netlist). Topology is
// fixed by the spec; every element value is jittered by a stream keyed on
// (seed, instance), so two instances never share a bit-identical system and
// no content-keyed cache can carry work from one reduction to the next. The
// same (seed, instance) always yields byte-identical text.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// rows x cols RC mesh: neighbour resistors, a grounded capacitor and a
/// resistor to ground at every node, `ports` ports at uniform stride.
struct MeshSpec {
  int rows = 30;
  int cols = 30;
  int ports = 4;
};

/// `lines` parallel RC lines of `segments` segments, neighbours coupled
/// capacitively, one port at each line's near end.
struct BusSpec {
  int lines = 8;
  int segments = 80;
};

/// Relative half-width of the uniform jitter applied to every element value.
inline constexpr double kValueJitter = 1e-6;

std::string mesh_netlist(const MeshSpec& spec, std::uint64_t seed, std::uint64_t instance);
std::string bus_netlist(const BusSpec& spec, std::uint64_t seed, std::uint64_t instance);

/// A permutation of 0..n-1 drawn from the (seed, instance) stream.
std::vector<int> seeded_permutation(int n, std::uint64_t seed, std::uint64_t instance);

/// State count of the assembled system (nodes; RC networks have no branch
/// currents).
inline int mesh_states(const MeshSpec& s) { return s.rows * s.cols; }
inline int bus_states(const BusSpec& s) { return s.lines * (s.segments + 1); }

}  // namespace perfbench
