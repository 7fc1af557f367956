/// \file inputs.hpp
/// \brief Seeded request inputs of every workload. The same seed gives
/// byte-equal matrices; the program under test sees only these matrices.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sparse/generators.hpp"

namespace psibench {

/// A named structure of a workload catalog (pattern fixed, values per
/// request).
struct CatalogEntry {
  std::string name;
  psi::GeneratedMatrix gen;
};

/// warm_selinv: bench_numeric's three structures.
std::vector<CatalogEntry> warm_catalog();

/// nsym_selinv: the structurally non-symmetric DG and FEM structures.
std::vector<CatalogEntry> nsym_catalog();

/// A copy of `pattern_source` with fresh diagonally dominant values drawn
/// from (seed, stream, index).
psi::SparseMatrix with_values(const psi::SparseMatrix& pattern_source,
                              std::uint64_t seed, std::uint64_t stream,
                              std::uint64_t index, psi::ValueKind kind);

/// cold_plan's first `count` requests: 20x20 5-point Laplacians, each with
/// two seeded couplings removed (both directions), so every request has a
/// pattern no earlier request of the run had.
std::vector<psi::SparseMatrix> cold_requests(std::uint64_t seed,
                                             std::size_t count);

/// Byte image of a matrix (dimension, pattern and value bits).
std::string matrix_bytes(const psi::SparseMatrix& matrix);

}  // namespace psibench
