#include "inputs.hpp"

#include <algorithm>
#include <cstring>
#include <set>
#include <utility>

#include "common/rng.hpp"

namespace psibench {

using psi::Int;

/// Grid edge of the cold_plan Laplacians.
constexpr Int kColdGrid = 20;

std::vector<CatalogEntry> warm_catalog() {
  std::vector<CatalogEntry> out;
  out.push_back({"dg2d_12x12b4", psi::dg2d(12, 12, 4, /*seed=*/11)});
  out.push_back({"dg3d_5x5x5b3", psi::dg3d(5, 5, 5, 3, /*seed=*/12)});
  out.push_back({"fem3d_7x7x7d2", psi::fem3d(7, 7, 7, 2, /*seed=*/13)});
  return out;
}

std::vector<CatalogEntry> nsym_catalog() {
  std::vector<CatalogEntry> out;
  out.push_back({"dg3d_5x5x5b3", psi::dg3d_nonsym(5, 5, 5, 3, /*seed=*/12)});
  out.push_back({"fem3d_7x7x7d2", psi::fem3d_nonsym(7, 7, 7, 2, /*seed=*/13)});
  return out;
}

psi::SparseMatrix with_values(const psi::SparseMatrix& pattern_source,
                              std::uint64_t seed, std::uint64_t stream,
                              std::uint64_t index, psi::ValueKind kind) {
  psi::SparseMatrix out;
  out.pattern = pattern_source.pattern;
  const std::uint64_t value_seed =
      psi::hash_combine(psi::hash_combine(seed, stream), index);
  psi::assign_dd_values(out, value_seed, kind);
  return out;
}

std::vector<psi::SparseMatrix> cold_requests(std::uint64_t seed,
                                             std::size_t count) {
  const psi::SparseMatrix grid =
      psi::laplacian2d(kColdGrid, kColdGrid, /*seed=*/1).matrix;
  // Every strictly-lower coupling (row > col) of the grid, column-major.
  std::vector<std::pair<Int, Int>> edges;
  for (Int j = 0; j < grid.n(); ++j)
    for (Int p = grid.pattern.col_ptr[j]; p < grid.pattern.col_ptr[j + 1]; ++p)
      if (grid.pattern.row_idx[p] > j)
        edges.emplace_back(grid.pattern.row_idx[p], j);
  const std::uint64_t edge_count = edges.size();

  std::set<std::pair<std::uint64_t, std::uint64_t>> used;
  std::uint64_t state = psi::hash_combine(seed, 0xc01dull);
  std::vector<psi::SparseMatrix> out;
  out.reserve(count);
  while (out.size() < count) {
    std::uint64_t a = psi::splitmix64(state) % edge_count;
    std::uint64_t b = psi::splitmix64(state) % edge_count;
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    if (!used.insert({a, b}).second) continue;  // pattern seen before

    psi::TripletBuilder builder(grid.n());
    for (Int j = 0; j < grid.n(); ++j)
      for (Int p = grid.pattern.col_ptr[j]; p < grid.pattern.col_ptr[j + 1];
           ++p) {
        const Int i = grid.pattern.row_idx[p];
        const std::pair<Int, Int> lower{std::max(i, j), std::min(i, j)};
        if (i != j && (lower == edges[a] || lower == edges[b])) continue;
        builder.add(i, j, 1.0);
      }
    psi::SparseMatrix request = builder.compile();
    psi::assign_dd_values(request,
                          psi::hash_combine(seed, 0x7a1ull + out.size()),
                          psi::ValueKind::kSymmetric);
    out.push_back(std::move(request));
  }
  return out;
}

std::string matrix_bytes(const psi::SparseMatrix& matrix) {
  std::string out;
  const auto append = [&out](const void* data, std::size_t bytes) {
    out.append(static_cast<const char*>(data), bytes);
  };
  const Int n = matrix.n();
  append(&n, sizeof(n));
  append(matrix.pattern.col_ptr.data(),
         matrix.pattern.col_ptr.size() * sizeof(Int));
  append(matrix.pattern.row_idx.data(),
         matrix.pattern.row_idx.size() * sizeof(Int));
  append(matrix.values.data(), matrix.values.size() * sizeof(double));
  return out;
}

}  // namespace psibench
