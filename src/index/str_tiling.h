// Copyright 2026 The updb Authors.
// Sort-Tile-Recursive ordering (Leutenegger, Lopez & Edgington, "STR: A
// Simple and Efficient Algorithm for R-Tree Packing"): arranges items so
// that consecutive runs of `tile` items are spatially coherent. The
// R-tree's bulk load packs its leaves over such runs, and the threshold
// RkNN filter groups database objects by them.

#ifndef UPDB_INDEX_STR_TILING_H_
#define UPDB_INDEX_STR_TILING_H_

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace updb {

/// Sorts [first, last) into STR order over `dim` dimensions, starting at
/// dimension `axis`: sort by the centre along `axis`, cut the range into
/// ceil(leaves^(1/dims left)) equal slabs, and tile each slab along the
/// next axis. `center(item, axis)` is the item's centre along `axis`.
/// std::sort is not stable, so items with equal centres come out in an
/// order fixed by the input order alone.
template <class It, class Center>
void StrTileSort(It first, It last, size_t axis, size_t dim, size_t tile,
                 const Center& center) {
  const size_t n = static_cast<size_t>(last - first);
  if (n <= tile) return;
  std::sort(first, last, [&center, axis](const auto& a, const auto& b) {
    return center(a, axis) < center(b, axis);
  });
  if (axis + 1 == dim) return;

  const double tiles =
      std::ceil(static_cast<double>(n) / static_cast<double>(tile));
  const double dims_left = static_cast<double>(dim - axis);
  const size_t slabs = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(std::pow(tiles, 1.0 / dims_left))));
  const size_t slab_size = (n + slabs - 1) / slabs;
  for (size_t s = 0; s < n; s += slab_size) {
    StrTileSort(first + s, first + std::min(s + slab_size, n), axis + 1, dim,
                tile, center);
  }
}

}  // namespace updb

#endif  // UPDB_INDEX_STR_TILING_H_
