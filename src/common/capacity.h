// Copyright 2026 The updb Authors.
// Capacity helper for double-buffered scratch that is reused across runs.

#ifndef UPDB_COMMON_CAPACITY_H_
#define UPDB_COMMON_CAPACITY_H_

#include <algorithm>
#include <vector>

namespace updb {

/// Grows both vectors to the larger capacity of the two. Two buffers that
/// trade roles by swap end a run with the larger level in whichever one
/// the run's parity left it; equalized, the next run's replay of any size
/// reached before allocates nothing, whatever its parity.
template <class T>
void EqualizeCapacity(std::vector<T>& a, std::vector<T>& b) {
  const size_t cap = std::max(a.capacity(), b.capacity());
  a.reserve(cap);
  b.reserve(cap);
}

}  // namespace updb

#endif  // UPDB_COMMON_CAPACITY_H_
