// Shared helper of the UGF suites (ugf_test, gf_stress_test, property_test,
// ugf_alloc_test): a UgfBatch begun with one active lane is the library's
// single-sequence UGF. These wrappers keep single-sequence call sites as
// short as the algebra they check.

#ifndef UPDB_TESTS_SINGLE_LANE_UGF_H_
#define UPDB_TESTS_SINGLE_LANE_UGF_H_

#include <cstddef>

#include "gf/count_bounds.h"
#include "gf/ugf_batch.h"

namespace updb {
namespace test_util {

/// A one-lane UGF truncated at `k` (default: the full expansion).
inline UgfBatch SingleLaneUgf(size_t k = UgfBatch::kNoTruncation) {
  UgfBatch ugf;
  ugf.Begin(k, 1);
  return ugf;
}

/// Multiplies the factor [lb, ub] into lane 0.
inline void Multiply(UgfBatch& ugf, double lb, double ub) {
  ugf.MultiplyFactors(&lb, &ub);
}

/// Lane 0's bounds on P(Count < m).
inline ProbabilityBounds ProbLessThan(const UgfBatch& ugf, size_t m) {
  ProbabilityBounds out[UgfBatch::kLanes];
  ugf.ProbLessThanAll(m, out);
  return out[0];
}

}  // namespace test_util
}  // namespace updb

#endif  // UPDB_TESTS_SINGLE_LANE_UGF_H_
