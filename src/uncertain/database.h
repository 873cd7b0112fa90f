// Copyright 2026 The updb Authors.

#ifndef UPDB_UNCERTAIN_DATABASE_H_
#define UPDB_UNCERTAIN_DATABASE_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "uncertain/object.h"

namespace updb {

/// An in-memory collection of uncertain objects with dense ids 0..N-1.
/// All objects must share one dimensionality. Besides the objects it keeps
/// every uncertainty region in one flat array, object i's d sides at
/// [i * d, (i + 1) * d), which is what the IDCA filter scans.
class UncertainDatabase {
 public:
  UncertainDatabase() = default;

  /// Adds an object PDF with optional existential probability; the object
  /// receives the next dense id, which is returned. The first insertion
  /// fixes the database dimensionality.
  ObjectId Add(std::shared_ptr<const Pdf> pdf, double existence = 1.0) {
    UPDB_CHECK(pdf != nullptr);
    if (objects_.empty()) {
      dim_ = pdf->bounds().dim();
      mbr_boxes_.reserve(objects_.capacity() * dim_);
    } else {
      UPDB_CHECK(pdf->bounds().dim() == dim_);
    }
    ObjectId id = static_cast<ObjectId>(objects_.size());
    const std::span<const Interval> sides = pdf->bounds().sides();
    mbr_boxes_.insert(mbr_boxes_.end(), sides.begin(), sides.end());
    objects_.emplace_back(id, std::move(pdf), existence);
    return id;
  }

  /// Reserves room for `n` objects. Called before the first Add, it lets a
  /// database built to a known size allocate each of its arrays once (the
  /// store materializes one per published snapshot).
  void Reserve(size_t n) { objects_.reserve(n); }

  size_t size() const { return objects_.size(); }
  bool empty() const { return objects_.empty(); }

  /// Dimensionality; requires a non-empty database.
  size_t dim() const {
    UPDB_CHECK(!objects_.empty());
    return dim_;
  }

  const UncertainObject& object(ObjectId id) const {
    UPDB_CHECK(id < objects_.size());
    return objects_[id];
  }

  const std::vector<UncertainObject>& objects() const { return objects_; }

  /// Uncertainty region of object `id` — the sides of object(id).mbr().
  std::span<const Interval> mbr_box(ObjectId id) const {
    UPDB_DCHECK(id < objects_.size());
    return {mbr_boxes_.data() + id * dim_, dim_};
  }

 private:
  std::vector<UncertainObject> objects_;
  std::vector<Interval> mbr_boxes_;  // object i at [i * dim_, (i+1) * dim_)
  size_t dim_ = 0;
};

}  // namespace updb

#endif  // UPDB_UNCERTAIN_DATABASE_H_
