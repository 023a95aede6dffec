// Distance columns stored at one or four bytes per entry.
//
// Every distance array of the index is a column: the vicinity arenas'
// distances (and each staged slice's) and the landmark-table matrices. A
// column whose finite values are all at most kMaxNarrowDistance (254) keeps
// one byte per entry, the byte 255 standing for kInfDistance; any other
// column keeps the four-byte Distance. Unweighted graphs of small diameter
// (the paper's social graphs, whose landmark eccentricities are single
// digits) get byte-wide columns; weighted or long-diameter graphs keep four
// bytes. The width belongs to the whole column, so a kernel dispatches on it
// once per call and its loops stay free of per-entry branches.
//
// The width is chosen from the values whenever a column is built, and a
// write that needs four bytes widens the whole column first (DistColumn::
// set). Nothing ever narrows a column in place; building a new one from
// the values (VicinityStore::pack) does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/types.h"

namespace vicinity::core {

/// The largest finite distance a byte-wide column holds.
inline constexpr Distance kMaxNarrowDistance = 254;
/// The byte a byte-wide column stores for kInfDistance.
inline constexpr std::uint8_t kNarrowInf = 255;

constexpr bool fits_narrow(Distance d) {
  return d <= kMaxNarrowDistance || d == kInfDistance;
}
constexpr Distance from_narrow(std::uint8_t b) {
  return b == kNarrowInf ? kInfDistance : b;
}
/// Requires fits_narrow(d).
constexpr std::uint8_t to_narrow(Distance d) {
  return d == kInfDistance ? kNarrowInf : static_cast<std::uint8_t>(d);
}

/// A read-only view of a distance array at either width.
class DistView {
 public:
  DistView() = default;
  DistView(std::span<const Distance> wide)
      : data_(wide.data()), size_(wide.size()), narrow_(false) {}
  DistView(std::span<const std::uint8_t> narrow)
      : data_(narrow.data()), size_(narrow.size()), narrow_(true) {}

  bool narrow() const { return narrow_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Bytes per entry: 1 or sizeof(Distance).
  std::uint32_t elem_size() const {
    return narrow_ ? 1 : static_cast<std::uint32_t>(sizeof(Distance));
  }
  std::uint64_t bytes() const { return std::uint64_t{size_} * elem_size(); }

  Distance operator[](std::size_t i) const {
    return narrow_ ? from_narrow(narrow_data()[i]) : wide_data()[i];
  }
  DistView subspan(std::size_t offset, std::size_t count) const {
    DistView v = *this;
    v.data_ = narrow_ ? static_cast<const void*>(narrow_data() + offset)
                      : static_cast<const void*>(wide_data() + offset);
    v.size_ = count;
    return v;
  }

  /// The entries as stored; each requires the matching width.
  std::span<const std::uint8_t> narrow_span() const {
    return {narrow_data(), size_};
  }
  std::span<const Distance> wide_span() const { return {wide_data(), size_}; }

  /// fn(narrow_span()) or fn(wide_span()): the one width dispatch of a
  /// kernel call.
  template <typename Fn>
  decltype(auto) visit(Fn&& fn) const {
    return narrow_ ? fn(narrow_span()) : fn(wide_span());
  }

 private:
  const std::uint8_t* narrow_data() const {
    return static_cast<const std::uint8_t*>(data_);
  }
  const Distance* wide_data() const {
    return static_cast<const Distance*>(data_);
  }

  const void* data_ = nullptr;
  std::size_t size_ = 0;
  bool narrow_ = true;
};

/// A stored entry decoded to a Distance (the kernels' per-width read).
constexpr Distance decode(Distance d) { return d; }
constexpr Distance decode(std::uint8_t b) { return from_narrow(b); }

/// True when every value of `v` fits a byte-wide column.
bool fits_narrow(DistView v);

/// A distance column that owns its entries or borrows them from external
/// storage (a mapped index section). Move-only: the view aliases the owned
/// vectors, whose buffers a move carries along.
class DistColumn {
 public:
  DistColumn() = default;
  /// Owns `values`, one byte per entry when every value fits.
  explicit DistColumn(std::vector<Distance> values);
  /// Owns `n` entries of kInfDistance at the given width.
  explicit DistColumn(std::size_t n, bool narrow);
  /// Owns a copy of `v`, at v's width.
  static DistColumn copy_of(DistView v);
  /// Reads `v` in place; the caller keeps its storage alive.
  static DistColumn borrow(DistView v);

  DistColumn(DistColumn&& other) noexcept;
  DistColumn& operator=(DistColumn&& other) noexcept;
  DistColumn(const DistColumn&) = delete;
  DistColumn& operator=(const DistColumn&) = delete;

  DistView view() const { return view_; }
  bool narrow() const { return view_.narrow(); }
  std::size_t size() const { return view_.size(); }
  Distance operator[](std::size_t i) const { return view_[i]; }

  /// Writes entry i, first widening the whole column when d needs four
  /// bytes. Owned columns only. Writes to distinct entries that need no
  /// widening may run concurrently.
  void set(std::size_t i, Distance d) {
    require_owned();
    if (narrow()) {
      if (fits_narrow(d)) {
        narrow_[i] = to_narrow(d);
        return;
      }
      widen();
    }
    wide_[i] = d;
  }
  /// std::rotate of the entries [first, last) around middle. Owned only.
  void rotate(std::size_t first, std::size_t middle, std::size_t last);
  /// Appends `v`'s values at this column's width (a byte-wide column
  /// requires fits_narrow(v)). Owned only.
  void append(DistView v);
  void reserve(std::size_t n);
  /// Copies a borrowed column into owned storage at the same width.
  void materialize();

  /// Heap bytes of the owned storage (0 when borrowed).
  std::uint64_t heap_bytes() const;
  /// Bytes read from borrowed storage (0 when owned).
  std::uint64_t borrowed_bytes() const {
    return borrowed_ ? view_.bytes() : 0;
  }

 private:
  void widen();
  void require_owned() const {
    if (borrowed_) throw_borrowed();
  }
  [[noreturn]] static void throw_borrowed();
  /// Re-points view_ at whichever owned vector holds the entries.
  void own_view(bool narrow);

  std::vector<std::uint8_t> narrow_;
  std::vector<Distance> wide_;
  DistView view_;
  bool borrowed_ = false;
};

/// A writable window of an owned column starting at `offset` — one
/// landmark row. Every access goes through the column, so a write that
/// widens it is seen by every later read.
class DistRow {
 public:
  DistRow(DistColumn& col, std::size_t offset) : col_(&col), offset_(offset) {}
  Distance operator[](std::size_t i) const { return (*col_)[offset_ + i]; }
  void set(std::size_t i, Distance d) const { col_->set(offset_ + i, d); }

 private:
  DistColumn* col_;
  std::size_t offset_;
};

}  // namespace vicinity::core
