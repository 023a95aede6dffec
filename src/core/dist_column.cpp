#include "core/dist_column.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace vicinity::core {

bool fits_narrow(DistView v) {
  if (v.narrow()) return true;
  return std::ranges::all_of(v.wide_span(),
                             [](Distance d) { return fits_narrow(d); });
}

DistColumn::DistColumn(std::vector<Distance> values) {
  if (fits_narrow(DistView(values))) {
    narrow_.resize(values.size());
    std::ranges::transform(values, narrow_.begin(),
                           [](Distance d) { return to_narrow(d); });
    own_view(true);
  } else {
    wide_ = std::move(values);
    own_view(false);
  }
}

DistColumn::DistColumn(std::size_t n, bool narrow) {
  if (narrow) {
    narrow_.assign(n, kNarrowInf);
  } else {
    wide_.assign(n, kInfDistance);
  }
  own_view(narrow);
}

DistColumn DistColumn::copy_of(DistView v) {
  DistColumn c(0, v.narrow());
  c.append(v);
  return c;
}

DistColumn DistColumn::borrow(DistView v) {
  DistColumn c;
  c.view_ = v;
  c.borrowed_ = true;
  return c;
}

DistColumn::DistColumn(DistColumn&& other) noexcept
    : narrow_(std::move(other.narrow_)),
      wide_(std::move(other.wide_)),
      view_(std::exchange(other.view_, DistView{})),
      borrowed_(std::exchange(other.borrowed_, false)) {}

DistColumn& DistColumn::operator=(DistColumn&& other) noexcept {
  narrow_ = std::move(other.narrow_);
  wide_ = std::move(other.wide_);
  view_ = std::exchange(other.view_, DistView{});
  borrowed_ = std::exchange(other.borrowed_, false);
  other.narrow_.clear();
  other.wide_.clear();
  return *this;
}

void DistColumn::throw_borrowed() {
  throw std::logic_error("DistColumn: mutating borrowed storage");
}

void DistColumn::own_view(bool narrow) {
  view_ = narrow ? DistView(std::span<const std::uint8_t>(narrow_))
                 : DistView(std::span<const Distance>(wide_));
}

void DistColumn::widen() {
  require_owned();
  wide_.resize(narrow_.size());
  std::ranges::transform(narrow_, wide_.begin(),
                         [](std::uint8_t b) { return from_narrow(b); });
  std::vector<std::uint8_t>().swap(narrow_);
  own_view(false);
}

void DistColumn::rotate(std::size_t first, std::size_t middle,
                        std::size_t last) {
  require_owned();
  if (narrow()) {
    std::rotate(narrow_.begin() + first, narrow_.begin() + middle,
                narrow_.begin() + last);
  } else {
    std::rotate(wide_.begin() + first, wide_.begin() + middle,
                wide_.begin() + last);
  }
}

void DistColumn::append(DistView v) {
  require_owned();
  if (narrow()) {
    if (v.narrow()) {
      narrow_.insert(narrow_.end(), v.narrow_span().begin(),
                     v.narrow_span().end());
    } else {
      for (const Distance d : v.wide_span()) {
        if (!fits_narrow(d)) {
          throw std::logic_error("DistColumn: value too wide to append");
        }
        narrow_.push_back(to_narrow(d));
      }
    }
    own_view(true);
    return;
  }
  v.visit([&](auto src) {
    for (const auto e : src) wide_.push_back(decode(e));
  });
  own_view(false);
}

void DistColumn::reserve(std::size_t n) {
  require_owned();
  if (narrow()) {
    narrow_.reserve(n);
  } else {
    wide_.reserve(n);
  }
  own_view(narrow());
}

void DistColumn::materialize() {
  if (!borrowed_) return;
  *this = copy_of(view_);
}

std::uint64_t DistColumn::heap_bytes() const {
  return narrow_.capacity() + wide_.capacity() * sizeof(Distance);
}

}  // namespace vicinity::core
