// Fixed-capacity vector with inline storage.
//
// The hot paths of the simulator manipulate tiny collections whose size is
// bounded by the node degree (at most 2d packets or arcs per node, d ≤ 8 in
// practice). InlineVector keeps them on the stack with zero allocation.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <type_traits>

#include "util/check.hpp"

namespace hp {

/// A contiguous sequence of plain values with capacity fixed at compile
/// time and size tracked at run time. T must be trivially copyable: the
/// container copies as bytes, never destroys an element, and clear() is
/// one store. Exceeding capacity is a checked error (throws
/// hp::CheckError).
template <typename T, std::size_t N>
class InlineVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "InlineVector holds trivially copyable values only");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  InlineVector() = default;

  InlineVector(std::initializer_list<T> items) {
    HP_REQUIRE(items.size() <= N, "InlineVector initializer too long");
    for (const T& item : items) push_back(item);
  }

  static constexpr std::size_t capacity() { return N; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == N; }

  T* data() { return reinterpret_cast<T*>(storage_.data()); }
  const T* data() const { return reinterpret_cast<const T*>(storage_.data()); }

  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }

  T& operator[](std::size_t i) {
    HP_CHECK(i < size_, "InlineVector index out of range");
    return data()[i];
  }
  const T& operator[](std::size_t i) const {
    HP_CHECK(i < size_, "InlineVector index out of range");
    return data()[i];
  }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(const T& value) {
    HP_CHECK(size_ < N, "InlineVector overflow");
    ::new (static_cast<void*>(data() + size_)) T(value);
    ++size_;
  }

  void pop_back() {
    HP_CHECK(size_ > 0, "pop_back on empty InlineVector");
    --size_;
  }

  /// Removes the element at index i, preserving order of the rest.
  void erase_at(std::size_t i) {
    HP_CHECK(i < size_, "erase_at out of range");
    std::copy(begin() + i + 1, end(), begin() + i);
    --size_;
  }

  void clear() { size_ = 0; }

  bool contains(const T& value) const {
    return std::find(begin(), end(), value) != end();
  }

  friend bool operator==(const InlineVector& a, const InlineVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  alignas(T) std::array<std::byte, sizeof(T) * N> storage_;
  std::uint32_t size_ = 0;
};

}  // namespace hp
