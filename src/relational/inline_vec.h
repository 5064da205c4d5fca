// Small-buffer vector for Tuple payloads. The first kInline elements live
// inside the object itself, so a Tuple's values and row ids sit in one
// contiguous allocation with the enclosing std::vector<Tuple> -- a row-major
// layout the kernels' key and predicate reads scan without pointer
// chasing, and an output path (join concat, outer-join padding, select
// copy) that performs zero heap allocations for rows within the inline
// capacity (Tuple picks it). Wider payloads fall back to a heap array
// transparently.
//
// Supports the std::vector subset the engine uses on Tuple members:
// size/empty/data/begin/end/operator[]/front/back, push_back/emplace_back,
// reserve, resize, assign, clear, and append-at-end insert. Elements must
// be nothrow-movable (Value and RowId are), which keeps the move
// constructor noexcept and lets std::vector<Tuple> relocate with moves.
#ifndef GSOPT_RELATIONAL_INLINE_VEC_H_
#define GSOPT_RELATIONAL_INLINE_VEC_H_

#include <cassert>
#include <cstdint>
#include <cstddef>
#include <new>
#include <utility>
#include <vector>

namespace gsopt {

template <typename T, size_t kInline>
class InlineVec {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  InlineVec() = default;
  InlineVec(const InlineVec& o) {
    reserve(o.size_);
    AppendCopy(o.data(), o.size_);
  }
  InlineVec(InlineVec&& o) noexcept { StealFrom(std::move(o)); }
  // Converting constructors keep Tuple{values, vids} call sites that build
  // payloads in std::vector working unchanged.
  InlineVec(std::vector<T> v) {
    reserve(v.size());
    AppendMove(v.data(), v.size());
  }
  ~InlineVec() {
    DestroyElements();
    FreeHeap();
  }

  InlineVec& operator=(const InlineVec& o) {
    if (this == &o) return *this;
    clear();
    reserve(o.size_);
    AppendCopy(o.data(), o.size_);
    return *this;
  }
  InlineVec& operator=(InlineVec&& o) noexcept {
    if (this == &o) return *this;
    DestroyElements();
    FreeHeap();
    heap_ = nullptr;
    cap_ = kInline;
    StealFrom(std::move(o));
    return *this;
  }
  InlineVec& operator=(std::vector<T> v) {
    clear();
    reserve(v.size());
    AppendMove(v.data(), v.size());
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* data() { return heap_ != nullptr ? heap_ : InlineData(); }
  const T* data() const { return heap_ != nullptr ? heap_ : InlineData(); }
  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }
  T& front() { return data()[0]; }
  const T& front() const { return data()[0]; }
  T& back() { return data()[size_ - 1]; }
  const T& back() const { return data()[size_ - 1]; }

  friend bool operator==(const InlineVec& a, const InlineVec& b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }
  friend bool operator!=(const InlineVec& a, const InlineVec& b) {
    return !(a == b);
  }

  void clear() {
    DestroyElements();
    size_ = 0;
  }

  void reserve(size_t n) {
    if (n > cap_) Grow(static_cast<uint32_t>(n));
  }

  void push_back(const T& v) {
    EnsureRoom();
    ::new (static_cast<void*>(data() + size_)) T(v);
    ++size_;
  }
  void push_back(T&& v) {
    EnsureRoom();
    ::new (static_cast<void*>(data() + size_)) T(std::move(v));
    ++size_;
  }
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    EnsureRoom();
    T* p = ::new (static_cast<void*>(data() + size_))
        T(std::forward<Args>(args)...);
    ++size_;
    return *p;
  }

  void resize(size_t n) { resize(n, T()); }
  void resize(size_t n, const T& fill) {
    if (n < size_) {
      T* d = data();
      for (size_t i = n; i < size_; ++i) d[i].~T();
      size_ = static_cast<uint32_t>(n);
      return;
    }
    reserve(n);
    T* d = data();
    while (size_ < n) {
      ::new (static_cast<void*>(d + size_)) T(fill);
      ++size_;
    }
  }

  void assign(size_t n, const T& fill) {
    clear();
    reserve(n);
    T* d = data();
    for (; size_ < n; ++size_) ::new (static_cast<void*>(d + size_)) T(fill);
  }
  template <typename It>
  void assign(It first, It last) {
    clear();
    reserve(static_cast<size_t>(last - first));
    for (; first != last; ++first) push_back(*first);
  }

  // Append-at-end insert, the only form Tuple code uses (Concat, spill
  // reload, projection). Inserting in the middle is not supported.
  template <typename It>
  iterator insert(const_iterator pos, It first, It last) {
    assert(pos == end());
    (void)pos;
    size_t at = size_;
    reserve(size_ + static_cast<size_t>(last - first));
    T* d = data();
    for (; first != last; ++first) {
      ::new (static_cast<void*>(d + size_)) T(*first);
      ++size_;
    }
    return d + at;
  }

 private:
  T* InlineData() { return reinterpret_cast<T*>(inline_); }
  const T* InlineData() const { return reinterpret_cast<const T*>(inline_); }

  void EnsureRoom() {
    if (size_ == cap_) Grow(size_ + 1);
  }

  void Grow(uint32_t need) {
    uint32_t cap = cap_ * 2;
    if (cap < need) cap = need;
    T* fresh = static_cast<T*>(::operator new(cap * sizeof(T)));
    T* old = data();
    for (size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(fresh + i)) T(std::move(old[i]));
      old[i].~T();
    }
    FreeHeap();
    heap_ = fresh;
    cap_ = cap;
  }

  void AppendCopy(const T* src, size_t n) {
    T* d = data();
    for (size_t i = 0; i < n; ++i) {
      ::new (static_cast<void*>(d + size_)) T(src[i]);
      ++size_;
    }
  }
  void AppendMove(T* src, size_t n) {
    T* d = data();
    for (size_t i = 0; i < n; ++i) {
      ::new (static_cast<void*>(d + size_)) T(std::move(src[i]));
      ++size_;
    }
  }

  // Precondition: *this is empty with inline capacity (fresh or just
  // destroyed). Heap buffers are stolen; inline payloads move per element.
  void StealFrom(InlineVec&& o) noexcept {
    if (o.heap_ != nullptr) {
      heap_ = o.heap_;
      cap_ = o.cap_;
      size_ = o.size_;
      o.heap_ = nullptr;
      o.cap_ = kInline;
      o.size_ = 0;
      return;
    }
    T* src = o.InlineData();
    T* d = InlineData();
    size_ = o.size_;
    for (size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(d + i)) T(std::move(src[i]));
      src[i].~T();
    }
    o.size_ = 0;
  }

  void DestroyElements() {
    T* d = data();
    for (size_t i = 0; i < size_; ++i) d[i].~T();
  }
  void FreeHeap() {
    if (heap_ != nullptr) ::operator delete(heap_);
    heap_ = nullptr;
  }

  // 32-bit header keeps sizeof(InlineVec) tight; tuple payloads are
  // bounded far below 2^32 elements (spill framing caps them at 65535).
  uint32_t size_ = 0;
  uint32_t cap_ = kInline;
  T* heap_ = nullptr;
  alignas(T) unsigned char inline_[kInline * sizeof(T)];
};

}  // namespace gsopt

#endif  // GSOPT_RELATIONAL_INLINE_VEC_H_
