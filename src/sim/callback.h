// Move-only `void()` callable with inline capture storage.
//
// Every simulated event and every CPU job carries one closure. With
// std::function, any capture larger than its 16-byte small buffer cost a
// heap allocation per event; InlineCallback keeps captures of up to
// kInlineBytes inside the object, which covers the hot ones (a network
// delivery, a CPU job's completion slot, a VSCC job). Larger captures, or
// ones that are over-aligned or may throw on move, still work: they are
// moved to the heap, one allocation each, as std::function would.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace fabricsim::sim {

class InlineCallback {
 public:
  /// Captures up to this size (pointer-aligned, nothrow-movable) are stored
  /// inline, as every hot closure is (Committer::StartVscc's is 40 bytes).
  static constexpr std::size_t kInlineBytes = 48;

  /// True if a callable of type F is stored without allocating.
  template <typename F>
  static constexpr bool kStoredInline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

  InlineCallback() noexcept = default;
  InlineCallback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (std::is_constructible_v<bool, const D&>) {
      if (!static_cast<bool>(f)) return;  // empty std::function / null pointer
    }
    if constexpr (kStoredInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineCallback(InlineCallback&& other) noexcept { Take(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      Take(other);
    }
    return *this;
  }
  InlineCallback& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { Reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Calls the target; the callback must not be empty.
  void operator()() { ops_->invoke(storage_); }

  /// Destroys the target (releasing its captures) and leaves this empty.
  void Reset() noexcept {
    if (ops_ != nullptr) {
      const Ops* ops = ops_;
      ops_ = nullptr;
      ops->destroy(storage_);
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs the target into `to` and destroys it in `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* s) { (*static_cast<D*>(s))(); },
      [](void* from, void* to) noexcept {
        D* src = static_cast<D*>(from);
        ::new (to) D(std::move(*src));
        src->~D();
      },
      [](void* s) noexcept { static_cast<D*>(s)->~D(); }};

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* s) { (**static_cast<D**>(s))(); },
      [](void* from, void* to) noexcept {
        ::new (to) D*(*static_cast<D**>(from));
      },
      [](void* s) noexcept { delete *static_cast<D**>(s); }};

  void Take(InlineCallback& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(other.storage_, storage_);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  alignas(void*) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace fabricsim::sim
