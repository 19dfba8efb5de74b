// coopcr/sim/inline_fn.hpp
//
// Small-buffer, move-only callable — the engine's replacement for
// std::function on the event hot path.
//
// Every event the simulator schedules binds a member function to a handful
// of scalars ([this], [this, jid], [this, jid, target], ...), so the
// capture state is a few dozen bytes. std::function heap-allocates such
// captures (libstdc++'s inline buffer is two words) and is copyable, which
// forces every stored callback to be copy-constructible. InlineFunction
// stores captures up to `Capacity` bytes inline — zero allocation on the
// steady-state path — and is move-only, so callbacks are moved, never
// duplicated; emplace() builds one in place. A trivially copyable capture
// (every simulator lambda) has no manager: relocation is a memcpy,
// destruction a no-op. Callables larger than `Capacity` (or with throwing
// moves) fall back to one heap box, preserving drop-in compatibility for
// tests and user code.

#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

namespace coopcr::sim {

template <typename Signature, std::size_t Capacity = 48>
class InlineFunction;  // undefined — only the R(Args...) partial below exists

/// Move-only callable with `Capacity` bytes of inline storage.
template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  /// Wrap any callable invocable as R(Args...). Small nothrow-movable
  /// callables live inline; everything else goes into one heap box.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& fn) {  // NOLINT(runtime/explicit)
    construct(std::forward<F>(fn));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      destroy();
      move_from(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    destroy();
    return *this;
  }

  /// Replace the callable with `fn`, constructed in place (an InlineFunction
  /// is moved in as is).
  template <typename F>
  void emplace(F&& fn) {
    if constexpr (std::is_same_v<std::decay_t<F>, InlineFunction>) {
      *this = std::forward<F>(fn);
    } else {
      destroy();
      construct(std::forward<F>(fn));
    }
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { destroy(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

  /// Max capture size stored without allocation (for tests/docs).
  static constexpr std::size_t inline_capacity() { return Capacity; }

 private:
  enum class Op { kRelocate, kDestroy };

  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= Capacity &&
           alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

  template <typename F>
  void construct(F&& fn) {
    using Decayed = std::decay_t<F>;
    if constexpr (fits_inline<Decayed>()) {
      ::new (static_cast<void*>(storage_)) Decayed(std::forward<F>(fn));
      invoke_ = &InlineOps<Decayed>::invoke;
      manage_ = std::is_trivially_copyable_v<Decayed>
                    ? nullptr
                    : &InlineOps<Decayed>::manage;
    } else {
      ::new (static_cast<void*>(storage_))
          Decayed*(new Decayed(std::forward<F>(fn)));
      invoke_ = &BoxedOps<Decayed>::invoke;
      manage_ = &BoxedOps<Decayed>::manage;
    }
  }

  template <typename F>
  struct InlineOps {
    static R invoke(void* self, Args&&... args) {
      return (*static_cast<F*>(self))(std::forward<Args>(args)...);
    }
    static void manage(Op op, void* self, void* other) noexcept {
      F* fn = static_cast<F*>(self);
      if (op == Op::kRelocate) ::new (other) F(std::move(*fn));
      fn->~F();
    }
  };

  template <typename F>
  struct BoxedOps {
    static R invoke(void* self, Args&&... args) {
      return (**static_cast<F**>(self))(std::forward<Args>(args)...);
    }
    static void manage(Op op, void* self, void* other) noexcept {
      F** box = static_cast<F**>(self);
      if (op == Op::kRelocate) {
        *static_cast<F**>(other) = *box;  // steal the box pointer
      } else {
        delete *box;
      }
    }
  };

  void move_from(InlineFunction& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_ != nullptr) {
      manage_(Op::kRelocate, other.storage_, storage_);
    } else if (invoke_ != nullptr) {
      std::memcpy(storage_, other.storage_, Capacity);
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void destroy() noexcept {
    if (manage_ != nullptr) manage_(Op::kDestroy, storage_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[Capacity];
  R (*invoke_)(void*, Args&&...) = nullptr;
  void (*manage_)(Op, void*, void*) noexcept = nullptr;
};

}  // namespace coopcr::sim
