// Small-buffer callable for scheduler actions.
//
// std::function<void()> heap-allocates once per scheduled event for any
// capture beyond the library's tiny SBO (two pointers on libstdc++) — on the
// network-side hot path that is one malloc/free pair per cell hop.  SmallFn
// stores captures up to kInlineBytes in place.  That covers every capture
// the co-simulation loop schedules: netsim's delivery lambda
// {Simulation*, ProcessModel*, unsigned, Packet} (128 bytes, the largest),
// the session's response replay {this, TimedMessage} and the entity's
// message delivery {ApplyFn*, TimedMessage} into the RTL kernel (120 bytes
// each), and the process/traffic self-timers {this, int} (16).  So
// steady-state schedule/execute is allocation-free — proven by
// tests/dsim/test_scheduler_alloc.cpp with a counting operator new.
// Oversized or throwing-move captures fall back to a single heap cell with
// identical semantics.
//
// Move-only: the scheduler slab and the kernel's timed heap move entries,
// and a moved-from SmallFn is empty.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace castanet {

class SmallFn {
 public:
  /// Sized to the largest hot-path capture: netsim's packet-delivery
  /// lambda with its inline Packet.
  static constexpr std::size_t kInlineBytes = 128;

  SmallFn() = default;
  SmallFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  SmallFn(SmallFn&& o) noexcept { steal(o); }
  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      reset();
      steal(o);
    }
    return *this;
  }
  SmallFn& operator=(std::nullptr_t) {
    reset();
    return *this;
  }
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  SmallFn& operator=(F&& f) {
    reset();
    emplace(std::forward<F>(f));
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(&buf_); }

  /// True when the wrapped callable lives in the inline buffer (no heap).
  bool is_inline() const { return ops_ != nullptr && ops_->inline_stored; }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    /// Move-constructs dst's payload from src's and destroys src's.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* buf) noexcept;
    bool inline_stored;
  };

  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= kInlineBytes &&
           alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

  template <typename F>
  struct InlineOps {
    static void invoke(void* buf) { (*static_cast<F*>(buf))(); }
    static void relocate(void* dst, void* src) noexcept {
      F* s = static_cast<F*>(src);
      ::new (dst) F(std::move(*s));
      s->~F();
    }
    static void destroy(void* buf) noexcept { static_cast<F*>(buf)->~F(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy, true};
  };

  template <typename F>
  struct HeapOps {
    static F*& ptr(void* buf) { return *static_cast<F**>(buf); }
    static void invoke(void* buf) { (*ptr(buf))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) (F*)(ptr(src));
    }
    static void destroy(void* buf) noexcept { delete ptr(buf); }
    static constexpr Ops ops{&invoke, &relocate, &destroy, false};
  };

  template <typename F>
  void emplace(F&& f) {
    using Decayed = std::decay_t<F>;
    if constexpr (fits_inline<Decayed>()) {
      ::new (&buf_) Decayed(std::forward<F>(f));
      ops_ = &InlineOps<Decayed>::ops;
    } else {
      ::new (&buf_) (Decayed*)(new Decayed(std::forward<F>(f)));
      ops_ = &HeapOps<Decayed>::ops;
    }
  }

  void steal(SmallFn& o) noexcept {
    if (o.ops_ == nullptr) return;
    o.ops_->relocate(&buf_, &o.buf_);
    ops_ = o.ops_;
    o.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(&buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace castanet
