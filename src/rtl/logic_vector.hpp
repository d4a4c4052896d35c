// std_logic_vector equivalent.
//
// Bit order follows the VHDL "DOWNTO" convention used throughout the paper
// (e.g. `atmdata : STD_LOGIC_VECTOR(7 DOWNTO 0)`, Fig. 4): index 0 is the
// least-significant bit.
//
// Storage is *packed*: instead of one byte per std_logic value, the vector
// keeps four bit-planes of the 4-bit IEEE 1164 code (U=0, X=1, '0'=2, '1'=3,
// Z=4, W=5, L=6, H=7, '-'=8) in 64-bit words.  The encoding is chosen so
// that the two planes the kernel touches on every transaction have direct
// meaning:
//
//   plane 0 — the *value* bit ('1'/'H' have it set, '0'/'L' clear),
//   plane 1 — the *known* bit (set exactly for '0','1','L','H' — the codes
//             with a defined boolean value),
//
// while planes 2 and 3 only distinguish the rare U/X/Z/W/-/weak cases.  A
// fully two-valued vector therefore answers to_uint(), is_defined() and
// operator== with a handful of word operations, and the table-driven
// nine-valued resolution in logic.cpp is needed only when some driver
// actually carries U/X/Z/W/H/L/-.
//
// Widths <= 64 (every scalar and most buses) live entirely in a small
// in-object buffer; wider vectors (e.g. the 424-bit cell bus) allocate one
// contiguous block of 4*ceil(width/64) words.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "src/core/error.hpp"
#include "src/rtl/logic.hpp"

namespace castanet::rtl {

class LogicVector {
 public:
  LogicVector() = default;
  /// `width` bits, all set to `fill`.
  explicit LogicVector(std::size_t width, Logic fill = Logic::U);
  /// From a literal like "10ZX" — leftmost character is the MSB, as in VHDL.
  static LogicVector from_string(const std::string& s);
  /// Low `width` bits of `value`, bit 0 = LSB.  Inline: every staged
  /// Bus::write_uint builds one.
  static LogicVector from_uint(std::uint64_t value, std::size_t width) {
    require(width <= 64, "LogicVector::from_uint: width > 64");
    LogicVector v;
    v.width_ = width;
    if (width != 0) {
      v.sbo_[0] = value & v.tail_mask();  // value plane
      v.sbo_[1] = v.tail_mask();          // every bit a strong '0'/'1'
    }
    return v;
  }

  LogicVector(const LogicVector& o);
  LogicVector& operator=(const LogicVector& o);
  LogicVector(LogicVector&& o) noexcept
      : width_(o.width_), sbo_(o.sbo_), heap_(std::move(o.heap_)) {
    o.width_ = 0;
    o.sbo_.fill(0);
  }
  LogicVector& operator=(LogicVector&& o) noexcept {
    if (this == &o) return *this;
    width_ = o.width_;
    sbo_ = o.sbo_;
    heap_ = std::move(o.heap_);
    o.width_ = 0;
    o.sbo_.fill(0);
    return *this;
  }
  ~LogicVector() = default;

  std::size_t width() const { return width_; }
  bool empty() const { return width_ == 0; }

  /// i = 0 is the LSB.  Inline: a read_bool()-heavy module activation is a
  /// handful of these, so the call must compile down to four masked loads.
  Logic bit(std::size_t i) const {
    require(i < width_, "LogicVector::bit: index out of range");
    const std::size_t w = i / 64, b = i % 64;
    std::uint8_t code = 0;
    for (std::size_t p = 0; p < kPlanes; ++p) {
      code |= static_cast<std::uint8_t>((plane(p)[w] >> b) & 1) << p;
    }
    return static_cast<Logic>(code);
  }
  void set_bit(std::size_t i, Logic v) {
    require(i < width_, "LogicVector::set_bit: index out of range");
    const std::size_t w = i / 64, b = i % 64;
    const auto code = static_cast<std::uint8_t>(v);
    const std::uint64_t m = std::uint64_t{1} << b;
    for (std::size_t p = 0; p < kPlanes; ++p) {
      std::uint64_t* pl = plane(p);
      pl[w] = ((code >> p) & 1) != 0 ? (pl[w] | m) : (pl[w] & ~m);
    }
  }

  /// Interprets '1'/'H' as 1 and '0'/'L' as 0.  Throws LogicError if any bit
  /// lacks a defined boolean value (X/U/Z/W/-) — X-propagation must be
  /// handled explicitly by the caller.
  std::uint64_t to_uint() const {
    require(width_ <= 64, "LogicVector::to_uint: width > 64");
    if (width_ != 0 && sbo_[1] != tail_mask()) [[unlikely]] {
      throw_undefined_bit();
    }
    return sbo_[0];
  }

  /// Value-plane word `w`: bit i of the result is set iff bit 64*w+i of the
  /// vector is '1' or 'H'.  Only meaningful when the word is known defined
  /// (see is_defined()/all_known_strong()); undefined bits read as 0.
  std::uint64_t value_word(std::size_t w) const {
    require(w < words(), "LogicVector::value_word: word out of range");
    return plane(0)[w];
  }
  /// to_bool() of word `w`'s bits: bit i of the result is set iff bit
  /// 64*w+i of the vector is '1' or 'H' (value plane AND known plane), so
  /// an undefined bit reads as 0 instead of throwing as to_uint() does.
  std::uint64_t bool_word(std::size_t w) const {
    require(w < words(), "LogicVector::bool_word: word out of range");
    return plane(0)[w] & plane(1)[w];
  }
  /// Overwrites bits [64*w, 64*w+64) — clipped to the vector width — with
  /// strong '0'/'1' per `bits`.  The word-at-a-time dual of from_uint() for
  /// wide buses (e.g. loading the 424-bit cell bus in 7 stores per plane).
  void set_value_word(std::size_t w, std::uint64_t bits) {
    require(w < words(), "LogicVector::set_value_word: word out of range");
    const std::uint64_t m =
        (w + 1 == words()) ? tail_mask() : ~std::uint64_t{0};
    plane(0)[w] = bits & m;
    plane(1)[w] = m;
    plane(2)[w] = 0;
    plane(3)[w] = 0;
  }
  /// True when every bit is 0/1/L/H.
  bool is_defined() const;
  /// True if any bit is U or X.
  bool has_unknown() const;

  /// True when every bit is a strong '0' or '1' — the domain of the
  /// vectorized resolve fast path.  Excludes the weak L/H levels (they have
  /// a defined boolean value but resolve differently) and everything
  /// unknown/high-impedance.
  bool all_known_strong() const;

  /// Bits [lo, lo+len) as a new vector.
  LogicVector slice(std::size_t lo, std::size_t len) const;
  /// Overwrites bits [lo, lo+v.width()) with v.
  void set_slice(std::size_t lo, const LogicVector& v);

  /// MSB-first string, as in a VHDL waveform viewer.
  std::string to_string() const;

  /// Whole-word compare; the inline words are compared one by one, since
  /// std::array's operator== on them is a libc memcmp call (DESIGN.md §7.1).
  bool operator==(const LogicVector& o) const {
    if (width_ != o.width_) return false;
    if (inlined()) {
      return ((sbo_[0] ^ o.sbo_[0]) | (sbo_[1] ^ o.sbo_[1]) |
              (sbo_[2] ^ o.sbo_[2]) | (sbo_[3] ^ o.sbo_[3])) == 0;
    }
    return heap_equal(o);
  }
  bool operator!=(const LogicVector& o) const { return !(*this == o); }
  /// True when this equals scalar(v) — the kernel's scalar write-elision
  /// check, made without building the vector.
  bool equals_scalar(Logic v) const {
    const auto code = static_cast<std::uint64_t>(v);
    return width_ == 1 && sbo_[0] == (code & 1) &&
           sbo_[1] == ((code >> 1) & 1) && sbo_[2] == ((code >> 2) & 1) &&
           sbo_[3] == (code >> 3);
  }
  /// Makes this width-1 vector equal scalar(v) in place, one store per
  /// plane.  A clock edge writes its level with it: assigning scalar(v)
  /// instead reads the temporary's four word stores back as two wider loads,
  /// which the store buffer cannot forward (DESIGN.md §7.2).
  void set_scalar(Logic v) {
    require(width_ == 1, "LogicVector::set_scalar: width is not 1");
    const auto code = static_cast<std::uint64_t>(v);
    for (std::size_t p = 0; p < kPlanes; ++p) sbo_[p] = (code >> p) & 1;
  }
  /// True when this equals from_uint(value, width()) — every bit a strong
  /// '0'/'1' matching `value` — without building the vector.
  bool equals_uint(std::uint64_t value) const {
    return width_ <= 64 && sbo_[1] == tail_mask() && sbo_[2] == 0 &&
           sbo_[3] == 0 && sbo_[0] == (value & tail_mask());
  }

  /// In-place element-wise resolution: *this := resolve(*this, o), never
  /// allocating.  The kernel's multi-driver commit folds every contribution
  /// through this — word-at-a-time over the bit-planes when both operands
  /// are all_known_strong(), per-bit IEEE 1164 table lookups gathered into
  /// masked word writes otherwise.
  void resolve_with(const LogicVector& o);

  /// O(1) content swap; the kernel uses it to recycle plane buffers between
  /// a signal's effective and previous values.
  void swap(LogicVector& o) noexcept;

  /// Element-wise resolution of two equal-width vectors.
  friend LogicVector resolve(const LogicVector& a, const LogicVector& b);
  friend LogicVector scalar(Logic v);

 private:
  static constexpr std::size_t kPlanes = 4;

  std::size_t words() const { return (width_ + 63) / 64; }
  bool inlined() const { return width_ <= 64; }
  /// Start of bit-plane `p` (stride words() in heap mode, 1 word inline).
  std::uint64_t* plane(std::size_t p) {
    return inlined() ? &sbo_[p] : heap_.get() + p * words();
  }
  const std::uint64_t* plane(std::size_t p) const {
    return inlined() ? &sbo_[p] : heap_.get() + p * words();
  }
  /// In-width mask for the last (possibly partial) word.
  std::uint64_t tail_mask() const {
    const std::size_t r = width_ % 64;
    return r == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << r) - 1;
  }
  void allocate(std::size_t width);
  /// operator== for two heap-mode vectors of equal width.
  bool heap_equal(const LogicVector& o) const;
  /// Cold half of to_uint(): finds the offending bit for the diagnostic.
  [[noreturn]] void throw_undefined_bit() const;

  std::size_t width_ = 0;
  // Invariant: bits at positions >= width_ are zero in every plane, so
  // whole-word comparisons implement operator==.
  std::array<std::uint64_t, kPlanes> sbo_{};          // used when width <= 64
  std::unique_ptr<std::uint64_t[]> heap_;             // used when width > 64
};

/// A width-1 vector holding `v` (scalars travel as 1-bit vectors through the
/// kernel so there is a single transaction type).  Inline, one word per
/// plane: every staged scalar write builds one.
inline LogicVector scalar(Logic v) {
  LogicVector out;
  out.width_ = 1;
  const auto code = static_cast<std::uint64_t>(v);
  for (std::size_t p = 0; p < LogicVector::kPlanes; ++p) {
    out.sbo_[p] = (code >> p) & 1;
  }
  return out;
}

}  // namespace castanet::rtl
