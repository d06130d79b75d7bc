// Signed arbitrary-precision integers (sign + magnitude over UInt).
//
// Used by the Solinas TNAF machinery, where scalars live in Z[tau] with
// negative coordinates throughout.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mpint/uint.h"

namespace eccm0::mpint {

class SInt {
 public:
  SInt() = default;
  SInt(std::int64_t v);  // NOLINT(google-explicit-constructor)
  SInt(UInt mag, bool negative = false);

  bool is_zero() const { return mag_.is_zero(); }
  bool is_neg() const { return neg_; }
  bool is_odd() const { return mag_.is_odd(); }
  const UInt& abs() const { return mag_; }
  /// -1, 0, +1.
  int sign() const { return is_zero() ? 0 : (neg_ ? -1 : 1); }
  /// Value as int64 (caller guarantees it fits; checked).
  std::int64_t to_i64() const;
  std::string to_string() const;

  SInt operator-() const { return SInt{mag_, !neg_}; }
  SInt operator+(const SInt& o) const;
  SInt operator-(const SInt& o) const { return *this + (-o); }
  SInt operator*(const SInt& o) const;
  SInt operator<<(std::size_t bits) const {
    return SInt{mag_ << bits, neg_};
  }
  SInt& operator+=(const SInt& o) { return *this = *this + o; }
  SInt& operator-=(const SInt& o) { return *this = *this - o; }

  bool operator==(const SInt& o) const {
    return mag_ == o.mag_ && (neg_ == o.neg_ || mag_.is_zero());
  }
  bool operator<(const SInt& o) const;
  bool operator<=(const SInt& o) const { return *this < o || *this == o; }
  bool operator>(const SInt& o) const { return o < *this; }
  bool operator>=(const SInt& o) const { return o <= *this; }

  /// Floor division by a positive divisor: result q with a = q*b + r,
  /// 0 <= r < b.
  static SInt div_floor(const SInt& a, const UInt& b);
  /// Round-to-nearest division by a positive divisor (ties toward +inf).
  static SInt div_round(const SInt& a, const UInt& b);
  /// Euclidean remainder in [0, b).
  static UInt mod_euclid(const SInt& a, const UInt& b);

  /// Signed residue "mods 2^w": the unique r = a (mod 2^w) with
  /// -2^(w-1) <= r < 2^(w-1).
  std::int64_t mods_pow2(unsigned w) const;

  /// True exact halving (precondition: even).
  SInt half() const;

 private:
  void fix_zero() {
    if (mag_.is_zero()) neg_ = false;
  }
  UInt mag_;
  bool neg_ = false;
};

/// Width-w NAF digits of k, little-endian: each nonzero digit is odd,
/// with |u| < 2^(w-1), and is followed by at least w-1 zeros.
std::vector<int> wnaf_digits(const UInt& k, unsigned w);

}  // namespace eccm0::mpint
