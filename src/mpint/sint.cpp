#include "mpint/sint.h"

#include <stdexcept>

namespace eccm0::mpint {

SInt::SInt(std::int64_t v)
    : mag_(v < 0 ? UInt{static_cast<std::uint64_t>(-(v + 1)) + 1}
                 : UInt{static_cast<std::uint64_t>(v)}),
      neg_(v < 0) {}

SInt::SInt(UInt mag, bool negative) : mag_(std::move(mag)), neg_(negative) {
  fix_zero();
}

std::int64_t SInt::to_i64() const {
  if (mag_.bit_length() > 63) {
    throw std::overflow_error("SInt::to_i64: value does not fit");
  }
  const auto v = static_cast<std::int64_t>(mag_.low_u64());
  return neg_ ? -v : v;
}

std::string SInt::to_string() const {
  return (neg_ ? "-0x" : "0x") + mag_.to_hex();
}

SInt SInt::operator+(const SInt& o) const {
  if (neg_ == o.neg_) return SInt{mag_ + o.mag_, neg_};
  if (mag_ >= o.mag_) return SInt{mag_ - o.mag_, neg_};
  return SInt{o.mag_ - mag_, o.neg_};
}

SInt SInt::operator*(const SInt& o) const {
  return SInt{mag_ * o.mag_, neg_ != o.neg_};
}

bool SInt::operator<(const SInt& o) const {
  if (neg_ != o.neg_) {
    if (is_zero() && o.is_zero()) return false;
    return neg_;
  }
  return neg_ ? o.mag_ < mag_ : mag_ < o.mag_;
}

SInt SInt::div_floor(const SInt& a, const UInt& b) {
  auto [q, r] = UInt::divmod(a.mag_, b);
  if (!a.neg_) return SInt{q, false};
  // Negative dividend: floor(-m / b) = -(ceil(m / b)).
  if (!r.is_zero()) q = q + UInt{1};
  return SInt{q, true};
}

SInt SInt::div_round(const SInt& a, const UInt& b) {
  // round(a / b) = floor((2a + b) / (2b)) for b > 0.
  const SInt num = (a << 1) + SInt{b, false};
  return div_floor(num, b << 1);
}

UInt SInt::mod_euclid(const SInt& a, const UInt& b) {
  const UInt r = a.mag_ % b;
  if (!a.neg_ || r.is_zero()) return r;
  return b - r;
}

std::int64_t SInt::mods_pow2(unsigned w) const {
  if (w == 0 || w >= 63) throw std::invalid_argument("mods_pow2: bad w");
  const std::uint64_t mask = (std::uint64_t{1} << w) - 1;
  std::uint64_t low = mag_.low_u64() & mask;
  if (neg_ && low != 0) low = (std::uint64_t{1} << w) - low;  // a mod 2^w
  const std::uint64_t half = std::uint64_t{1} << (w - 1);
  return low >= half ? static_cast<std::int64_t>(low) -
                           static_cast<std::int64_t>(std::uint64_t{1} << w)
                     : static_cast<std::int64_t>(low);
}

SInt SInt::half() const {
  if (mag_.is_odd()) throw std::domain_error("SInt::half of odd value");
  return SInt{mag_ >> 1, neg_};
}

std::vector<int> wnaf_digits(const UInt& k, unsigned w) {
  std::vector<int> digits;
  SInt s{k, false};
  while (!s.is_zero()) {
    int u = 0;
    if (s.is_odd()) {
      u = static_cast<int>(s.mods_pow2(w));
      s = s - SInt{u};
    }
    digits.push_back(u);
    s = s.half();
  }
  return digits;
}

}  // namespace eccm0::mpint
