#include "ec/tnaf.h"

#include <array>
#include <mutex>
#include <stdexcept>

#include "ec/curve.h"

namespace eccm0::ec {

using mpint::SInt;
using mpint::UInt;

TauRing::TauRing(int mu) : mu_(mu) {
  if (mu != 1 && mu != -1) throw std::invalid_argument("TauRing: mu != +-1");
}

ZTau TauRing::add(const ZTau& x, const ZTau& y) const {
  return {x.a0 + y.a0, x.a1 + y.a1};
}

ZTau TauRing::sub(const ZTau& x, const ZTau& y) const {
  return {x.a0 - y.a0, x.a1 - y.a1};
}

ZTau TauRing::mul(const ZTau& x, const ZTau& y) const {
  // (a0 + a1 t)(b0 + b1 t) with t^2 = mu t - 2.
  const SInt cross = x.a1 * y.a1;
  return {x.a0 * y.a0 - (cross << 1),
          x.a0 * y.a1 + x.a1 * y.a0 + times_mu(cross)};
}

ZTau TauRing::conj(const ZTau& x) const {
  return {x.a0 + times_mu(x.a1), -x.a1};
}

SInt TauRing::norm(const ZTau& x) const {
  return x.a0 * x.a0 + times_mu(x.a0 * x.a1) + ((x.a1 * x.a1) << 1);
}

SInt TauRing::lucas_u(unsigned i) const {
  SInt u0{0};
  SInt u1{1};
  if (i == 0) return u0;
  for (unsigned k = 1; k < i; ++k) {
    const SInt u2 = times_mu(u1) - (u0 << 1);
    u0 = u1;
    u1 = u2;
  }
  return u1;
}

ZTau TauRing::tau_pow(unsigned i) const {
  if (i == 0) return {SInt{1}, SInt{0}};
  // tau^i = U_i tau - 2 U_{i-1}.
  return {-(lucas_u(i - 1) << 1), lucas_u(i)};
}

ZTau TauRing::div_tau(const ZTau& x) const {
  if (x.a0.is_odd()) throw std::domain_error("div_tau: not divisible");
  const SInt half = x.a0.half();
  return {x.a1 + times_mu(half), -half};
}

ZTau TauRing::div_exact(const ZTau& x, const ZTau& d) const {
  const SInt n = norm(d);
  if (n.is_zero()) throw std::domain_error("div_exact: zero divisor");
  const ZTau num = mul(x, conj(d));
  const UInt nu = n.abs();
  const SInt q0 = SInt::div_floor(num.a0, nu);
  const SInt q1 = SInt::div_floor(num.a1, nu);
  if (!(q0 * SInt{nu} == num.a0) || !(q1 * SInt{nu} == num.a1)) {
    throw std::domain_error("div_exact: not divisible");
  }
  return {q0, q1};
}

ZTau TauRing::div_round(const ZTau& x, const ZTau& d) const {
  // lambda_i = num_i / N exactly; Solinas rounding with all comparisons
  // scaled by N so everything stays integral (Hankerson Alg 3.61).
  const SInt n = norm(d);
  if (n.is_zero()) throw std::domain_error("div_round: zero divisor");
  const ZTau num = mul(x, conj(d));
  const UInt nu = n.abs();
  const SInt N{nu};
  const SInt f0 = SInt::div_round(num.a0, nu);
  const SInt f1 = SInt::div_round(num.a1, nu);
  const SInt e0 = num.a0 - f0 * N;  // eta0 * N, |e0| <= N/2
  const SInt e1 = num.a1 - f1 * N;
  const SInt mu{mu_};
  const SInt mu_e1 = times_mu(e1);
  SInt h0{0};
  SInt h1{0};
  const SInt eta = (e0 << 1) + mu_e1;  // (2 eta0 + mu eta1) * N
  if (eta >= N) {
    if (e0 - mu_e1 * SInt{3} < -N) {
      h1 = mu;
    } else {
      h0 = SInt{1};
    }
  } else {
    if (e0 + (mu_e1 << 2) >= (N << 1)) h1 = mu;
  }
  if (eta < -N) {
    if (e0 - mu_e1 * SInt{3} >= N) {
      h1 = -mu;
    } else {
      h0 = SInt{-1};
    }
  } else {
    if (e0 + (mu_e1 << 2) < -(N << 1)) h1 = -mu;
  }
  return {f0 + h0, f1 + h1};
}

ZTau tnaf_delta(int mu, unsigned m) {
  const TauRing ring(mu);
  const ZTau tm = ring.tau_pow(m);
  const ZTau tm_minus_1{tm.a0 - SInt{1}, tm.a1};
  const ZTau tau_minus_1{SInt{-1}, SInt{1}};
  return ring.div_exact(tm_minus_1, tau_minus_1);
}

ZTau partmod(const UInt& k, const BinaryCurve& curve) {
  if (!curve.koblitz) throw std::invalid_argument("partmod: not Koblitz");
  const TauRing ring(curve.mu);
  const ZTau kz{SInt{k, false}, SInt{0}};
  const ZTau q = ring.div_round(kz, curve.delta);
  return ring.sub(kz, ring.mul(q, curve.delta));
}

std::uint32_t tau_mod_2w(int mu, unsigned w) {
  if (w < 2 || w > 8) throw std::invalid_argument("tau_mod_2w: w out of range");
  const TauRing ring(mu);
  const std::int64_t uw1 = ring.lucas_u(w - 1).to_i64();
  const std::int64_t uw = ring.lucas_u(w).to_i64();
  const std::int64_t mod = std::int64_t{1} << w;
  // U_w is odd; invert it mod 2^w by brute force (w <= 8).
  std::int64_t inv = 0;
  const std::int64_t uw_mod = ((uw % mod) + mod) % mod;
  for (std::int64_t cand = 1; cand < mod; cand += 2) {
    if ((uw_mod * cand) % mod == 1) {
      inv = cand;
      break;
    }
  }
  const std::int64_t t = ((2 * uw1 % mod) * inv % mod + mod) % mod;
  return static_cast<std::uint32_t>(t);
}

namespace {

/// The recoding constants of one window: alpha_u (alpha_reps' layout)
/// and t_w.
struct WindowConsts {
  std::vector<ZTau> alphas;
  std::int64_t tw = 0;
};

WindowConsts make_window_consts(int mu, unsigned w) {
  const TauRing ring(mu);
  const ZTau tw = ring.tau_pow(w);
  WindowConsts c;
  for (std::uint32_t u = 1; u < (1u << (w - 1)); u += 2) {
    const ZTau uz{SInt{static_cast<std::int64_t>(u)}, SInt{0}};
    const ZTau q = ring.div_round(uz, tw);
    c.alphas.push_back(ring.sub(uz, ring.mul(q, tw)));
  }
  c.tw = tau_mod_2w(mu, w);
  return c;
}

/// The constants of (mu, w), each built once on first use: call_once
/// publishes them to every thread, and later calls only read.
const WindowConsts& window_consts(int mu, unsigned w) {
  if (mu != 1 && mu != -1) throw std::invalid_argument("tnaf: mu != +-1");
  if (w < 2 || w > 8) throw std::invalid_argument("tnaf: w out of range");
  constexpr std::size_t kWidths = 7;  // w = 2..8
  static std::array<std::once_flag, 2 * kWidths> once;
  static std::array<WindowConsts, 2 * kWidths> table;
  const std::size_t i = (mu > 0 ? kWidths : 0) + (w - 2);
  std::call_once(once[i], [&] { table[i] = make_window_consts(mu, w); });
  return table[i];
}

}  // namespace

const std::vector<ZTau>& alpha_reps(int mu, unsigned w) {
  return window_consts(mu, w).alphas;
}

const std::vector<std::vector<int>>& alpha_digits(int mu, unsigned w) {
  const std::vector<ZTau>& alphas = alpha_reps(mu, w);
  // Its own once-table: the width-2 recoding reads window_consts(mu, 2),
  // which must not be under construction here.
  constexpr std::size_t kWidths = 7;  // w = 2..8
  static std::array<std::once_flag, 2 * kWidths> once;
  static std::array<std::vector<std::vector<int>>, 2 * kWidths> table;
  const std::size_t i = (mu > 0 ? kWidths : 0) + (w - 2);
  std::call_once(once[i], [&] {
    for (const ZTau& a : alphas) table[i].push_back(wtnaf_digits(a, mu, 2));
  });
  return table[i];
}

std::vector<int> wtnaf_digits(const ZTau& rho, int mu, unsigned w) {
  const TauRing ring(mu);
  const WindowConsts& window = window_consts(mu, w);
  const std::vector<ZTau>& alphas = window.alphas;
  const std::int64_t tw = window.tw;
  std::vector<int> digits;
  ZTau r = rho;
  while (!r.is_zero()) {
    int u = 0;
    if (r.a0.is_odd()) {
      const std::int64_t r0 = r.a0.mods_pow2(w + 1);  // enough low bits
      const std::int64_t r1 = r.a1.mods_pow2(w + 1);
      const std::int64_t mod = std::int64_t{1} << w;
      std::int64_t v = (r0 + r1 * tw) % mod;
      v = ((v % mod) + mod) % mod;
      if (v >= mod / 2) v -= mod;
      u = static_cast<int>(v);
      const ZTau& alpha = alphas[static_cast<std::size_t>(std::abs(u) / 2)];
      r = u > 0 ? ring.sub(r, alpha) : ring.add(r, alpha);
    }
    digits.push_back(u);
    r = ring.div_tau(r);
  }
  return digits;
}

ZTau wtnaf_evaluate(const std::vector<int>& digits, int mu, unsigned w) {
  const TauRing ring(mu);
  const std::vector<ZTau>& alphas = alpha_reps(mu, w);
  // Horner from the top digit down: acc = acc*tau + digit.
  ZTau acc{SInt{0}, SInt{0}};
  const ZTau tau{SInt{0}, SInt{1}};
  for (std::size_t i = digits.size(); i-- > 0;) {
    acc = ring.mul(acc, tau);
    const int u = digits[i];
    if (u != 0) {
      const ZTau& alpha = alphas[static_cast<std::size_t>(std::abs(u) / 2)];
      acc = u > 0 ? ring.add(acc, alpha) : ring.sub(acc, alpha);
    }
  }
  return acc;
}

}  // namespace eccm0::ec
